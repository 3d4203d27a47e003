//===- net/Packet.h - Packet headers and patterns --------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Packet headers and match patterns from the paper's network model (§3.1).
/// A packet is a record of header fields (source, destination, protocol
/// type); a pattern is a record of *optional* fields plus an optional
/// ingress port, matching any packet that agrees on the present fields.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_NET_PACKET_H
#define NETUPD_NET_PACKET_H

#include "support/Digest.h"

#include <array>
#include <cstdint>
#include <optional>
#include <string>

namespace netupd {

/// Identifies a header field. The paper's model is parametric in the field
/// set; three fields suffice for every property and workload it evaluates.
enum class Field : uint8_t { Src = 0, Dst = 1, Typ = 2 };

/// Number of header fields in the model.
inline constexpr unsigned NumFields = 3;

/// Width of each header field in bits; used by the header-space backend to
/// encode headers as ternary bit vectors.
inline constexpr unsigned FieldBits = 8;

/// Returns the short field name used by printers ("src", "dst", "typ").
const char *fieldName(Field F);

/// Parses a field name; returns std::nullopt if \p Name is unknown.
std::optional<Field> fieldFromName(const std::string &Name);

/// A globally-unique port identifier. Every (switch, physical port) pair in
/// a topology gets its own PortId, so atomic propositions "port = n" are
/// unambiguous network-wide (§6 uses such propositions for reachability).
using PortId = uint32_t;

/// A switch identifier (index into Topology::switches()).
using SwitchId = uint32_t;

/// A host identifier (index into Topology::hosts()).
using HostId = uint32_t;

/// Sentinel for "no port".
inline constexpr PortId InvalidPort = ~PortId(0);

/// A packet header: concrete values for every field.
///
/// Epoch annotations from the operational model live on in-flight packet
/// instances (sim/Element.h), not on the header.
struct Header {
  std::array<uint32_t, NumFields> Values = {0, 0, 0};

  uint32_t get(Field F) const { return Values[static_cast<size_t>(F)]; }
  void set(Field F, uint32_t V) { Values[static_cast<size_t>(F)] = V; }

  friend bool operator==(const Header &A, const Header &B) {
    return A.Values == B.Values;
  }
  friend bool operator!=(const Header &A, const Header &B) {
    return !(A == B);
  }
  friend bool operator<(const Header &A, const Header &B) {
    return A.Values < B.Values;
  }

  /// Renders as "{src=1, dst=2, typ=0}".
  std::string str() const;
};

/// Builds a header with the given source/destination/type values.
Header makeHeader(uint32_t Src, uint32_t Dst, uint32_t Typ = 0);

/// A match pattern: optional ingress port plus optional field values
/// (the type "{pt?; f1?; ...; fk?}" from §3.1).
struct Pattern {
  std::optional<PortId> InPort;
  std::array<std::optional<uint32_t>, NumFields> Values;

  /// Returns true when \p Hdr arriving on \p Port satisfies every present
  /// component of this pattern.
  bool matches(const Header &Hdr, PortId Port) const {
    if (InPort && *InPort != Port)
      return false;
    return matchesHeader(Hdr);
  }

  /// Returns true when \p Hdr satisfies every present field component,
  /// i.e. the pattern admits the header on some port. A rule belongs to a
  /// traffic class's slice exactly when its pattern admits the class
  /// header.
  bool matchesHeader(const Header &Hdr) const {
    for (size_t I = 0; I != NumFields; ++I)
      if (Values[I] && *Values[I] != Hdr.Values[I])
        return false;
    return true;
  }

  /// Returns a pattern with no constraints (matches every packet).
  static Pattern wildcard() { return Pattern(); }

  /// Returns a pattern constraining one field.
  static Pattern onField(Field F, uint32_t V) {
    Pattern P;
    P.Values[static_cast<size_t>(F)] = V;
    return P;
  }

  friend bool operator==(const Pattern &A, const Pattern &B) {
    return A.InPort == B.InPort && A.Values == B.Values;
  }

  /// Renders as "{port=3, dst=2}" (only present components).
  std::string str() const;
};

/// Canonical content digests (support/Digest.h); equal values get equal
/// digests across processes and builds.
Digest digestOf(const Header &H);
Digest digestOf(const Pattern &P);

} // namespace netupd

#endif // NETUPD_NET_PACKET_H
