//===- net/Config.h - Network configurations -------------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A network configuration (Def. 4): one forwarding table per switch of a
/// fixed topology, i.e., the data plane of a static, packet-free network.
/// Synthesis transitions between two configurations of the same topology.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_NET_CONFIG_H
#define NETUPD_NET_CONFIG_H

#include "net/Rule.h"
#include "net/Topology.h"

#include <cassert>
#include <string>
#include <vector>

namespace netupd {

/// A traffic class: packets that agree on the header fields the properties
/// mention (2^AP in §3.2). The repository models a class by a
/// representative header since rules never distinguish packets within one
/// class and packet modification is not reasoned about (§3.3).
struct TrafficClass {
  Header Hdr;
  std::string Name;
};

/// One forwarding table per switch of a topology.
class Config {
public:
  Config() = default;
  explicit Config(unsigned NumSwitches) : Tables(NumSwitches) {}

  unsigned numSwitches() const { return static_cast<unsigned>(Tables.size()); }

  const Table &table(SwitchId S) const {
    assert(S < Tables.size() && "bad switch id");
    return Tables[S];
  }
  Table &table(SwitchId S) {
    assert(S < Tables.size() && "bad switch id");
    return Tables[S];
  }

  void setTable(SwitchId S, Table T) {
    assert(S < Tables.size() && "bad switch id");
    Tables[S] = std::move(T);
  }

  /// Total number of rules across all switches; x-axis of Fig. 7(d-f) and
  /// Fig. 8(i).
  size_t totalRules() const;

  friend bool operator==(const Config &A, const Config &B) {
    return A.Tables == B.Tables;
  }

private:
  std::vector<Table> Tables;
};

/// Zobrist-style slot digest: the contribution of (switch \p Sw holding a
/// table with digest \p TableDigest) to a configuration digest. A Config
/// digest is the XOR of its slot digests (plus the switch count), so
/// replacing one table whose slot digest is known is an O(1) digest
/// update — the incremental maintenance KripkeStructure performs under
/// mutate/rollback, with slot digests precomputed by its table pool.
Digest configSlotDigest(SwitchId Sw, const Digest &TableDigest);

/// Canonical digest of a whole configuration, computed from scratch.
Digest digestOf(const Config &C);

/// Returns the switches whose tables differ between \p From and \p To —
/// the switches ORDERUPDATE must update.
std::vector<SwitchId> diffSwitches(const Config &From, const Config &To);

/// Installs forwarding rules along \p Path (a sequence of switch ids) for
/// traffic class \p Class into \p Cfg: each switch forwards class packets
/// out the port toward its successor; the last switch forwards to the
/// egress port attached to the destination host.
///
/// \param Topo        the interconnect
/// \param Cfg         configuration to modify
/// \param Class       the traffic class to route
/// \param Path        switch ids from ingress to egress
/// \param DstHost     host the final switch delivers to
/// \param Priority    rule priority to install
void installPath(const Topology &Topo, Config &Cfg, const TrafficClass &Class,
                 const std::vector<SwitchId> &Path, HostId DstHost,
                 uint32_t Priority = 10);

} // namespace netupd

#endif // NETUPD_NET_CONFIG_H
