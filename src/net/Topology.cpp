//===- net/Topology.cpp - Switches, hosts, links ---------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "net/Topology.h"

#include "support/Strings.h"

using namespace netupd;

std::string Location::str() const {
  if (K == Kind::Host)
    return format("host(%u)", Host);
  return format("(sw %u, pt %u)", Switch, Port);
}

SwitchId Topology::addSwitch(std::string Name) {
  SwitchId Id = static_cast<SwitchId>(SwitchNames.size());
  SwitchNames.push_back(std::move(Name));
  SwitchPortIds.emplace_back();
  return Id;
}

HostId Topology::addHost(std::string Name) {
  HostId Id = static_cast<HostId>(HostNames.size());
  HostNames.push_back(std::move(Name));
  return Id;
}

PortId Topology::addPort(SwitchId S) {
  assert(S < SwitchPortIds.size() && "bad switch id");
  PortId P = static_cast<PortId>(PortOwner.size());
  PortOwner.push_back(S);
  SwitchPortIds[S].push_back(P);
  FirstLinkFrom.push_back(NoLink);
  return P;
}

void Topology::addLink(Location From, Location To) {
  if (!From.isHost() && From.Port < FirstLinkFrom.size() &&
      FirstLinkFrom[From.Port] == NoLink)
    FirstLinkFrom[From.Port] = static_cast<uint32_t>(Links.size());
  Links.push_back(Link{From, To});
}

std::pair<PortId, PortId> Topology::connectSwitches(SwitchId A, SwitchId B) {
  PortId PA = addPort(A);
  PortId PB = addPort(B);
  addLink(Location::switchPort(A, PA), Location::switchPort(B, PB));
  addLink(Location::switchPort(B, PB), Location::switchPort(A, PA));
  return {PA, PB};
}

PortId Topology::attachHost(HostId H, SwitchId S) {
  PortId P = addPort(S);
  addLink(Location::host(H), Location::switchPort(S, P));
  addLink(Location::switchPort(S, P), Location::host(H));
  return P;
}

const Location *Topology::linkFrom(SwitchId S, PortId P) const {
  if (P >= FirstLinkFrom.size() || FirstLinkFrom[P] == NoLink)
    return nullptr;
  const Link &First = Links[FirstLinkFrom[P]];
  if (First.From.Switch == S)
    return &First.To;
  // Only a malformed topology links one port from two switches; keep the
  // first-match answer of a full scan for it.
  for (const Link &L : Links)
    if (!L.From.isHost() && L.From.Switch == S && L.From.Port == P)
      return &L.To;
  return nullptr;
}

std::vector<Location> Topology::linksInto(SwitchId S, PortId P) const {
  std::vector<Location> Sources;
  for (const Link &L : Links)
    if (!L.To.isHost() && L.To.Switch == S && L.To.Port == P)
      Sources.push_back(L.From);
  return Sources;
}

std::vector<Location> Topology::ingressLocations() const {
  std::vector<Location> Ingresses;
  for (const Link &L : Links)
    if (L.From.isHost() && !L.To.isHost())
      Ingresses.push_back(L.To);
  return Ingresses;
}

PortId Topology::hostAttachment(HostId H) const {
  for (const Link &L : Links)
    if (L.From.isHost() && L.From.Host == H && !L.To.isHost())
      return L.To.Port;
  return InvalidPort;
}

std::vector<Location> Topology::egressLocations() const {
  std::vector<Location> Egresses;
  for (const Link &L : Links)
    if (!L.From.isHost() && L.To.isHost())
      Egresses.push_back(L.From);
  return Egresses;
}

Digest netupd::digestOf(const Topology &T) {
  DigestBuilder B;
  B.addU64(T.numSwitches());
  B.addU64(T.numHosts());
  B.addU64(T.numPorts());
  for (PortId P = 0; P != T.numPorts(); ++P)
    B.addU32(T.portOwner(P));
  B.addU64(T.numLinks());
  for (const Link &L : T.links())
    for (const Location &Loc : {L.From, L.To}) {
      B.addBool(Loc.isHost());
      if (Loc.isHost())
        B.addU32(Loc.Host);
      else {
        B.addU32(Loc.Switch);
        B.addU32(Loc.Port);
      }
    }
  return B.finish();
}
