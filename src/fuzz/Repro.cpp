//===- fuzz/Repro.cpp - Self-contained disagreement repros -----*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Repro.h"

#include "support/Strings.h"

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace netupd;
using namespace netupd::fuzz;

namespace {

const char *kindToken(PropertyKind K) {
  switch (K) {
  case PropertyKind::Reachability:
    return "reachability";
  case PropertyKind::Waypoint:
    return "waypoint";
  case PropertyKind::ServiceChain:
    return "servicechain";
  }
  return "reachability";
}

std::optional<PropertyKind> kindFromToken(const std::string &T) {
  if (T == "reachability")
    return PropertyKind::Reachability;
  if (T == "waypoint")
    return PropertyKind::Waypoint;
  if (T == "servicechain")
    return PropertyKind::ServiceChain;
  return std::nullopt;
}

void writeLocation(std::ostream &OS, const Location &L) {
  if (L.isHost())
    OS << "H " << L.Host;
  else
    OS << "S " << L.Switch << ' ' << L.Port;
}

/// "-" for an absent optional component, the value otherwise.
void writeOpt(std::ostream &OS, const std::optional<uint32_t> &V) {
  if (V)
    OS << *V;
  else
    OS << '-';
}

void writeTable(std::ostream &OS, SwitchId Sw, const Table &T) {
  OS << "table " << Sw << ' ' << T.size() << '\n';
  for (const Rule &R : T.rules()) {
    OS << "rule " << R.Priority << ' ';
    if (R.Pat.InPort)
      OS << *R.Pat.InPort;
    else
      OS << '-';
    for (const auto &V : R.Pat.Values) {
      OS << ' ';
      writeOpt(OS, V);
    }
    OS << ' ' << R.Actions.size();
    for (const Action &A : R.Actions) {
      if (A.K == Action::Kind::Forward)
        OS << " F " << A.OutPort;
      else
        OS << " S " << static_cast<unsigned>(A.F) << ' ' << A.Value;
    }
    OS << '\n';
  }
}

void writeConfig(std::ostream &OS, const char *Which, const Config &C) {
  unsigned NonEmpty = 0;
  for (SwitchId Sw = 0; Sw != C.numSwitches(); ++Sw)
    NonEmpty += !C.table(Sw).empty();
  OS << "config " << Which << ' ' << NonEmpty << '\n';
  for (SwitchId Sw = 0; Sw != C.numSwitches(); ++Sw)
    if (!C.table(Sw).empty())
      writeTable(OS, Sw, C.table(Sw));
}

void writeIds(std::ostream &OS, const char *Tag,
              const std::vector<SwitchId> &Ids) {
  OS << Tag << ' ' << Ids.size();
  for (SwitchId S : Ids)
    OS << ' ' << S;
  OS << '\n';
}

/// Minimal line/token cursor over the input text.
class Cursor {
public:
  /// \p FirstLine numbers the first line of \p Text, so a section cut
  /// from a larger file reports the file's line numbers.
  explicit Cursor(const std::string &Text, unsigned FirstLine = 1)
      : In(Text), LineNo(FirstLine - 1) {}

  /// Next non-empty, non-comment line split into tokens; empty at EOF.
  bool nextLine(std::vector<std::string> &Tokens, std::string &Raw) {
    std::string Line;
    while (std::getline(In, Line)) {
      ++LineNo;
      if (Line.empty() || Line[0] == '#')
        continue;
      Raw = Line;
      Tokens.clear();
      std::istringstream LS(Line);
      std::string Tok;
      while (LS >> Tok)
        Tokens.push_back(Tok);
      if (!Tokens.empty())
        return true;
    }
    return false;
  }

  unsigned line() const { return LineNo; }

private:
  std::istringstream In;
  unsigned LineNo;
};

bool parseOpt(const std::string &T, std::optional<uint32_t> &Out) {
  if (T == "-") {
    Out.reset();
    return true;
  }
  uint32_t V = 0;
  if (!parseU32(T, V))
    return false;
  Out = V;
  return true;
}

/// The rest of the line after the first N tokens (for free-text fields).
std::string restAfter(const std::string &Raw, unsigned NTokens) {
  std::istringstream LS(Raw);
  std::string Tok;
  for (unsigned I = 0; I != NTokens; ++I)
    LS >> Tok;
  std::string Rest;
  std::getline(LS, Rest);
  size_t Start = Rest.find_first_not_of(' ');
  return Start == std::string::npos ? std::string() : Rest.substr(Start);
}

struct ParseError {
  std::string Msg;
};

void fail(std::string *Err, unsigned Line, const std::string &Msg) {
  if (Err)
    *Err = "line " + std::to_string(Line) + ": " + Msg;
}

/// Parses one "rule ..." line into \p T.
bool parseRuleLine(const std::vector<std::string> &Tok, Table &T) {
  // rule <pri> <inport|-> <src|-> <dst|-> <typ|-> <nacts> acts...
  if (Tok.size() < 7)
    return false;
  Rule R;
  if (!parseU32(Tok[1], R.Priority))
    return false;
  std::optional<uint32_t> InPort;
  if (!parseOpt(Tok[2], InPort))
    return false;
  if (InPort)
    R.Pat.InPort = *InPort;
  for (unsigned F = 0; F != NumFields; ++F)
    if (!parseOpt(Tok[3 + F], R.Pat.Values[F]))
      return false;
  uint32_t NActs = 0;
  if (!parseU32(Tok[6], NActs))
    return false;
  size_t Pos = 7;
  for (uint32_t A = 0; A != NActs; ++A) {
    if (Pos >= Tok.size())
      return false;
    if (Tok[Pos] == "F") {
      uint32_t Port = 0;
      if (Pos + 1 >= Tok.size() || !parseU32(Tok[Pos + 1], Port))
        return false;
      R.Actions.push_back(Action::forward(Port));
      Pos += 2;
    } else if (Tok[Pos] == "S") {
      uint32_t F = 0, V = 0;
      if (Pos + 2 >= Tok.size() || !parseU32(Tok[Pos + 1], F) ||
          !parseU32(Tok[Pos + 2], V) || F >= NumFields)
        return false;
      R.Actions.push_back(Action::setField(static_cast<Field>(F), V));
      Pos += 3;
    } else {
      return false;
    }
  }
  T.addRule(std::move(R));
  return true;
}

bool parseConfigSection(Cursor &C, Config &Cfg, unsigned NonEmpty,
                        unsigned NumSwitches, std::string *Err) {
  std::vector<std::string> Tok;
  std::string Raw;
  for (unsigned I = 0; I != NonEmpty; ++I) {
    if (!C.nextLine(Tok, Raw) || Tok[0] != "table" || Tok.size() != 3) {
      fail(Err, C.line(), "expected table header");
      return false;
    }
    uint32_t Sw = 0, NRules = 0;
    if (!parseU32(Tok[1], Sw) || !parseU32(Tok[2], NRules) ||
        Sw >= NumSwitches) {
      fail(Err, C.line(), "bad table header");
      return false;
    }
    Table T;
    for (uint32_t R = 0; R != NRules; ++R) {
      if (!C.nextLine(Tok, Raw) || Tok[0] != "rule" ||
          !parseRuleLine(Tok, T)) {
        fail(Err, C.line(), "bad rule line");
        return false;
      }
    }
    Cfg.setTable(Sw, std::move(T));
  }
  return true;
}

bool parseIdList(const std::vector<std::string> &Tok, unsigned Bound,
                 std::vector<SwitchId> &Out) {
  if (Tok.size() < 2)
    return false;
  uint32_t N = 0;
  if (!parseU32(Tok[1], N) || Tok.size() != 2 + N)
    return false;
  Out.clear();
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t V = 0;
    if (!parseU32(Tok[2 + I], V) || V >= Bound)
      return false;
    Out.push_back(V);
  }
  return true;
}

} // namespace

std::string fuzz::serializeScenario(const Scenario &S) {
  std::ostringstream OS;
  const Topology &T = S.Topo;
  OS << "scenario\n";
  OS << "kind " << kindToken(S.Kind) << '\n';
  OS << "switches " << T.numSwitches() << '\n';
  for (SwitchId Sw = 0; Sw != T.numSwitches(); ++Sw)
    OS << "swname " << Sw << ' ' << T.switchName(Sw) << '\n';
  OS << "hosts " << T.numHosts() << '\n';
  for (HostId H = 0; H != T.numHosts(); ++H)
    OS << "hostname " << H << ' ' << T.hostName(H) << '\n';
  OS << "ports " << T.numPorts();
  for (PortId P = 0; P != T.numPorts(); ++P)
    OS << ' ' << T.portOwner(P);
  OS << '\n';
  OS << "links " << T.numLinks() << '\n';
  for (const Link &L : T.links()) {
    OS << "link ";
    writeLocation(OS, L.From);
    OS << ' ';
    writeLocation(OS, L.To);
    OS << '\n';
  }
  OS << "flows " << S.Flows.size() << '\n';
  for (const FlowSpec &F : S.Flows) {
    OS << "flowclass " << F.Class.Hdr.get(Field::Src) << ' '
       << F.Class.Hdr.get(Field::Dst) << ' ' << F.Class.Hdr.get(Field::Typ)
       << ' ' << (F.Class.Name.empty() ? "-" : F.Class.Name) << '\n';
    OS << "flowends " << F.SrcHost << ' ' << F.DstHost << ' ' << F.SrcPort
       << ' ' << F.DstPort << '\n';
    writeIds(OS, "flowway", F.Waypoints);
    writeIds(OS, "flowipath", F.InitialPath);
    writeIds(OS, "flowfpath", F.FinalPath);
  }
  writeConfig(OS, "initial", S.Initial);
  writeConfig(OS, "final", S.Final);
  OS << "end\n";
  return OS.str();
}

namespace {

std::optional<Scenario> parseScenarioAt(const std::string &Text,
                                        unsigned FirstLine, std::string *Err) {
  Cursor C(Text, FirstLine);
  std::vector<std::string> Tok;
  std::string Raw;

  if (!C.nextLine(Tok, Raw) || Tok[0] != "scenario") {
    fail(Err, C.line(), "expected 'scenario'");
    return std::nullopt;
  }

  Scenario S;
  if (!C.nextLine(Tok, Raw) || Tok[0] != "kind" || Tok.size() != 2) {
    fail(Err, C.line(), "expected 'kind'");
    return std::nullopt;
  }
  std::optional<PropertyKind> K = kindFromToken(Tok[1]);
  if (!K) {
    fail(Err, C.line(), "unknown property kind");
    return std::nullopt;
  }
  S.Kind = *K;

  uint32_t NumSwitches = 0;
  if (!C.nextLine(Tok, Raw) || Tok[0] != "switches" || Tok.size() != 2 ||
      !parseU32(Tok[1], NumSwitches)) {
    fail(Err, C.line(), "expected 'switches <n>'");
    return std::nullopt;
  }
  for (uint32_t I = 0; I != NumSwitches; ++I) {
    if (!C.nextLine(Tok, Raw) || Tok[0] != "swname" || Tok.size() < 2) {
      fail(Err, C.line(), "expected 'swname'");
      return std::nullopt;
    }
    S.Topo.addSwitch(restAfter(Raw, 2));
  }

  uint32_t NumHosts = 0;
  if (!C.nextLine(Tok, Raw) || Tok[0] != "hosts" || Tok.size() != 2 ||
      !parseU32(Tok[1], NumHosts)) {
    fail(Err, C.line(), "expected 'hosts <n>'");
    return std::nullopt;
  }
  for (uint32_t I = 0; I != NumHosts; ++I) {
    if (!C.nextLine(Tok, Raw) || Tok[0] != "hostname" || Tok.size() < 2) {
      fail(Err, C.line(), "expected 'hostname'");
      return std::nullopt;
    }
    S.Topo.addHost(restAfter(Raw, 2));
  }

  // Ports: replay the allocation order so global ids come out identical.
  if (!C.nextLine(Tok, Raw) || Tok[0] != "ports" || Tok.size() < 2) {
    fail(Err, C.line(), "expected 'ports <n> <owners...>'");
    return std::nullopt;
  }
  uint32_t NumPorts = 0;
  if (!parseU32(Tok[1], NumPorts) || Tok.size() != 2 + NumPorts) {
    fail(Err, C.line(), "bad port list");
    return std::nullopt;
  }
  for (uint32_t P = 0; P != NumPorts; ++P) {
    uint32_t Owner = 0;
    if (!parseU32(Tok[2 + P], Owner) || Owner >= NumSwitches) {
      fail(Err, C.line(), "bad port owner");
      return std::nullopt;
    }
    S.Topo.addPort(Owner);
  }

  uint32_t NumLinks = 0;
  if (!C.nextLine(Tok, Raw) || Tok[0] != "links" || Tok.size() != 2 ||
      !parseU32(Tok[1], NumLinks)) {
    fail(Err, C.line(), "expected 'links <n>'");
    return std::nullopt;
  }
  auto ParseLoc = [&](size_t &Pos, Location &Out) -> bool {
    if (Pos >= Tok.size())
      return false;
    if (Tok[Pos] == "H") {
      uint32_t H = 0;
      if (Pos + 1 >= Tok.size() || !parseU32(Tok[Pos + 1], H) ||
          H >= NumHosts)
        return false;
      Out = Location::host(H);
      Pos += 2;
      return true;
    }
    if (Tok[Pos] == "S") {
      uint32_t Sw = 0, P = 0;
      if (Pos + 2 >= Tok.size() || !parseU32(Tok[Pos + 1], Sw) ||
          !parseU32(Tok[Pos + 2], P) || Sw >= NumSwitches || P >= NumPorts)
        return false;
      Out = Location::switchPort(Sw, P);
      Pos += 3;
      return true;
    }
    return false;
  };
  for (uint32_t L = 0; L != NumLinks; ++L) {
    if (!C.nextLine(Tok, Raw) || Tok[0] != "link") {
      fail(Err, C.line(), "expected 'link'");
      return std::nullopt;
    }
    size_t Pos = 1;
    Location From, To;
    if (!ParseLoc(Pos, From) || !ParseLoc(Pos, To) || Pos != Tok.size()) {
      fail(Err, C.line(), "bad link line");
      return std::nullopt;
    }
    S.Topo.addLink(From, To);
  }

  uint32_t NumFlows = 0;
  if (!C.nextLine(Tok, Raw) || Tok[0] != "flows" || Tok.size() != 2 ||
      !parseU32(Tok[1], NumFlows)) {
    fail(Err, C.line(), "expected 'flows <n>'");
    return std::nullopt;
  }
  for (uint32_t I = 0; I != NumFlows; ++I) {
    FlowSpec F;
    uint32_t Src = 0, Dst = 0, Typ = 0;
    if (!C.nextLine(Tok, Raw) || Tok[0] != "flowclass" || Tok.size() < 5 ||
        !parseU32(Tok[1], Src) || !parseU32(Tok[2], Dst) ||
        !parseU32(Tok[3], Typ)) {
      fail(Err, C.line(), "bad flowclass line");
      return std::nullopt;
    }
    F.Class.Hdr = makeHeader(Src, Dst, Typ);
    F.Class.Name = Tok[4] == "-" ? std::string() : Tok[4];
    if (!C.nextLine(Tok, Raw) || Tok[0] != "flowends" || Tok.size() != 5 ||
        !parseU32(Tok[1], F.SrcHost) || !parseU32(Tok[2], F.DstHost) ||
        !parseU32(Tok[3], F.SrcPort) || !parseU32(Tok[4], F.DstPort)) {
      fail(Err, C.line(), "bad flowends line");
      return std::nullopt;
    }
    if (!C.nextLine(Tok, Raw) || Tok[0] != "flowway" ||
        !parseIdList(Tok, NumSwitches, F.Waypoints)) {
      fail(Err, C.line(), "bad flowway line");
      return std::nullopt;
    }
    if (!C.nextLine(Tok, Raw) || Tok[0] != "flowipath" ||
        !parseIdList(Tok, NumSwitches, F.InitialPath)) {
      fail(Err, C.line(), "bad flowipath line");
      return std::nullopt;
    }
    if (!C.nextLine(Tok, Raw) || Tok[0] != "flowfpath" ||
        !parseIdList(Tok, NumSwitches, F.FinalPath)) {
      fail(Err, C.line(), "bad flowfpath line");
      return std::nullopt;
    }
    S.Flows.push_back(std::move(F));
  }

  S.Initial = Config(NumSwitches);
  S.Final = Config(NumSwitches);
  for (Config *Cfg : {&S.Initial, &S.Final}) {
    const char *Which = Cfg == &S.Initial ? "initial" : "final";
    uint32_t NonEmpty = 0;
    if (!C.nextLine(Tok, Raw) || Tok[0] != "config" || Tok.size() != 3 ||
        Tok[1] != Which || !parseU32(Tok[2], NonEmpty)) {
      fail(Err, C.line(), std::string("expected 'config ") + Which + "'");
      return std::nullopt;
    }
    if (!parseConfigSection(C, *Cfg, NonEmpty, NumSwitches, Err))
      return std::nullopt;
  }

  if (!C.nextLine(Tok, Raw) || Tok[0] != "end") {
    fail(Err, C.line(), "expected 'end'");
    return std::nullopt;
  }
  return S;
}

} // namespace

std::optional<Scenario> fuzz::parseScenario(const std::string &Text,
                                            std::string *Err) {
  return parseScenarioAt(Text, 1, Err);
}

std::string fuzz::serializeRepro(const Repro &R) {
  std::ostringstream OS;
  OS << "netupd-repro 1\n";
  OS << "seed " << R.Seed << '\n';
  OS << "iter " << R.Iter << '\n';
  OS << "title " << R.Title << '\n';
  OS << "cells " << (R.CellA.empty() ? "-" : R.CellA) << ' '
     << (R.CellB.empty() ? "-" : R.CellB) << '\n';
  OS << "detail " << R.Detail << '\n';
  OS << serializeScenario(R.S);
  return OS.str();
}

std::optional<Repro> fuzz::parseRepro(const std::string &Text,
                                      std::string *Err) {
  Cursor C(Text);
  std::vector<std::string> Tok;
  std::string Raw;
  if (!C.nextLine(Tok, Raw) || Tok[0] != "netupd-repro" || Tok.size() != 2 ||
      Tok[1] != "1") {
    fail(Err, C.line(), "expected 'netupd-repro 1' header");
    return std::nullopt;
  }
  Repro R;
  if (!C.nextLine(Tok, Raw) || Tok[0] != "seed" || Tok.size() != 2 ||
      !parseU64(Tok[1], R.Seed)) {
    fail(Err, C.line(), "expected 'seed'");
    return std::nullopt;
  }
  uint32_t Iter = 0;
  if (!C.nextLine(Tok, Raw) || Tok[0] != "iter" || Tok.size() != 2 ||
      !parseU32(Tok[1], Iter)) {
    fail(Err, C.line(), "expected 'iter'");
    return std::nullopt;
  }
  R.Iter = Iter;
  if (!C.nextLine(Tok, Raw) || Tok[0] != "title") {
    fail(Err, C.line(), "expected 'title'");
    return std::nullopt;
  }
  R.Title = restAfter(Raw, 1);
  if (!C.nextLine(Tok, Raw) || Tok[0] != "cells" || Tok.size() != 3) {
    fail(Err, C.line(), "expected 'cells <a> <b>'");
    return std::nullopt;
  }
  R.CellA = Tok[1] == "-" ? std::string() : Tok[1];
  R.CellB = Tok[2] == "-" ? std::string() : Tok[2];
  if (!C.nextLine(Tok, Raw) || Tok[0] != "detail") {
    fail(Err, C.line(), "expected 'detail'");
    return std::nullopt;
  }
  R.Detail = restAfter(Raw, 1);

  // Everything from "scenario" onward is the scenario section.
  size_t Pos = Text.find("\nscenario\n");
  if (Pos == std::string::npos) {
    fail(Err, C.line(), "missing scenario section");
    return std::nullopt;
  }
  unsigned ScenarioLine = static_cast<unsigned>(
      std::count(Text.begin(), Text.begin() + Pos + 1, '\n') + 1);
  std::optional<Scenario> S =
      parseScenarioAt(Text.substr(Pos + 1), ScenarioLine, Err);
  if (!S)
    return std::nullopt;
  R.S = std::move(*S);
  return R;
}

std::optional<Repro> fuzz::loadReproFile(const std::string &Path,
                                         std::string *Err) {
  std::ifstream In(Path);
  if (!In) {
    if (Err)
      *Err = "cannot open " + Path;
    return std::nullopt;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return parseRepro(Buf.str(), Err);
}

bool fuzz::saveReproFile(const Repro &R, const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << serializeRepro(R);
  return static_cast<bool>(Out);
}
