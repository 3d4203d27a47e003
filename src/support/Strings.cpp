//===- support/Strings.cpp - String helpers --------------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "support/Strings.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>

using namespace netupd;

std::string netupd::join(const std::vector<std::string> &Parts,
                         const std::string &Sep) {
  std::string Out;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

bool netupd::parseU64(const std::string &Text, uint64_t &Out) {
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Out);
  return Ec == std::errc() && Ptr == End;
}

bool netupd::parseU32(const std::string &Text, uint32_t &Out) {
  uint64_t V = 0;
  if (!parseU64(Text, V) || V > UINT32_MAX)
    return false;
  Out = static_cast<uint32_t>(V);
  return true;
}

std::vector<std::string> netupd::split(const std::string &Text, char Sep) {
  std::vector<std::string> Out;
  size_t Begin = 0;
  for (size_t I = 0, E = Text.size(); I != E; ++I) {
    if (Text[I] != Sep)
      continue;
    Out.push_back(Text.substr(Begin, I - Begin));
    Begin = I + 1;
  }
  Out.push_back(Text.substr(Begin));
  return Out;
}

std::string netupd::trim(const std::string &Text) {
  size_t Begin = 0;
  size_t End = Text.size();
  while (Begin < End && isspace(static_cast<unsigned char>(Text[Begin])))
    ++Begin;
  while (End > Begin && isspace(static_cast<unsigned char>(Text[End - 1])))
    --End;
  return Text.substr(Begin, End - Begin);
}

std::string netupd::format(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Len = vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Out;
  if (Len > 0) {
    Out.resize(static_cast<size_t>(Len) + 1);
    vsnprintf(Out.data(), Out.size(), Fmt, ArgsCopy);
    Out.resize(static_cast<size_t>(Len));
  }
  va_end(ArgsCopy);
  return Out;
}
