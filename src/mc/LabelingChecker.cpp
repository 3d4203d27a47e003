//===- mc/LabelingChecker.cpp - §5 labeling model checker ------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "mc/LabelingChecker.h"

#include <algorithm>
#include <cassert>

using namespace netupd;

CheckerBackend::~CheckerBackend() = default;

CheckResult LabelingChecker::bindImpl(KripkeStructure &Structure, Formula Phi) {
  K = &Structure;
  Cl = std::make_unique<Closure>(Phi);
  Saved.clear();
  Frames.clear();

  unsigned N = K->numStates();
  AtomBits.clear();
  AtomBits.reserve(N);
  SinkLabels.clear();
  SinkLabels.reserve(N);
  for (StateId S = 0; S != N; ++S) {
    AtomBits.push_back(Cl->atomBits(K->stateInfo(S)));
    SinkLabels.push_back(Cl->sinkLabel(AtomBits.back()));
  }

  // Every label holds at least one set, so N slots is the arena's floor.
  Spans.assign(N, Span());
  ArenaEnd = 0;
  reserveTail(N);
  GrayStamp.assign(N, 0);
  DoneStamp.assign(N, 0);
  AncestorStamp.assign(N, 0);
  DirtyStamp.assign(N, 0);
  Stamp = 0;
  PostOrder.reserve(N);
  DfsStack.reserve(N);
  return fullCheck();
}

void LabelingChecker::reserveTail(size_t N) {
  if (ArenaEnd + N <= Arena.size())
    return;
  // Grow geometrically; the new slots are default (empty) sets that
  // extend and the sink copy size on first use.
  Arena.resize(std::max(ArenaEnd + N, 2 * Arena.size()));
}

LabelingChecker::Span LabelingChecker::computeLabel(StateId S) {
  ++LabelOps;
  size_t Begin = ArenaEnd;
  if (K->isSink(S)) {
    reserveTail(1);
    Arena[ArenaEnd++] = SinkLabels[S];
    return Span{static_cast<uint32_t>(Begin), 1};
  }

  // The successors' labels live in this arena too: size the tail first,
  // then index into it, so no growth happens while a set is being read.
  size_t Need = 0;
  for (StateId Next : K->succs(S))
    Need += Spans[Next].Count;
  reserveTail(Need);
  for (StateId Next : K->succs(S)) {
    assert(Next != S && "self-loop on a non-sink state");
    Span Sp = Spans[Next];
    for (uint32_t I = Sp.Begin, E = Sp.Begin + Sp.Count; I != E; ++I)
      Cl->extend(Arena[I], AtomBits[S], Arena[ArenaEnd++]);
  }
  auto First = Arena.begin() + Begin;
  std::sort(First, Arena.begin() + ArenaEnd);
  ArenaEnd = std::unique(First, Arena.begin() + ArenaEnd) - Arena.begin();
  return Span{static_cast<uint32_t>(Begin),
              static_cast<uint32_t>(ArenaEnd - Begin)};
}

CheckResult LabelingChecker::fullCheck() {
  ++Queries;
  // A forwarding loop makes the structure non-DAG-like; such
  // configurations are rejected outright (§3.2), reported as a violation
  // whose counterexample is the loop itself.
  PostOrder.clear();
  if (auto Loop = findLoopFrom(nullptr, &PostOrder)) {
    CheckResult R;
    R.Holds = false;
    R.Cex = std::move(*Loop);
    return R;
  }

  // Children first, so each label reads only spans already appended.
  ArenaEnd = 0;
  for (StateId S : PostOrder)
    Spans[S] = computeLabel(S);
  return checkInitStates();
}

std::optional<std::vector<StateId>>
LabelingChecker::findLoopFrom(const std::vector<StateId> *Roots,
                              std::vector<StateId> *PostOrder) {
  ++Stamp;
  std::vector<std::pair<StateId, uint32_t>> &Stack = DfsStack;
  Stack.clear();
  size_t NumRoots = Roots ? Roots->size() : K->numStates();
  for (size_t I = 0; I != NumRoots; ++I) {
    StateId Root = Roots ? (*Roots)[I] : static_cast<StateId>(I);
    if (DoneStamp[Root] == Stamp)
      continue;
    Stack.emplace_back(Root, 0);
    GrayStamp[Root] = Stamp;
    while (!Stack.empty()) {
      auto &[S, EdgeIdx] = Stack.back();
      const auto &Succs = K->succs(S);
      if (EdgeIdx == Succs.size()) {
        DoneStamp[S] = Stamp;
        if (PostOrder)
          PostOrder->push_back(S);
        Stack.pop_back();
        continue;
      }
      StateId Next = Succs[EdgeIdx++];
      if (Next == S || DoneStamp[Next] == Stamp)
        continue;
      if (GrayStamp[Next] == Stamp) {
        // Back edge: the cycle is the DFS-stack suffix from Next to S.
        std::vector<StateId> Cycle;
        bool InCycle = false;
        for (const auto &[Q, Unused] : Stack) {
          (void)Unused;
          if (Q == Next)
            InCycle = true;
          if (InCycle)
            Cycle.push_back(Q);
        }
        return Cycle;
      }
      GrayStamp[Next] = Stamp;
      Stack.emplace_back(Next, 0);
    }
  }
  return std::nullopt;
}

CheckResult
LabelingChecker::incrementalCheck(const std::vector<StateId> &Changed) {
  ++Queries;
  Frames.push_back(Frame{ArenaEnd, Saved.size()});

  if (auto Loop = findLoopFrom(&Changed, nullptr)) {
    // Labels are left untouched: the caller must roll this update back
    // (the search cannot proceed through a rejected configuration), and
    // rollback restores the edges the current labels describe. The frame
    // stays open, empty, for that rollback to close.
    CheckResult R;
    R.Holds = false;
    R.Cex = std::move(*Loop);
    return R;
  }

  // The relabel region is the ancestor set of the changed states; collect
  // it by reverse DFS, then topologically order the induced subgraph so
  // children are relabeled before parents (the relbl function of §5).
  ++Stamp;
  std::vector<StateId> &Ancestors = ScratchAncestors;
  Ancestors.clear();
  {
    std::vector<StateId> &Stack = ScratchStack;
    Stack.assign(Changed.begin(), Changed.end());
    for (StateId S : Changed)
      AncestorStamp[S] = Stamp;
    while (!Stack.empty()) {
      StateId S = Stack.back();
      Stack.pop_back();
      Ancestors.push_back(S);
      for (StateId P : K->preds(S)) {
        if (P == S || AncestorStamp[P] == Stamp)
          continue;
        AncestorStamp[P] = Stamp;
        Stack.push_back(P);
      }
    }
  }

  // Post-order DFS within the ancestor set (following successor edges
  // restricted to the set) yields a children-first order.
  std::vector<StateId> &Order = ScratchOrder;
  Order.clear();
  {
    std::vector<std::pair<StateId, uint32_t>> &Stack = DfsStack;
    Stack.clear();
    for (StateId Root : Ancestors) {
      if (DoneStamp[Root] == Stamp)
        continue;
      Stack.emplace_back(Root, 0);
      DoneStamp[Root] = Stamp;
      while (!Stack.empty()) {
        auto &[S, EdgeIdx] = Stack.back();
        const auto &Succs = K->succs(S);
        if (EdgeIdx == Succs.size()) {
          Order.push_back(S);
          Stack.pop_back();
          continue;
        }
        StateId Next = Succs[EdgeIdx++];
        if (Next == S || AncestorStamp[Next] != Stamp ||
            DoneStamp[Next] == Stamp)
          continue;
        DoneStamp[Next] = Stamp;
        Stack.emplace_back(Next, 0);
      }
    }
  }

  // Relabel, children first, stopping as soon as a label is unchanged.
  // Order is topological within the region and every predecessor of a
  // region state lies in the region, so one sweep over Order reaches each
  // dirty state after all of its dirty successors.
  size_t Pending = 0;
  for (StateId S : Changed) {
    if (DirtyStamp[S] == Stamp)
      continue;
    DirtyStamp[S] = Stamp;
    ++Pending;
  }
  for (auto It = Order.begin(); Pending != 0; ++It) {
    assert(It != Order.end() && "dirty state outside the relabel region");
    StateId S = *It;
    if (DirtyStamp[S] != Stamp)
      continue;
    --Pending;
    Span Old = Spans[S];
    Span New = computeLabel(S);
    if (std::equal(spanBegin(New), spanEnd(New), spanBegin(Old),
                   spanEnd(Old))) {
      // Unchanged: give the tail back; ancestors keep their labels.
      ArenaEnd = New.Begin;
      continue;
    }
    // The old label's sets stay where they are; the trail remembers the
    // span so rollback can point S back at them.
    Saved.emplace_back(S, Old);
    Spans[S] = New;
    for (StateId P : K->preds(S)) {
      if (P == S || DirtyStamp[P] == Stamp)
        continue;
      DirtyStamp[P] = Stamp;
      ++Pending;
    }
  }

  return checkInitStates();
}

CheckResult
LabelingChecker::recheckImpl(const UpdateInfo &Update) {
  assert(K && "recheck before bind");
  if (M == Mode::Batch)
    return fullCheck(); // fullCheck() counts the query.
  assert(Update.ChangedStates && "incremental recheck needs changed states");
  return incrementalCheck(*Update.ChangedStates);
}

void LabelingChecker::notifyRollback() {
  if (M == Mode::Batch)
    return; // Batch never reuses labels; nothing to restore.
  assert(!Frames.empty() && "rollback without a matching recheck");
  Frame F = Frames.back();
  Frames.pop_back();
  // Restore in reverse order of saving, then cut the trail and the arena
  // back to the frame's marks: every set this frame appended is dead.
  for (size_t I = Saved.size(); I-- != F.SavedMark;)
    Spans[Saved[I].first] = Saved[I].second;
  Saved.resize(F.SavedMark);
  ArenaEnd = F.ArenaMark;
}

CheckResult LabelingChecker::checkInitStates() {
  unsigned RootIdx = Cl->rootIndex();
  for (StateId Init : K->initialStates()) {
    for (const Bitset *M = spanBegin(Spans[Init]), *E = spanEnd(Spans[Init]);
         M != E; ++M) {
      if (M->test(RootIdx))
        continue;
      CheckResult R;
      R.Holds = false;
      R.Cex = extractCex(Init, *M);
      return R;
    }
  }
  CheckResult R;
  R.Holds = true;
  return R;
}

std::vector<StateId> LabelingChecker::extractCex(StateId Init,
                                                 const Bitset &M) {
  // Walk the labeled graph: at each non-sink state find the child set M'
  // explaining the current set M (§5, "Counterexamples").
  std::vector<StateId> Path = {Init};
  StateId Cur = Init;
  Bitset CurM = M;
  Bitset Extended;
  while (!K->isSink(Cur)) {
    bool Found = false;
    for (StateId Next : K->succs(Cur)) {
      assert(Next != Cur && "self-loop on a non-sink state");
      for (const Bitset *It = spanBegin(Spans[Next]),
                        *E = spanEnd(Spans[Next]);
           It != E; ++It) {
        const Bitset &SuccM = *It;
        Cl->extend(SuccM, AtomBits[Cur], Extended);
        if (Extended != CurM)
          continue;
        Path.push_back(Next);
        Cur = Next;
        CurM = SuccM;
        Found = true;
        break;
      }
      if (Found)
        break;
    }
    assert(Found && "label set without a witness child");
    if (!Found)
      break; // Defensive: avoid an infinite loop in release builds.
  }
  return Path;
}
