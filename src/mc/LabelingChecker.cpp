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
  UndoStack.clear();
  UndoDepth = 0;

  unsigned N = K->numStates();
  AtomBits.clear();
  AtomBits.reserve(N);
  SinkLabels.clear();
  SinkLabels.reserve(N);
  for (StateId S = 0; S != N; ++S) {
    AtomBits.push_back(Cl->atomBits(K->stateInfo(S)));
    SinkLabels.push_back(Cl->sinkLabel(AtomBits.back()));
  }

  Labels.assign(N, LabelSet());
  GrayStamp.assign(N, 0);
  DoneStamp.assign(N, 0);
  AncestorStamp.assign(N, 0);
  DirtyStamp.assign(N, 0);
  Stamp = 0;
  PostOrder.reserve(N);
  return fullCheck();
}

void LabelingChecker::computeLabel(StateId S, LabelSet &Out) {
  ++LabelOps;
  Out.clear();
  if (K->isSink(S)) {
    Out.push_back(SinkLabels[S]);
    return;
  }

  for (StateId Next : K->succs(S)) {
    assert(Next != S && "self-loop on a non-sink state");
    for (const Bitset &SuccM : Labels[Next]) {
      Out.emplace_back();
      Cl->extend(SuccM, AtomBits[S], Out.back());
    }
  }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
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

  // A state's label is computed in place: it reads only its successors'
  // labels, and its own buffer is reused, growing only when outgrown.
  for (StateId S : PostOrder)
    computeLabel(S, Labels[S]);
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
  if (UndoDepth == UndoStack.size())
    UndoStack.emplace_back();
  UndoFrame &Frame = UndoStack[UndoDepth++];
  assert(Frame.Used == 0 && "undo frame reused before its rollback");

  if (auto Loop = findLoopFrom(&Changed, nullptr)) {
    // Labels are left untouched: the caller must roll this update back
    // (the search cannot proceed through a rejected configuration), and
    // rollback restores the edges the current labels describe.
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
    computeLabel(S, ScratchLabel);
    if (ScratchLabel == Labels[S])
      continue; // Unchanged: ancestors keep their labels.
    // The frame entry swaps its spare buffer for the old label, and the
    // new label is copied into that spare.
    if (Frame.Used == Frame.Saved.size())
      Frame.Saved.emplace_back();
    auto &[Saved, OldLabel] = Frame.Saved[Frame.Used++];
    Saved = S;
    OldLabel.swap(Labels[S]);
    Labels[S] = ScratchLabel;
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
  assert(UndoDepth != 0 && "rollback without a matching recheck");
  UndoFrame &Frame = UndoStack[--UndoDepth];
  // Restore in reverse order of saving; each entry keeps the label it
  // swapped out as a spare buffer.
  for (size_t I = Frame.Used; I-- != 0;)
    Labels[Frame.Saved[I].first].swap(Frame.Saved[I].second);
  Frame.Used = 0;
}

CheckResult LabelingChecker::checkInitStates() {
  unsigned RootIdx = Cl->rootIndex();
  for (StateId Init : K->initialStates()) {
    for (const Bitset &M : Labels[Init]) {
      if (M.test(RootIdx))
        continue;
      CheckResult R;
      R.Holds = false;
      R.Cex = extractCex(Init, M);
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
      for (const Bitset &SuccM : Labels[Next]) {
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
