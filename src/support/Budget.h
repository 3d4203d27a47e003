//===- support/Budget.h - Deterministic logical budgets --------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Logical-cost budgets for the synthesis search. A wall clock and a
/// shared call counter make abort decisions racy: the same job with the
/// same budget can Succeed on one machine and Abort on another, which
/// poisons portfolio racing, violates the "Aborted results are never
/// cached" contract in spirit, and makes benchmark trend gates
/// untrustworthy. The fix is to account *logical* cost instead:
///
///  - A BudgetLedger carves the job's check-call budget into fixed
///    per-work-unit quotas, decided once from (budget, #units) and never
///    from timing. Work units are the depth-one prefixes of the DFS
///    (synth/OrderUpdate.cpp), each explored by exactly one shard.
///  - A BudgetAccount is one unit's purse. The shard exploring the unit
///    asks canSpend() before every check call and the checker charges
///    the account once per recheck (mc/CheckerBackend.h), so the set of
///    explored prefixes inside a unit is a pure function of the unit's
///    quota — independent of shard count, worker count, and wall time.
///
/// Boundary semantics are inclusive everywhere: a quota of N permits
/// exactly N charged calls (the N-th call is spendable; the N+1-th is
/// not). Initial bind() checks are setup cost, not search cost — they
/// are exempt from charging, both because a sharded run performs one
/// bind per shard (a layout artifact the budget must not see) and so a
/// budget of N bounds N *search steps* at every shard count.
///
/// Accounts are single-owner (one shard works one unit at a time) and
/// deliberately not thread-safe; the ledger is immutable after
/// construction and freely shared.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_SUPPORT_BUDGET_H
#define NETUPD_SUPPORT_BUDGET_H

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace netupd {

/// One work unit's check-call purse; see the file comment. The search
/// polls canSpend() before issuing a call, the checker charges once per
/// served recheck — both on the same thread.
class BudgetAccount {
public:
  /// An unlimited account: canSpend() is always true, charges are still
  /// counted (they feed SynthStats::BudgetSpent).
  BudgetAccount() = default;

  /// An account permitting exactly \p Quota charges.
  explicit BudgetAccount(uint64_t Quota) : Limited(true), Quota(Quota) {}

  bool limited() const { return Limited; }

  /// True while one more call may be charged (inclusive budget: a quota
  /// of N permits the N-th call).
  bool canSpend() const { return !Limited || Spent < Quota; }

  /// True once a limited account has spent its whole quota.
  bool exhausted() const { return Limited && Spent >= Quota; }

  /// Records one charged call. Called by CheckerBackend::recheckAfterUpdate
  /// for the account attached via setBudget().
  void charge() { ++Spent; }

  uint64_t spent() const { return Spent; }

private:
  bool Limited = false;
  uint64_t Quota = 0;
  uint64_t Spent = 0;
};

/// The deterministic carve of a job's check-call budget into per-unit
/// quotas. Built once per search from the budget knobs and the number of
/// work units; immutable afterwards.
class BudgetLedger {
public:
  /// An unlimited ledger: every account is unlimited, deterministic
  /// budget mode is off.
  BudgetLedger() = default;

  /// Splits \p Total calls evenly across \p Units work units; earlier
  /// units receive the remainder (unit u gets Total/Units plus one if
  /// u < Total%Units). Every unit is floored at one call so each
  /// budgeted unit can make progress; with more units than budget the
  /// hard total is therefore max(Total, Units), not Total.
  static BudgetLedger carveTotal(uint64_t Total, size_t Units) {
    BudgetLedger L;
    L.Limited = true;
    L.Base = Units ? Total / Units : Total;
    L.Remainder = Units ? Total % Units : 0;
    return L;
  }

  /// Gives every work unit the same fixed \p Quota
  /// (SynthOptions::UnitCheckCalls): the budget bounds each unit
  /// directly and the hard total is Quota times the number of units.
  static BudgetLedger perUnit(uint64_t Quota) {
    BudgetLedger L;
    L.Limited = true;
    L.Base = Quota;
    L.Remainder = 0;
    return L;
  }

  /// True when accounts are finite — the search's deterministic budget
  /// mode keys off this.
  bool limited() const { return Limited; }

  /// The quota unit \p Unit may spend.
  uint64_t unitQuota(size_t Unit) const {
    if (!Limited)
      return 0;
    return std::max<uint64_t>(1, Base + (Unit < Remainder ? 1 : 0));
  }

  /// Opens the account for unit \p Unit.
  BudgetAccount openAccount(size_t Unit) const {
    return Limited ? BudgetAccount(unitQuota(Unit)) : BudgetAccount();
  }

private:
  bool Limited = false;
  uint64_t Base = 0;
  uint64_t Remainder = 0;
};

} // namespace netupd

#endif // NETUPD_SUPPORT_BUDGET_H
