//===- Session.cpp - Thread-session pool and incremental toggle ----------===//

#include "smt/Session.h"

#include "smt/Solver.h"

#include <atomic>
#include <memory>

using namespace se2gis;

namespace {

/// Process-wide toggle for the incremental session layer; see
/// setSmtIncremental. Off restores the fresh-context-per-query model.
std::atomic<bool> GSmtIncremental{true};

/// Process-wide Z3 random seed (0 = Z3 default); see setSmtRandomSeed.
std::atomic<unsigned> GSmtRandomSeed{0};

/// A session is retired after serving this many queries (when no
/// SmtSessionScope is open): it bounds the memory a long-running worker
/// thread can pin in one Z3 context without measurably hurting reuse.
constexpr std::uint64_t MaxQueriesPerSession = 512;

/// The per-thread session slot. Generation counts sessions created on this
/// thread — tests and callers observe recycling through it.
struct SessionSlot {
  std::unique_ptr<SmtSession> S;
  std::uint64_t Generation = 0;
};

SessionSlot &threadSlot() {
  thread_local SessionSlot Slot;
  return Slot;
}

/// Open SmtSessionScope nesting depth on this thread. While a scope is
/// open, the served-query retirement is deferred to scope exit so a tight
/// CEGIS/witness region keeps its warm solver mid-region; poisoning and
/// seed changes are never deferred.
thread_local unsigned GScopeDepth = 0;

bool overServedBudget(const SmtSession &S) {
  return S.QueriesServed >= MaxQueriesPerSession;
}

} // namespace

void se2gis::setSmtIncremental(bool Enabled) {
  GSmtIncremental.store(Enabled, std::memory_order_relaxed);
}

bool se2gis::smtIncrementalEnabled() {
  return GSmtIncremental.load(std::memory_order_relaxed);
}

void se2gis::setSmtRandomSeed(unsigned Seed) {
  GSmtRandomSeed.store(Seed, std::memory_order_relaxed);
}

unsigned se2gis::currentSmtRandomSeed() {
  return GSmtRandomSeed.load(std::memory_order_relaxed);
}

SmtSession *se2gis::acquireThreadSmtSession() {
  if (!smtIncrementalEnabled())
    return nullptr;
  SessionSlot &Slot = threadSlot();
  // One live query per session: a nested query would otherwise solve under
  // the outer query's assertions. The caller falls back to a private
  // fresh-context session.
  if (Slot.S && Slot.S->Busy)
    return nullptr;
  unsigned Seed = currentSmtRandomSeed();
  if (Slot.S &&
      (Slot.S->RecyclePending || Slot.S->SeedApplied != Seed ||
       (GScopeDepth == 0 && overServedBudget(*Slot.S))))
    Slot.S.reset();
  if (!Slot.S) {
    Slot.S = std::make_unique<SmtSession>(Seed);
    ++Slot.Generation;
  }
  return Slot.S.get();
}

void se2gis::resetThreadSmtSession() {
  SessionSlot &Slot = threadSlot();
  if (!Slot.S)
    return;
  // A busy session is owned by a live query whose Impl holds a raw pointer
  // into it; defer the drop to the next acquisition instead.
  if (Slot.S->Busy) {
    Slot.S->RecyclePending = true;
    return;
  }
  Slot.S.reset();
}

SmtSessionInfo se2gis::threadSmtSessionInfo() {
  SessionSlot &Slot = threadSlot();
  SmtSessionInfo Info;
  Info.Generation = Slot.Generation;
  if (Slot.S) {
    Info.Live = true;
    Info.Busy = Slot.S->Busy;
    Info.QueriesServed = Slot.S->QueriesServed;
    Info.Depth = Slot.S->Depth;
    Info.Rlimit = Slot.S->RlimitApplied;
    Info.ParamSets = Slot.S->ParamSets;
  }
  return Info;
}

SmtSessionScope::SmtSessionScope() { ++GScopeDepth; }

SmtSessionScope::~SmtSessionScope() {
  if (--GScopeDepth)
    return;
  SessionSlot &Slot = threadSlot();
  if (Slot.S && !Slot.S->Busy &&
      (Slot.S->RecyclePending || overServedBudget(*Slot.S)))
    Slot.S.reset();
}
