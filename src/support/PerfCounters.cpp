//===- PerfCounters.cpp ---------------------------------------------------===//

#include "support/PerfCounters.h"

#include "support/FlightRecorder.h"
#include "support/Trace.h"

#include <atomic>
#include <ostream>
#include <sstream>

using namespace se2gis;

namespace {

std::atomic<std::uint64_t> &counterSlot(PerfCounter C) {
  static std::atomic<std::uint64_t>
      Slots[static_cast<size_t>(PerfCounter::NumPerfCounters)];
  return Slots[static_cast<size_t>(C)];
}

std::atomic<std::uint64_t> &timerSlot(PerfTimer T) {
  static std::atomic<std::uint64_t>
      Slots[static_cast<size_t>(PerfTimer::NumPerfTimers)];
  return Slots[static_cast<size_t>(T)];
}

LatencyHistogram &histogramSlot(PerfHistogram H) {
  static LatencyHistogram
      Slots[static_cast<size_t>(PerfHistogram::NumPerfHistograms)];
  return Slots[static_cast<size_t>(H)];
}

/// One row per counter, in enum order: the stable JSON/metrics name plus
/// its HELP text. Kept in a table (rather than a switch) so iterating all
/// counters for exposition is a plain loop.
struct CounterMeta {
  const char *Name;
  const char *Help;
};

constexpr CounterMeta GCounterMeta[static_cast<size_t>(
    PerfCounter::NumPerfCounters)] = {
    {"smt_queries", "checkSat calls issued"},
    {"smt_sat", "checkSat calls that came back satisfiable"},
    {"smt_unsat", "checkSat calls that came back unsatisfiable"},
    {"smt_unknown", "checkSat calls where Z3 gave up"},
    {"smt_budget_expired", "checkSat calls skipped or abandoned on deadline"},
    {"smt_session_reuse", "queries served by a warm incremental session"},
    {"smt_session_fresh", "queries that built a fresh Z3 context"},
    {"smt_push", "solver push operations"},
    {"smt_pop", "solver pop operations"},
    {"enum_candidates", "grammar terms generated by the PBE enumerator"},
    {"enum_pruned", "candidates discarded as observationally equivalent"},
    {"cache_smt_hits", "SMT query cache hits"},
    {"cache_smt_misses", "SMT query cache misses"},
    {"cache_smt_inserts", "SMT query cache insertions"},
    {"cache_smt_evictions", "SMT query cache FIFO evictions"},
    {"cache_pbe_hits", "PBE enumeration memo hits"},
    {"cache_pbe_misses", "PBE enumeration memo misses"},
    {"cache_sge_hits", "SGE solution cache hits"},
    {"cache_sge_misses", "SGE solution cache misses"},
    {"cache_suite_hits", "suite-level warm-start hits"},
    {"cache_suite_misses", "suite-level warm-start misses"},
    {"cache_bytes_written", "bytes appended to the persistent store"},
    {"cache_bytes_loaded", "bytes read back from the persistent store"},
    {"chc_queries", "fixedpoint queries issued by the CHC channel"},
    {"chc_unsat", "CHC queries proving realizable underivable"},
    {"chc_derivable", "CHC queries where the instantiation was derivable"},
    {"chc_unknown", "CHC queries where the engine gave up"},
    {"chc_clauses", "Horn clauses asserted across CHC encodings"},
    {"chc_race_wins", "races won by the CHC channel"},
    {"chc_skipped_nonscalar", "CHC encodings skipped on non-scalar signature"},
    {"chc_skipped_equations", "bounded-term equations the encoder dropped"},
    {"gen_cases", "generator cases accepted through the frontend"},
    {"gen_rejected", "generator attempts rejected and resampled"},
    {"gen_shrink_attempts", "shrink candidates evaluated"},
    {"gen_shrink_accepted", "shrink candidates committed"},
    {"witness_queries", "Algorithm-1 frame-pair witness queries"},
    {"bounded_instantiations", "bounded-term instantiations evaluated"},
    {"symbolic_unfoldings",
     "recursion-scheme rule unfoldings performed (a call repeated within "
     "one symbolic evaluation is unfolded once)"},
    {"eval_fuel_exhausted", "symbolic evaluations that ran out of fuel"},
};

constexpr const char *GHistName[static_cast<size_t>(
    PerfHistogram::NumPerfHistograms)] = {
    "smt_check",
    "smt_translate",
    "enum_round",
    "cache_probe",
};

} // namespace

const char *se2gis::perfCounterName(PerfCounter C) {
  return GCounterMeta[static_cast<size_t>(C)].Name;
}

const char *se2gis::perfCounterHelp(PerfCounter C) {
  return GCounterMeta[static_cast<size_t>(C)].Help;
}

const char *se2gis::perfHistogramName(PerfHistogram H) {
  return GHistName[static_cast<size_t>(H)];
}

void se2gis::perfAdd(PerfCounter C, std::uint64_t Delta) {
  counterSlot(C).fetch_add(Delta, std::memory_order_relaxed);
}

void se2gis::perfAddTimeNs(PerfTimer T, std::uint64_t Ns) {
  timerSlot(T).fetch_add(Ns, std::memory_order_relaxed);
}

void se2gis::perfRecordNs(PerfHistogram H, std::uint64_t Ns) {
  histogramSlot(H).recordNs(Ns);
}

PerfSnapshot se2gis::snapshotPerf() {
  PerfSnapshot S;
  for (size_t I = 0; I < static_cast<size_t>(PerfCounter::NumPerfCounters);
       ++I)
    S.Counters[I] =
        counterSlot(static_cast<PerfCounter>(I)).load(std::memory_order_relaxed);
  for (size_t I = 0; I < static_cast<size_t>(PerfTimer::NumPerfTimers); ++I)
    S.TimersNs[I] =
        timerSlot(static_cast<PerfTimer>(I)).load(std::memory_order_relaxed);
  for (size_t I = 0;
       I < static_cast<size_t>(PerfHistogram::NumPerfHistograms); ++I)
    S.Hists[I] = histogramSlot(static_cast<PerfHistogram>(I)).snapshot();
  return S;
}

PerfSnapshot PerfSnapshot::since(const PerfSnapshot &Earlier) const {
  PerfSnapshot D;
  for (size_t I = 0; I < static_cast<size_t>(PerfCounter::NumPerfCounters);
       ++I)
    D.Counters[I] = Counters[I] - Earlier.Counters[I];
  for (size_t I = 0; I < static_cast<size_t>(PerfTimer::NumPerfTimers); ++I)
    D.TimersNs[I] = TimersNs[I] - Earlier.TimersNs[I];
  for (size_t I = 0;
       I < static_cast<size_t>(PerfHistogram::NumPerfHistograms); ++I)
    D.Hists[I] = Hists[I].since(Earlier.Hists[I]);
  return D;
}

std::string PerfSnapshot::str() const {
  std::ostringstream OS;
  OS << "smt=" << get(PerfCounter::SmtQueries) << " (sat="
     << get(PerfCounter::SmtSat) << " unsat=" << get(PerfCounter::SmtUnsat)
     << " unknown=" << get(PerfCounter::SmtUnknown)
     << " budget=" << get(PerfCounter::SmtBudget) << ") z3_ms=";
  OS.precision(1);
  OS << std::fixed << getMs(PerfTimer::Z3SolveNs)
     << " enum=" << get(PerfCounter::EnumCandidates)
     << " pruned=" << get(PerfCounter::EnumPruned);
  if (std::uint64_t CacheTouches =
          get(PerfCounter::CacheSmtHits) + get(PerfCounter::CacheSmtMisses))
    OS << " cache_smt=" << get(PerfCounter::CacheSmtHits) << "/" << CacheTouches;
  if (std::uint64_t Sessions = get(PerfCounter::SmtSessionReuse) +
                               get(PerfCounter::SmtSessionFresh))
    OS << " smt_sessions=" << get(PerfCounter::SmtSessionReuse) << "/"
       << Sessions;
  if (std::uint64_t ChcQ = get(PerfCounter::ChcQueries))
    OS << " chc=" << ChcQ << " (unsat=" << get(PerfCounter::ChcUnsat)
       << " wins=" << get(PerfCounter::ChcRaceWins) << ")";
  if (const HistogramSnapshot &H = hist(PerfHistogram::SmtCheckNs); H.Count)
    OS << " smt_p50_ms=" << H.quantileMs(0.5)
       << " smt_p99_ms=" << H.quantileMs(0.99);
  return OS.str();
}

std::string PerfSnapshot::telemetryStr() const {
  std::ostringstream OS;
  OS << "smt=" << get(PerfCounter::SmtQueries)
     << " pbe=" << get(PerfCounter::EnumCandidates)
     << " wit=" << get(PerfCounter::WitnessQueries)
     << " bnd=" << get(PerfCounter::BoundedInstantiations)
     << " unf=" << get(PerfCounter::SymbolicUnfoldings);
  return OS.str();
}

namespace {

/// Appends the quantile keys for one histogram: <prefix>_count, _p50_ms,
/// _p90_ms, _p99_ms, _max_ms.
void writeHistJson(std::ostream &OS, const char *Prefix,
                   const HistogramSnapshot &H) {
  OS << ",\"" << Prefix << "_count\":" << H.Count << ",\"" << Prefix
     << "_p50_ms\":" << H.quantileMs(0.5) << ",\"" << Prefix
     << "_p90_ms\":" << H.quantileMs(0.9) << ",\"" << Prefix
     << "_p99_ms\":" << H.quantileMs(0.99) << ",\"" << Prefix
     << "_max_ms\":" << H.maxMs();
}

} // namespace

void se2gis::writePerfJson(std::ostream &OS, const PerfSnapshot &D) {
  // Counter keys come from the shared name table (also the Prometheus
  // family names); the historical key order interleaves the two timers
  // between the smt_* and enum_* counter groups.
  constexpr size_t FirstEnumIdx = static_cast<size_t>(PerfCounter::EnumCandidates);
  OS << "{";
  for (size_t I = 0; I < FirstEnumIdx; ++I)
    OS << (I ? ",\"" : "\"") << perfCounterName(static_cast<PerfCounter>(I))
       << "\":" << D.Counters[I];
  OS << ",\"z3_time_ms\":" << D.getMs(PerfTimer::Z3SolveNs)
     << ",\"run_time_ms\":" << D.getMs(PerfTimer::SuiteRunNs);
  for (size_t I = FirstEnumIdx;
       I < static_cast<size_t>(PerfCounter::NumPerfCounters); ++I)
    OS << ",\"" << perfCounterName(static_cast<PerfCounter>(I))
       << "\":" << D.Counters[I];
  for (size_t I = 0;
       I < static_cast<size_t>(PerfHistogram::NumPerfHistograms); ++I)
    writeHistJson(OS, perfHistogramName(static_cast<PerfHistogram>(I)),
                  D.Hists[I]);
  OS << "}";
}

//===----------------------------------------------------------------------===//
// Phase attribution
//===----------------------------------------------------------------------===//

namespace {

constexpr size_t NumPhases = static_cast<size_t>(Phase::NumPhases);

/// Per-thread phase state: accumulated totals plus the stack of live scopes.
/// Exclusive attribution: pushing a scope first charges the elapsed slice to
/// the previous top, popping charges the closing scope and restamps the
/// parent — so one thread's phase times never double-count nested scopes.
struct PhaseState {
  std::uint64_t TotalsNs[NumPhases] = {};

  static constexpr unsigned MaxDepth = 32;
  Phase Stack[MaxDepth];
  std::chrono::steady_clock::time_point LastStamp;
  unsigned Depth = 0;

  void chargeTop(std::chrono::steady_clock::time_point Now) {
    if (!Depth)
      return;
    auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Now - LastStamp)
                  .count();
    if (Ns > 0)
      TotalsNs[static_cast<size_t>(Stack[Depth - 1])] +=
          static_cast<std::uint64_t>(Ns);
  }

  bool push(Phase P) {
    auto Now = std::chrono::steady_clock::now();
    chargeTop(Now);
    if (Depth >= MaxDepth)
      return false; // overflow: time keeps flowing to the innermost tracked
    Stack[Depth++] = P;
    LastStamp = Now;
    return true;
  }

  void pop() {
    auto Now = std::chrono::steady_clock::now();
    chargeTop(Now);
    --Depth;
    LastStamp = Now;
  }
};

PhaseState &phaseState() {
  thread_local PhaseState S;
  return S;
}

} // namespace

const char *se2gis::phaseName(Phase P) {
  switch (P) {
  case Phase::Eval:
    return "eval";
  case Phase::Smt:
    return "smt";
  case Phase::Enum:
    return "enum";
  case Phase::Induction:
    return "induction";
  case Phase::NumPhases:
    break;
  }
  return "?";
}

PhaseSnapshot PhaseSnapshot::since(const PhaseSnapshot &Earlier) const {
  PhaseSnapshot D;
  for (size_t I = 0; I < NumPhases; ++I)
    D.Ns[I] = Ns[I] - Earlier.Ns[I];
  return D;
}

PhaseSnapshot se2gis::phaseSnapshot() {
  PhaseState &S = phaseState();
  // Fold in the running slice of any live scope so a mid-scope snapshot
  // (e.g. a deadline-expired run) still sees up-to-date totals.
  S.chargeTop(std::chrono::steady_clock::now());
  S.LastStamp = std::chrono::steady_clock::now();
  PhaseSnapshot Out;
  for (size_t I = 0; I < NumPhases; ++I)
    Out.Ns[I] = S.TotalsNs[I];
  return Out;
}

PhaseScope::PhaseScope(Phase P)
    : Tracked(phaseState().push(P)), P(P),
      FlightStartNs(flightEnabled() ? detail::traceNowNs() : 0) {}

PhaseScope::~PhaseScope() {
  if (Tracked)
    phaseState().pop();
  if (FlightStartNs) {
    // Only slices a human would look at (≥1ms): micro eval/probe scopes
    // would otherwise evict the spans a post-mortem actually needs.
    std::uint64_t DurNs = detail::traceNowNs() - FlightStartNs;
    if (DurNs >= 1000000)
      flightRecord(FlightKind::Phase, phaseName(P), FlightStartNs, DurNs);
  }
}
