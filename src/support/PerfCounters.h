//===- PerfCounters.h - Thread-safe performance telemetry ------*- C++-*-===//
///
/// \file
/// Process-wide, thread-safe performance counters and timers for the hot
/// primitives of the solver stack: SMT queries issued and their verdicts,
/// cumulative Z3 solve time, and the enumerator's candidate/prune volume.
/// The suite runner snapshots them around a sweep and dumps the deltas as a
/// JSON summary (see \c writePerfJson and the schema in DESIGN.md), which
/// is what the `BENCH_*.json` trajectory files are built from; the
/// algorithm drivers also attach a per-run delta to \c RunStats.
///
/// All mutation paths are relaxed atomics, so concurrent suite workers and
/// portfolio members simply aggregate — there is no per-thread state to
/// merge and no lock on the hot path.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_SUPPORT_PERFCOUNTERS_H
#define SE2GIS_SUPPORT_PERFCOUNTERS_H

#include "support/Histogram.h"

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace se2gis {

/// The counted events.
enum class PerfCounter : unsigned char {
  SmtQueries,     ///< checkSat calls issued
  SmtSat,         ///< ... that came back satisfiable
  SmtUnsat,       ///< ... that came back unsatisfiable
  SmtUnknown,     ///< ... where Z3 gave up (rlimit / incompleteness)
  SmtBudget,      ///< ... skipped or abandoned because the deadline expired
  SmtSessionReuse, ///< queries served by an already-warm thread session
  SmtSessionFresh, ///< queries that built a fresh Z3 context (new session,
                   ///< incremental off, or busy/poisoned fallback)
  SmtPush,         ///< solver push operations (base frames + user scopes)
  SmtPop,          ///< solver pop operations
  EnumCandidates, ///< grammar terms generated by the PBE enumerator
  EnumPruned,     ///< ... discarded as observationally equivalent
  CacheSmtHits,      ///< SMT query cache hits (Z3 call skipped)
  CacheSmtMisses,    ///< SMT query cache misses
  CacheSmtInserts,   ///< SMT query cache insertions
  CacheSmtEvictions, ///< SMT query cache entries evicted (FIFO, capacity)
  CachePbeHits,      ///< PBE enumeration memo hits
  CachePbeMisses,    ///< PBE enumeration memo misses
  CacheSgeHits,      ///< SGE solution cache hits (warm-started CEGIS)
  CacheSgeMisses,    ///< SGE solution cache misses
  CacheSuiteHits,    ///< suite-level warm-start hits (re-validated)
  CacheSuiteMisses,  ///< suite-level warm-start misses
  CacheBytesWritten, ///< bytes appended to the persistent store
  CacheBytesLoaded,  ///< bytes read back from the persistent store
  ChcQueries,   ///< fixedpoint queries issued by the CHC channel
  ChcUnsat,     ///< ... that proved `realizable` underivable (unrealizable)
  ChcDerivable, ///< ... where the instantiated system was derivable
                ///< (inconclusive: the channel escalates or gives up)
  ChcUnknown,   ///< ... where the engine gave up or was interrupted
  ChcClauses,   ///< Horn clauses asserted across CHC encodings
  ChcRaceWins,  ///< races whose winning verdict came from the CHC channel
  ChcSkippedNonscalar, ///< CHC encodings abandoned up front: an unknown's
                       ///< signature involves datatype args or a non-base
                       ///< return, outside the scalar fragment
  ChcSkippedEquations, ///< bounded-term equations the encoder dropped
                       ///< (eval fuel, non-canonical shapes, non-scalar
                       ///< subterms) — the channel's coverage gap vs. the
                       ///< witness loop, made visible
  GenCases,            ///< generator cases accepted (loaded through the
                       ///< real frontend)
  GenRejected,         ///< generator attempts rejected by the frontend
                       ///< (parse/elaborate/validate) and resampled
  GenShrinkAttempts,   ///< shrink candidates evaluated on a failing case
  GenShrinkAccepted,   ///< ... that kept the failure and were committed
  WitnessQueries,        ///< Algorithm-1 frame-pair queries
  BoundedInstantiations, ///< bounded-term instantiations evaluated
  SymbolicUnfoldings,    ///< recursion-scheme rule unfoldings performed
  EvalFuelExhausted,     ///< symbolic evaluations that ran out of fuel
  NumPerfCounters
};

/// The accumulated durations.
enum class PerfTimer : unsigned char {
  Z3SolveNs,   ///< wall time inside z3::solver::check
  SuiteRunNs,  ///< wall time inside runAlgorithm (summed over runs)
  NumPerfTimers
};

/// Latency distributions (log-bucketed, see support/Histogram.h): beyond
/// the cumulative timers above, these answer "what does a typical / tail
/// query cost", which a sum cannot. Quantiles land in the perf JSON as
/// <name>_p50_ms / _p90_ms / _p99_ms / _max_ms.
enum class PerfHistogram : unsigned char {
  SmtCheckNs,   ///< wall time of one SmtQuery::checkSat (incl. cache probe)
  SmtTranslateNs, ///< Term->Z3 translation time attributed per checkSat
                  ///< (delta since the query's previous check, so warm
                  ///< incremental re-checks show up as near-zero samples)
  EnumRoundNs,  ///< wall time of one PBE enumeration search
  CacheProbeNs, ///< wall time of one memoization-cache lookup
  NumPerfHistograms
};

/// \returns the stable snake_case name of \p C — the perf-JSON key, and
/// (prefixed `se2gis_`, suffixed `_total`) the Prometheus family name.
const char *perfCounterName(PerfCounter C);

/// \returns a one-line description of \p C (the Prometheus HELP text).
const char *perfCounterHelp(PerfCounter C);

/// \returns the stable snake_case prefix of \p H ("smt_check", ...).
const char *perfHistogramName(PerfHistogram H);

/// Increments \p C by \p Delta (thread-safe, relaxed).
void perfAdd(PerfCounter C, std::uint64_t Delta = 1);

/// Adds \p Ns nanoseconds to \p T (thread-safe, relaxed).
void perfAddTimeNs(PerfTimer T, std::uint64_t Ns);

/// Records one \p Ns latency sample into \p H (thread-safe, lock-free).
void perfRecordNs(PerfHistogram H, std::uint64_t Ns);

/// RAII helper: adds the scope's wall-clock duration to a timer.
class PerfTimerScope {
public:
  explicit PerfTimerScope(PerfTimer T)
      : T(T), Start(std::chrono::steady_clock::now()) {}
  ~PerfTimerScope() {
    auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
    perfAddTimeNs(T, static_cast<std::uint64_t>(Ns > 0 ? Ns : 0));
  }
  PerfTimerScope(const PerfTimerScope &) = delete;
  PerfTimerScope &operator=(const PerfTimerScope &) = delete;

private:
  PerfTimer T;
  std::chrono::steady_clock::time_point Start;
};

/// A point-in-time copy of every perf counter, timer, and histogram.
struct PerfSnapshot {
  std::uint64_t Counters[static_cast<size_t>(PerfCounter::NumPerfCounters)] =
      {};
  std::uint64_t TimersNs[static_cast<size_t>(PerfTimer::NumPerfTimers)] = {};
  HistogramSnapshot
      Hists[static_cast<size_t>(PerfHistogram::NumPerfHistograms)];

  std::uint64_t get(PerfCounter C) const {
    return Counters[static_cast<size_t>(C)];
  }
  std::uint64_t getNs(PerfTimer T) const {
    return TimersNs[static_cast<size_t>(T)];
  }
  double getMs(PerfTimer T) const { return getNs(T) / 1e6; }
  const HistogramSnapshot &hist(PerfHistogram H) const {
    return Hists[static_cast<size_t>(H)];
  }

  /// Componentwise difference (this - Earlier).
  PerfSnapshot since(const PerfSnapshot &Earlier) const;

  /// Compact one-line rendering for progress logs.
  std::string str() const;

  /// The CLI `telemetry:` rendering of the solver-primitive counts, e.g.
  /// "smt=120 pbe=4500 wit=8 bnd=300 unf=9000".
  std::string telemetryStr() const;
};

/// Reads the current values.
PerfSnapshot snapshotPerf();

/// Writes \p Delta as the "perf" JSON object used by the suite summary:
///   {"smt_queries":N,"smt_sat":N,"smt_unsat":N,"smt_unknown":N,
///    "smt_budget_expired":N,
///    "smt_session_reuse":N,"smt_session_fresh":N,"smt_push":N,"smt_pop":N,
///    "z3_time_ms":X,"run_time_ms":X,
///    "enum_candidates":N,"enum_pruned":N,
///    "cache_smt_hits":N,"cache_smt_misses":N,"cache_smt_inserts":N,
///    "cache_smt_evictions":N,"cache_pbe_hits":N,"cache_pbe_misses":N,
///    "cache_sge_hits":N,"cache_sge_misses":N,"cache_suite_hits":N,
///    "cache_suite_misses":N,"cache_bytes_written":N,"cache_bytes_loaded":N,
///    "chc_queries":N,"chc_unsat":N,"chc_derivable":N,"chc_unknown":N,
///    "chc_clauses":N,"chc_race_wins":N,
///    "chc_skipped_nonscalar":N,"chc_skipped_equations":N,
///    "gen_cases":N,"gen_rejected":N,
///    "gen_shrink_attempts":N,"gen_shrink_accepted":N,
///    "witness_queries":N,"bounded_instantiations":N,
///    "symbolic_unfoldings":N,"eval_fuel_exhausted":N,
///    ...and, per latency histogram H in {smt_check, smt_translate,
///    enum_round, cache_probe}: "H_count":N,
///    "H_p50_ms":X,"H_p90_ms":X,"H_p99_ms":X,"H_max_ms":X}
void writePerfJson(std::ostream &OS, const PerfSnapshot &Delta);

//===----------------------------------------------------------------------===//
// Per-run phase attribution (eval / SMT / enumeration / induction)
//===----------------------------------------------------------------------===//

/// The coarse phases a run's wall time decomposes into (the time dimension
/// of the paper's Table-1 step strings). Unlike the process-wide counters
/// above, phase time is accumulated *per thread*, so a run's delta is exact
/// even under a parallel sweep (each run executes on one worker thread).
enum class Phase : unsigned char {
  Eval,      ///< symbolic evaluation / normalization
  Smt,       ///< inside SmtQuery::checkSat (Z3 + cache probe)
  Enum,      ///< PBE enumeration searches
  Induction, ///< the structural-induction prover (minus its SMT queries)
  NumPhases
};

const char *phaseName(Phase P);

/// A copy of the calling thread's per-phase nanosecond totals.
struct PhaseSnapshot {
  std::uint64_t Ns[static_cast<size_t>(Phase::NumPhases)] = {};

  std::uint64_t getNs(Phase P) const { return Ns[static_cast<size_t>(P)]; }
  double getMs(Phase P) const { return getNs(P) / 1e6; }
  PhaseSnapshot since(const PhaseSnapshot &Earlier) const;
};

/// Reads the calling thread's accumulated phase times.
PhaseSnapshot phaseSnapshot();

/// RAII phase attribution with *exclusive* accounting: entering a nested
/// scope pauses the parent phase, so the per-phase times of one thread sum
/// to at most its wall time (an SMT query issued by the induction prover
/// counts as Smt, not twice). Scopes must nest strictly (guaranteed by
/// scoping); beyond a fixed nesting depth extra scopes attribute to the
/// innermost tracked phase.
/// Completed scopes whose exclusive-time slice is long enough (≥1ms) also
/// land in the always-on flight recorder as "phase" events, so a
/// post-mortem shows where a stuck run was spending its time.
class PhaseScope {
public:
  explicit PhaseScope(Phase P);
  ~PhaseScope();
  PhaseScope(const PhaseScope &) = delete;
  PhaseScope &operator=(const PhaseScope &) = delete;

private:
  bool Tracked;
  Phase P;
  std::uint64_t FlightStartNs; ///< 0 when the recorder is off
};

} // namespace se2gis

#endif // SE2GIS_SUPPORT_PERFCOUNTERS_H
