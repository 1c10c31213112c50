//===- Runner.h - Suite execution harness -----------------------*- C++-*-===//
///
/// \file
/// Runs benchmarks under one or more algorithms with a per-(benchmark,
/// algorithm) deadline and collects the results the table/figure generators
/// consume. All knobs live in a SolverConfig (core/SynthesisTask.h); the
/// environment (SE2GIS_TIMEOUT / SE2GIS_TIMEOUT_MS, SE2GIS_FILTER,
/// SE2GIS_JOBS, SE2GIS_SEED, SE2GIS_PERF_JSON) is only read through
/// SolverConfig::fromEnv.
///
/// (Benchmark, algorithm) pairs execute on a shared thread pool (every
/// SmtQuery runs on its worker's thread-local Z3 session — or a private
/// context when sessions are off — so runs are isolated); each pair runs
/// as one SynthesisTask under its own deadline, and a timed-out run comes
/// back as a Timeout verdict with partial stats — never a poisoned worker.
/// Results always come back in registry order — identical to the
/// sequential runner's — and Jobs=1 takes the sequential code path
/// bit-for-bit. A perf-counter JSON summary of the sweep can be written
/// via Config.PerfJsonPath (schema in DESIGN.md).
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_SUITE_RUNNER_H
#define SE2GIS_SUITE_RUNNER_H

#include "core/SynthesisTask.h"
#include "suite/Benchmarks.h"

#include <iosfwd>

namespace se2gis {

/// One (benchmark, algorithm) execution.
struct SuiteRecord {
  const BenchmarkDef *Def = nullptr;
  AlgorithmKind Algorithm = AlgorithmKind::SE2GIS;
  Outcome Result;
};

/// Execution options for a suite sweep: which algorithms over which half
/// of the registry, plus the shared SolverConfig every task runs under.
struct SuiteOptions {
  std::vector<AlgorithmKind> Algorithms = {AlgorithmKind::SE2GIS};
  /// Budgets, parallelism, filter, seed, perf output (the Config.Filter
  /// substring selects benchmarks; Config.Jobs sets the worker count).
  SolverConfig Config;
  /// Restrict to the realizable / unrealizable half of the suite.
  bool SkipRealizable = false;
  bool SkipUnrealizable = false;
};

/// Builds options whose Config comes from the environment (see
/// SolverConfig::fromEnv); \p DefaultTimeoutMs applies when no timeout
/// variable is set.
SuiteOptions suiteOptionsFromEnv(std::int64_t DefaultTimeoutMs = 5000);

/// Runs the registered benchmarks under every requested algorithm. Records
/// are returned in registry order (per benchmark, in Algorithms order)
/// regardless of the number of workers.
std::vector<SuiteRecord> runSuite(const SuiteOptions &Opts);

/// Writes the suite perf summary as JSON: sweep metadata, the process-wide
/// perf-counter deltas (\p Delta, see support/PerfCounters.h), and one
/// entry per record. \p WallMs is the sweep's wall-clock time and \p Jobs
/// the worker count used.
void writeSuitePerfJson(std::ostream &OS,
                        const std::vector<SuiteRecord> &Records,
                        const PerfSnapshot &Delta, double WallMs,
                        unsigned Jobs);

/// \returns true when \p R counts as "solved" in the paper's sense: a
/// correct verdict within the timeout (realizable benchmarks must be found
/// realizable, unrealizable ones unrealizable).
bool isSolved(const SuiteRecord &R);

//===----------------------------------------------------------------------===//
// Warm-start entry format (exposed for the cache tests)
//===----------------------------------------------------------------------===//

/// Key of a suite-level warm-start entry in the persistent "suite"
/// segment: benchmark ⊎ algorithm ⊎ every config knob that can change the
/// verdict or the solution, so a sweep under different budgets or
/// ablations never sees another sweep's entries.
Hash128 suiteWarmStartKey(const BenchmarkDef &Def, AlgorithmKind Algorithm,
                          const SolverConfig &Config);

/// Serializes a Realizable solution: one leaf-indexed body per unknown of
/// \p P in signature order. \returns "" when any body is not serializable.
std::string encodeSuiteSolution(const Problem &P, const UnknownBindings &Sol);

/// Parses an \c encodeSuiteSolution payload against the live problem's
/// signatures, minting fresh parameter variables. Total: malformed input,
/// signature drift, or a type mismatch all yield nullopt. A payload that
/// decodes is still only a *candidate* — the runner re-verifies it with
/// verifySolution before any reuse, which is what keeps persistent cache
/// entries untrusted.
std::optional<UnknownBindings> decodeSuiteSolution(const Problem &P,
                                                   const std::string &S);

} // namespace se2gis

#endif // SE2GIS_SUITE_RUNNER_H
