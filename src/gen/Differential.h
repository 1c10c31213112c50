//===- Differential.h - Differential fuzzing harness ------------*- C++-*-===//
///
/// \file
/// Runs one generated case across a configuration matrix — algorithms ×
/// unrealizability channels × incremental-vs-fresh SMT × cache modes
/// (cold-then-warm) — and classifies the joint result. With two
/// independent unrealizability oracles and several redundant execution
/// paths in the system, any disagreement between configurations on the
/// same problem is a real bug:
///
///  - \c Contradiction   — one config says Realizable, another Unrealizable.
///  - \c EvidenceMismatch — a conclusive verdict without provenance, or
///    provenance a config's channel selection makes impossible.
///  - \c Crash           — an exception escaped the solver stack. A
///    structured \c Failed outcome ("invariant inference diverged", ...)
///    is the solver giving up gracefully and counts as inconclusive.
///  - \c RoundTripFail   — the printed case does not reach a print∘parse
///    fixpoint (frontend bug).
///  - \c TimeoutOnly     — every config hit its budget; inconclusive, not
///    a failure (reported separately so coverage loss is visible).
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_GEN_DIFFERENTIAL_H
#define SE2GIS_GEN_DIFFERENTIAL_H

#include "core/Algorithms.h"
#include "cache/CacheConfig.h"
#include "gen/Generator.h"

#include <string>
#include <vector>

namespace se2gis {

/// One column of the differential matrix.
struct FuzzConfigSpec {
  std::string Label;
  AlgorithmKind Algo = AlgorithmKind::SE2GIS;
  UnrealMode Unreal = UnrealMode::Witness;
  bool SmtIncremental = true;
  CacheMode Cache = CacheMode::Off;
  /// Run the config twice against a reset cache (cold, then warm) and
  /// also compare the two runs against each other.
  bool WarmRepeat = false;
};

/// The shipped matrices: the small one covers SE2GIS/SEGIS+UC/Portfolio,
/// witness vs race, incremental on/off, and a mem-cache cold/warm pair;
/// \p Full adds the chc-only channel and a disk-cache cold/warm pair.
std::vector<FuzzConfigSpec> defaultMatrix(bool Full);

enum class FailureKind : unsigned char {
  None,
  Contradiction,
  EvidenceMismatch,
  Crash,
  RoundTripFail,
  TimeoutOnly
};

const char *failureKindName(FailureKind K);
/// True for the kinds that are bugs (everything but None / TimeoutOnly).
bool isFailure(FailureKind K);

/// What one config produced on one case.
struct ConfigResult {
  std::string Label;
  Verdict V = Verdict::Failed;
  VerdictSource Source = VerdictSource::None;
  std::string Detail;
  /// True when \c V is Failed because an exception escaped the solver,
  /// as opposed to a structured give-up returned as an Outcome.
  bool Exception = false;
  /// Provenance as printed: \c verdictSourceName(Source), except race-mode
  /// configs print "race" — which channel wins the wall-clock race is the
  /// one legitimately nondeterministic bit, and the driver's output must
  /// stay byte-for-byte reproducible.
  std::string SourceLabel;
};

/// The joint classification of one case across the matrix.
struct CaseReport {
  FailureKind Kind = FailureKind::None;
  std::string Note; ///< human-readable cause (which configs disagreed)
  std::vector<ConfigResult> Results;

  /// Canonical one-line rendering: `kind [label:verdict ...]` — stable,
  /// so the driver's output is byte-for-byte reproducible.
  std::string str() const;
};

/// Knobs of one differential evaluation.
struct DiffOptions {
  std::int64_t TimeoutMs = 2000; ///< per-config budget
  /// Base directory for disk-cache configs (a per-case subdirectory is
  /// created under it). Disk configs are skipped when empty.
  std::string CacheDirBase;
  /// Test-only: flip the first conclusive verdict before classifying, so
  /// the failure path (classification, shrinking, corpus write) can be
  /// exercised end-to-end on healthy code.
  bool InjectBug = false;
};

/// Runs \p C across \p Matrix under \p Opts. Opens a `fuzz.case` trace
/// span when tracing is enabled.
CaseReport runCaseDifferential(const GenCase &C,
                               const std::vector<FuzzConfigSpec> &Matrix,
                               const DiffOptions &Opts);

/// The same harness on raw DSL source (corpus replay): \p CaseIndex only
/// labels the trace span and the per-case disk-cache directory.
CaseReport runSourceDifferential(const std::string &Src, unsigned CaseIndex,
                                 const std::vector<FuzzConfigSpec> &Matrix,
                                 const DiffOptions &Opts);

} // namespace se2gis

#endif // SE2GIS_GEN_DIFFERENTIAL_H
