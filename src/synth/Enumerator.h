//===- Enumerator.h - Bottom-up PBE term enumeration ------------*- C++-*-===//
///
/// \file
/// Syntax-guided synthesis by example: enumerate grammar terms bottom-up in
/// size order, pruning observationally equivalent candidates (terms that
/// agree on every example input), until one matches the required outputs.
/// This is the `Synthesize` component used both to generalize the
/// input/output tables produced by the SGE solver's EUF models and to learn
/// invariant predicates from positive/negative examples (Algorithm 2).
///
/// A candidate is represented by its output vector over all examples at
/// once (the example-tuple semantics): pool entries hold the production,
/// child indices and the packed vector, a new candidate's vector is
/// computed from its children's vectors, and a term is built only for the
/// winner. See DESIGN.md "Enumerator value vectors".
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_SYNTH_ENUMERATOR_H
#define SE2GIS_SYNTH_ENUMERATOR_H

#include "eval/Interp.h"
#include "support/Stopwatch.h"
#include "synth/Grammar.h"

#include <cstddef>
#include <cstdint>
#include <optional>

namespace se2gis {

/// One synthesis example: values for the leaf variables and the expected
/// result.
struct PbeExample {
  Env Inputs;
  ValuePtr Output;
};

/// Evaluates a grammar term (operators + literals + variables only; no
/// calls) under \p E. Exposed for tests and the SGE verifier.
ValuePtr evalScalarTerm(const TermPtr &T, const Env &E);

/// The most heap one search's pools (entry vectors, build records and
/// dedup tables of both types) may hold. A search that would need more
/// stops as if its deadline had passed: no term, no negative memo entry.
inline constexpr std::size_t EnumPoolBytes = std::size_t(16) << 20;

/// Why a bottom-up search ended.
enum class EnumStop : unsigned char {
  Found,     ///< a candidate matched every example
  Exhausted, ///< every term up to the size bound was considered
  Deadline,  ///< the budget expired or the run was cancelled
  PoolFull,  ///< storing one more distinct candidate would pass
             ///< \c EnumPoolBytes
};

/// \returns "found" / "exhausted" / "deadline" / "pool_full".
const char *enumStopName(EnumStop S);

/// What one search did; also reported on its `enum.search` trace span.
struct EnumSearchStats {
  EnumStop Stop = EnumStop::Exhausted;
  /// The largest term size whose candidates the search started on.
  int SizeReached = 0;
  std::uint64_t Candidates = 0;
  /// Candidates dropped as observationally equivalent to an earlier one.
  std::uint64_t Pruned = 0;
};

/// Bottom-up enumerator over the Appendix-B.4 grammar.
class Enumerator {
public:
  /// \param Leaves scalar-typed leaf terms (parameter variables and
  ///        projections of tuple-typed parameters).
  Enumerator(const GrammarConfig &Config, std::vector<TermPtr> Leaves);

  /// Finds the smallest grammar term of type \p OutTy matching every
  /// example. Tuple outputs are synthesized component-wise. \returns nullopt
  /// if no term of size <= \p MaxSize fits (or the deadline expired).
  std::optional<TermPtr> synthesize(const TypePtr &OutTy,
                                    const std::vector<PbeExample> &Examples,
                                    int MaxSize, const Deadline &Budget);

  /// The statistics of the last search this enumerator ran (a PBE-memo hit
  /// runs none and leaves them unchanged).
  const EnumSearchStats &lastSearch() const { return LastSearch; }

private:
  /// Memo wrapper around \c enumerateScalar: consults the process-wide PBE
  /// memo (cache/SgeSolutionCache.h) when caching is enabled. Positive hits
  /// are re-validated against the examples; negative entries are recorded
  /// only for exhausted searches, never deadline or pool-bound exits.
  std::optional<TermPtr>
  synthesizeScalar(const TypePtr &OutTy,
                   const std::vector<PbeExample> &Examples, int MaxSize,
                   const Deadline &Budget);

  /// The bottom-up search itself. Fills \c LastSearch and adds its counts
  /// to the perf counters once, at the end.
  std::optional<TermPtr>
  enumerateScalar(const TypePtr &OutTy,
                  const std::vector<PbeExample> &Examples, int MaxSize,
                  const Deadline &Budget);

  GrammarConfig Config;
  std::vector<TermPtr> Leaves;
  EnumSearchStats LastSearch;
};

} // namespace se2gis

#endif // SE2GIS_SYNTH_ENUMERATOR_H
