//===- SymbolicEval.h - Symbolic evaluation of recursive calls --*- C++-*-===//
///
/// \file
/// Normalizes terms by unfolding pattern-matching recursive functions on
/// constructor-headed arguments and inlining plain functions, interleaved
/// with algebraic simplification. Calls whose matched argument is a variable
/// (or otherwise stuck) are left in place; these are the partially bounded
/// residues that recursion elimination (core/RecursionElim) later replaces
/// with elimination variables.
///
/// Termination relies on the paper's assumptions (all recursion is
/// structural and terminating); a fuel counter guards against violations.
///
/// Within one \c eval, each distinct call (and each bound Unknown
/// application) is normalized once: a let-tuple over a recursive call
/// becomes several projections of the same call, which a plain tree walk
/// would unfold again per copy, exponentially in the depth of the shape.
/// A repeated call replays the fuel its first normalization took, so an
/// evaluation runs out of fuel exactly when the tree walk would.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_EVAL_SYMBOLICEVAL_H
#define SE2GIS_EVAL_SYMBOLICEVAL_H

#include "ast/Term.h"
#include "eval/Interp.h"
#include "lang/Program.h"

#include <cstdint>
#include <unordered_map>

namespace se2gis {

/// Symbolically evaluates terms against a program's function definitions.
class SymbolicEvaluator {
public:
  explicit SymbolicEvaluator(const Program &Prog, size_t MaxSteps = 200000)
      : Prog(Prog), MaxSteps(MaxSteps) {}

  /// Inlines Unknown applications using \p B while evaluating (used to
  /// verify synthesized solutions against the original specification).
  void bindUnknowns(const UnknownBindings *B) { Bindings = B; }

  /// Normalizes \p T: unfolds reducible calls, inlines plain functions,
  /// simplifies. Raises UserError if the fuel runs out.
  TermPtr eval(const TermPtr &T);

private:
  /// A call (or bound Unknown application) with normalized arguments, its
  /// normal form, and the norm steps its first normalization took.
  struct MemoEntry {
    TermPtr Node;
    TermPtr Result;
    size_t Steps;
  };
  using MemoTable = std::unordered_multimap<std::uint64_t, MemoEntry>;

  TermPtr norm(const TermPtr &T);
  TermPtr normCall(const TermPtr &Call);
  template <typename FnT> TermPtr memoized(const TermPtr &Node, FnT &&Compute);

  const Program &Prog;
  size_t MaxSteps;
  size_t Steps = 0;
  const UnknownBindings *Bindings = nullptr;
  /// Keyed by \c Term::hash, confirmed with \c termEquals; emptied when
  /// \c eval returns or throws.
  MemoTable Memo;
};

} // namespace se2gis

#endif // SE2GIS_EVAL_SYMBOLICEVAL_H
