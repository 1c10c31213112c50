//===- Witness.cpp --------------------------------------------------------===//

#include "core/Witness.h"

#include "ast/Simplify.h"
#include "support/Diagnostics.h"
#include "support/PerfCounters.h"

#include <cassert>

using namespace se2gis;

namespace {

TermPtr frameTerm(const TermPtr &T, std::vector<TermPtr> &Args) {
  // A maximal unknown-free subterm is captured as a hole, regardless of
  // whether it contains variables (see the paper's h'(0, z) example, where
  // the constant 0 is captured too).
  if (!containsUnknown(T)) {
    unsigned Index = static_cast<unsigned>(Args.size());
    Args.push_back(T);
    return mkHole(Index, T->getType());
  }
  bool Changed = false;
  std::vector<TermPtr> NewArgs;
  NewArgs.reserve(T->numArgs());
  for (const TermPtr &A : T->getArgs()) {
    TermPtr NA = frameTerm(A, Args);
    Changed |= NA.get() != A.get();
    NewArgs.push_back(std::move(NA));
  }
  if (!Changed)
    return T;
  switch (T->getKind()) {
  case TermKind::Op:
    return mkOp(T->getOp(), std::move(NewArgs));
  case TermKind::Tuple:
    return mkTuple(std::move(NewArgs));
  case TermKind::Proj:
    return mkProj(std::move(NewArgs[0]), T->getIndex());
  case TermKind::Ctor:
    return mkCtor(T->getCtor(), std::move(NewArgs));
  case TermKind::Call:
    return mkCall(T->getCallee(), T->getType(), std::move(NewArgs));
  case TermKind::Unknown:
    return mkUnknown(T->getCallee(), T->getType(), std::move(NewArgs));
  default:
    fatalError("leaf node with arguments");
  }
}

/// Renames every free variable of the given terms consistently.
Substitution renameFresh(const std::vector<TermPtr> &Terms,
                         std::vector<std::pair<VarPtr, VarPtr>> &Renaming) {
  Substitution Map;
  for (const TermPtr &T : Terms) {
    for (const VarPtr &V : freeVars(T)) {
      bool Known = false;
      for (const auto &[Old, New] : Renaming)
        Known |= Old->Id == V->Id;
      if (Known)
        continue;
      VarPtr Fresh = freshVar(V->Name + "_r", V->Ty);
      Renaming.emplace_back(V, Fresh);
      Map.emplace_back(V->Id, mkVar(Fresh));
    }
  }
  return Map;
}

} // namespace

Frame se2gis::computeFrame(const TermPtr &Lhs) {
  Frame Result;
  Result.F = frameTerm(Lhs, Result.Args);
  return Result;
}

std::optional<FunctionalWitness>
se2gis::findFunctionalWitness(const Sge &System, int PerQueryTimeoutMs,
                              const Deadline &Budget) {
  std::vector<Frame> Frames;
  Frames.reserve(System.Eqns.size());
  for (const SgeEquation &E : System.Eqns)
    Frames.push_back(computeFrame(E.Lhs));

  // The whole sweep is one session region: every pair query below shares
  // the thread's warm solver.
  SmtSessionScope SessionScope;

  for (size_t I = 0; I < System.Eqns.size(); ++I) {
    // All partners of equation I share its guard; build that base lazily on
    // the first matching partner and stack each partner's delta (renamed
    // guard, disequality, argument equalities) in a push/pop frame on top.
    std::optional<SmtQuery> Q;
    for (size_t J = 0; J <= I; ++J) {
      if (Budget.expired())
        return std::nullopt;
      if (!termEquals(Frames[I].F, Frames[J].F))
        continue;
      // A frame that is a bare hole carries no unknown at all; no functional
      // constraint can be derived from it.
      if (Frames[I].F->getKind() == TermKind::Hole)
        continue;
      assert(Frames[I].Args.size() == Frames[J].Args.size() &&
             "equal frames must have equal arity");

      const SgeEquation &EI = System.Eqns[I];
      const SgeEquation &EJ = System.Eqns[J];

      // Rename equation J apart (required even when I == J).
      std::vector<std::pair<VarPtr, VarPtr>> Renaming;
      std::vector<TermPtr> JTerms = {EJ.Guard, EJ.Rhs};
      for (const TermPtr &A : Frames[J].Args)
        JTerms.push_back(A);
      Substitution Rename = renameFresh(JTerms, Renaming);

      if (!Q) {
        Q.emplace();
        Q->setDeadline(Budget);
        Q->add(EI.Guard);
      }
      Q->push();
      Q->add(substitute(EJ.Guard, Rename));
      Q->add(mkNot(mkEq(EI.Rhs, substitute(EJ.Rhs, Rename))));
      for (size_t K = 0; K < Frames[I].Args.size(); ++K)
        Q->add(mkEq(Frames[I].Args[K],
                    substitute(Frames[J].Args[K], Rename)));

      perfAdd(PerfCounter::WitnessQueries);
      SmtModel Model;
      bool IsSat = Q->checkSat(PerQueryTimeoutMs, &Model) == SmtResult::Sat;
      // Model readback is frame-scoped, so popping here (before the
      // projection) is safe: Model already holds exactly the base guard's
      // and this partner's variables.
      Q->pop();
      if (!IsSat)
        continue;

      // Project the joint model onto each equation's original variables.
      FunctionalWitness W;
      W.First.EqnIndex = I;
      for (const auto &[V, Val] : Model.assignments()) {
        bool IsRenamed = false;
        for (const auto &[Old, New] : Renaming)
          IsRenamed |= New->Id == V->Id;
        if (!IsRenamed)
          W.First.M.bind(V, Val);
      }
      W.Second.EqnIndex = J;
      for (const auto &[Old, New] : Renaming) {
        if (ValuePtr Val = Model.lookup(New->Id))
          W.Second.M.bind(Old, Val);
      }
      return W;
    }
  }
  return std::nullopt;
}
