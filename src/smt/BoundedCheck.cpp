//===- BoundedCheck.cpp ---------------------------------------------------===//

#include "smt/BoundedCheck.h"

#include "eval/Expand.h"
#include "eval/SymbolicEval.h"
#include "support/Diagnostics.h"
#include "support/PerfCounters.h"

#include <cassert>

using namespace se2gis;

ValuePtr BoundedWitness::lookupData(unsigned Id) const {
  for (const auto &[V, Val] : DataAssignments)
    if (V->Id == Id)
      return Val;
  return nullptr;
}

ValuePtr se2gis::concretizeShape(const TermPtr &Shape,
                                 const SmtModel &Scalars) {
  switch (Shape->getKind()) {
  case TermKind::Var: {
    if (ValuePtr V = Scalars.lookup(Shape->getVar()->Id))
      return V;
    const TypePtr &Ty = Shape->getVar()->Ty;
    if (Ty->isInt())
      return Value::mkInt(0);
    if (Ty->isBool())
      return Value::mkBool(false);
    fatalError("cannot default a value of type " + Ty->str());
  }
  case TermKind::IntLit:
    return Value::mkInt(Shape->getIntValue());
  case TermKind::BoolLit:
    return Value::mkBool(Shape->getBoolValue());
  case TermKind::Tuple: {
    std::vector<ValuePtr> Elems;
    for (const TermPtr &A : Shape->getArgs())
      Elems.push_back(concretizeShape(A, Scalars));
    return Value::mkTuple(std::move(Elems));
  }
  case TermKind::Ctor: {
    std::vector<ValuePtr> Fields;
    for (const TermPtr &A : Shape->getArgs())
      Fields.push_back(concretizeShape(A, Scalars));
    return Value::mkData(Shape->getCtor(), std::move(Fields));
  }
  default:
    fatalError("shape term contains an unexpected node: " + Shape->str());
  }
}

namespace {

std::vector<VarPtr> dataVarsOf(const TermPtr &T) {
  std::vector<VarPtr> Out;
  for (const VarPtr &V : freeVars(T))
    if (V->Ty->isData())
      Out.push_back(V);
  return Out;
}

} // namespace

std::optional<BoundedWitness>
se2gis::boundedSat(const Program &Prog, const TermPtr &Formula,
                   const BoundedOptions &Opts) {
  // The unrolling enumeration issues one query per constructor combination;
  // keep them on one warm session.
  SmtSessionScope SessionScope;
  std::vector<VarPtr> DataVars = dataVarsOf(Formula);

  if (DataVars.empty()) {
    // No datatype variables does not mean scalar: the formula may still
    // apply recursive functions to ground constructor terms (e.g. the
    // invariant on a fully bounded shape, Iθ(C0)), which must be
    // evaluated away before the SMT translator sees them.
    SymbolicEvaluator SE0(Prog);
    SE0.bindUnknowns(Opts.Bindings);
    TermPtr Scalar;
    try {
      Scalar = SE0.eval(Formula);
    } catch (const UserError &) {
      return std::nullopt; // evaluation budget: treat as "none found"
    }
    if (Scalar->getKind() == TermKind::BoolLit && !Scalar->getBoolValue())
      return std::nullopt;
    SmtModel Model;
    if (quickCheck({Scalar}, Opts.PerQueryTimeoutMs, &Model,
                   &Opts.Budget) != SmtResult::Sat)
      return std::nullopt;
    BoundedWitness W;
    W.Scalars = std::move(Model);
    return W;
  }

  // Pre-generate candidate shapes per data variable. A non-recursive
  // datatype has fewer shapes than requested; use what exists.
  std::vector<std::vector<TermPtr>> Shapes(DataVars.size());
  for (size_t I = 0; I < DataVars.size(); ++I) {
    BoundedTermStream Stream(DataVars[I]->Ty->getDatatype());
    for (int K = 0; K < Opts.MaxShapesPerVar; ++K) {
      TermPtr S = Stream.next();
      if (!S)
        break;
      Shapes[I].push_back(std::move(S));
    }
  }

  SymbolicEvaluator SE(Prog);
  SE.bindUnknowns(Opts.Bindings);

  // Try assignments in order of total shape index (fair diagonal order).
  int MaxTotal = 0;
  for (const auto &S : Shapes)
    MaxTotal += static_cast<int>(S.size()) - 1;
  std::vector<int> Combo(DataVars.size(), 0);

  std::optional<BoundedWitness> Found;
  int Tried = 0;
  auto TryCombo = [&]() -> bool {
    if (Opts.Budget.expired() || ++Tried > Opts.MaxCombos)
      return true; // stop enumeration
    perfAdd(PerfCounter::BoundedInstantiations);
    Substitution Map;
    for (size_t I = 0; I < DataVars.size(); ++I)
      Map.emplace_back(DataVars[I]->Id, Shapes[I][Combo[I]]);
    TermPtr Bounded = substitute(Formula, Map);
    TermPtr Scalar;
    try {
      Scalar = SE.eval(Bounded);
    } catch (const UserError &) {
      return false; // evaluation budget; skip this instantiation
    }
    if (Scalar->getKind() == TermKind::BoolLit && !Scalar->getBoolValue())
      return false;
    SmtModel Model;
    if (quickCheck({Scalar}, Opts.PerQueryTimeoutMs, &Model,
                   &Opts.Budget) != SmtResult::Sat)
      return false;
    BoundedWitness W;
    for (size_t I = 0; I < DataVars.size(); ++I)
      W.DataAssignments.emplace_back(
          DataVars[I], concretizeShape(Shapes[I][Combo[I]], Model));
    W.Scalars = std::move(Model);
    Found = std::move(W);
    return true;
  };

  // Enumerate index vectors with a given sum.
  std::function<bool(size_t, int)> Walk = [&](size_t Pos,
                                              int Remaining) -> bool {
    if (Pos + 1 == Combo.size()) {
      if (Remaining >= static_cast<int>(Shapes[Pos].size()))
        return false;
      Combo[Pos] = Remaining;
      return TryCombo();
    }
    for (int K = 0;
         K <= Remaining && K < static_cast<int>(Shapes[Pos].size()); ++K) {
      Combo[Pos] = K;
      if (Walk(Pos + 1, Remaining - K))
        return true;
    }
    return false;
  };

  for (int Total = 0; Total <= MaxTotal; ++Total) {
    if (Walk(0, Total))
      break;
    if (Opts.Budget.expired())
      break;
  }
  return Found;
}
