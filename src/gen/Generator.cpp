//===- Generator.cpp - Typed benchmark generator --------------------------===//

#include "gen/Generator.h"

#include "frontend/Elaborate.h"
#include "frontend/Printer.h"
#include "gen/Rng.h"
#include "support/Diagnostics.h"
#include "support/PerfCounters.h"

#include <cassert>

using namespace se2gis;

namespace {

// Field naming inside scheme rules: int fields a, b, c; recursive fields
// l, r (mirroring the hand-written benchmarks' `| Cons (a, l) -> ...`).
const char *intFieldName(unsigned I) {
  static const char *Names[] = {"a", "b", "c"};
  assert(I < 3);
  return Names[I];
}

const char *recFieldName(unsigned J) {
  static const char *Names[] = {"l", "r"};
  assert(J < 2);
  return Names[J];
}

//===----------------------------------------------------------------------===//
// Expression sampling (well-typed by construction)
//===----------------------------------------------------------------------===//

/// What a rule body may mention: the rule's constructor shape plus the
/// problem-level knobs.
struct ExprCtx {
  unsigned IntFields = 0;
  unsigned RecFields = 0;
  bool HasExtraParam = false;
  bool RetBool = false; ///< type of a RecCall result
};

GenExpr mkConst(long long V) {
  GenExpr E;
  E.K = GenExpr::Kind::Const;
  E.IntVal = V;
  return E;
}

GenExpr mkBin(std::string Op, GenExpr L, GenExpr R) {
  GenExpr E;
  E.K = GenExpr::Kind::Bin;
  E.Op = std::move(Op);
  E.Kids.push_back(std::move(L));
  E.Kids.push_back(std::move(R));
  return E;
}

GenExpr sampleIntExpr(GenRng &R, const ExprCtx &Cx, unsigned Depth);
GenExpr sampleBoolExpr(GenRng &R, const ExprCtx &Cx, unsigned Depth);

GenExpr sampleIntLeaf(GenRng &R, const ExprCtx &Cx) {
  // Weighted pick among whatever the context offers; constants always
  // available as the fallback.
  for (unsigned Spin = 0; Spin < 4; ++Spin) {
    switch (R.below(4)) {
    case 0:
      if (Cx.IntFields) {
        GenExpr E;
        E.K = GenExpr::Kind::Field;
        E.Index = static_cast<unsigned>(R.below(Cx.IntFields));
        return E;
      }
      break;
    case 1:
      if (Cx.RecFields && !Cx.RetBool) {
        GenExpr E;
        E.K = GenExpr::Kind::RecCall;
        E.Index = static_cast<unsigned>(R.below(Cx.RecFields));
        return E;
      }
      break;
    case 2:
      if (Cx.HasExtraParam) {
        GenExpr E;
        E.K = GenExpr::Kind::ExtraParam;
        return E;
      }
      break;
    default:
      break;
    }
  }
  static const long long Consts[] = {0, 1, 2, 3, -1, -2};
  return mkConst(Consts[R.below(6)]);
}

GenExpr sampleIntExpr(GenRng &R, const ExprCtx &Cx, unsigned Depth) {
  if (Depth == 0 || R.chance(35))
    return sampleIntLeaf(R, Cx);
  if (R.chance(12)) {
    GenExpr E;
    E.K = GenExpr::Kind::Ite;
    E.Kids.push_back(sampleBoolExpr(R, Cx, Depth - 1));
    E.Kids.push_back(sampleIntExpr(R, Cx, Depth - 1));
    E.Kids.push_back(sampleIntExpr(R, Cx, Depth - 1));
    return E;
  }
  static const char *Ops[] = {"+", "+", "-", "min", "max"};
  return mkBin(Ops[R.below(5)], sampleIntExpr(R, Cx, Depth - 1),
               sampleIntExpr(R, Cx, Depth - 1));
}

GenExpr sampleBoolExpr(GenRng &R, const ExprCtx &Cx, unsigned Depth) {
  if (Depth == 0 || R.chance(25)) {
    if (Cx.RecFields && Cx.RetBool && R.chance(55)) {
      GenExpr E;
      E.K = GenExpr::Kind::RecCall;
      E.Index = static_cast<unsigned>(R.below(Cx.RecFields));
      return E;
    }
    // Comparisons are richer leaves than bare true/false; prefer them
    // whenever an int leaf exists to compare.
    if (R.chance(70)) {
      static const char *Cmp[] = {"=", "<", "<="};
      ExprCtx IntCx = Cx;
      IntCx.RetBool = Cx.RetBool; // RecCall stays bool-typed: exclude below
      GenExpr L = sampleIntLeaf(R, IntCx);
      GenExpr Rhs = sampleIntLeaf(R, IntCx);
      return mkBin(Cmp[R.below(3)], std::move(L), std::move(Rhs));
    }
    GenExpr E;
    E.K = GenExpr::Kind::BoolConst;
    E.BoolVal = R.chance(50);
    return E;
  }
  switch (R.below(3)) {
  case 0: {
    GenExpr E;
    E.K = GenExpr::Kind::Not;
    E.Kids.push_back(sampleBoolExpr(R, Cx, Depth - 1));
    return E;
  }
  case 1:
    return mkBin("&&", sampleBoolExpr(R, Cx, Depth - 1),
                 sampleBoolExpr(R, Cx, Depth - 1));
  default:
    return mkBin("||", sampleBoolExpr(R, Cx, Depth - 1),
                 sampleBoolExpr(R, Cx, Depth - 1));
  }
}

//===----------------------------------------------------------------------===//
// Lowering to the surface AST
//===----------------------------------------------------------------------===//

SynExprPtr mkSyn(SynExpr::Kind K) {
  auto E = std::make_unique<SynExpr>();
  E->K = K;
  return E;
}

SynExprPtr mkSynId(const std::string &Name) {
  auto E = mkSyn(SynExpr::Kind::Id);
  E->Name = Name;
  return E;
}

/// How a RecCall / ExtraParam lowers inside one binding's rules.
struct LowerCtx {
  std::string Callee;          ///< recursive calls target this binding
  bool CalleeTakesExtra = false; ///< ... and thread the extra param `x`
};

SynExprPtr lowerExpr(const GenExpr &E, const LowerCtx &Cx) {
  switch (E.K) {
  case GenExpr::Kind::Const: {
    auto S = mkSyn(SynExpr::Kind::IntLit);
    S->IntValue = E.IntVal;
    return S;
  }
  case GenExpr::Kind::BoolConst: {
    auto S = mkSyn(SynExpr::Kind::BoolLit);
    S->BoolValue = E.BoolVal;
    return S;
  }
  case GenExpr::Kind::Field:
    return mkSynId(intFieldName(E.Index));
  case GenExpr::Kind::ExtraParam:
    return mkSynId("x");
  case GenExpr::Kind::RecCall: {
    auto S = mkSyn(SynExpr::Kind::App);
    S->Name = Cx.Callee;
    if (Cx.CalleeTakesExtra)
      S->Args.push_back(mkSynId("x"));
    S->Args.push_back(mkSynId(recFieldName(E.Index)));
    return S;
  }
  case GenExpr::Kind::Bin: {
    if (E.Op == "min" || E.Op == "max") {
      auto S = mkSyn(SynExpr::Kind::App);
      S->Name = E.Op;
      S->Args.push_back(lowerExpr(E.Kids[0], Cx));
      S->Args.push_back(lowerExpr(E.Kids[1], Cx));
      return S;
    }
    auto S = mkSyn(SynExpr::Kind::Binary);
    S->Name = E.Op;
    S->Args.push_back(lowerExpr(E.Kids[0], Cx));
    S->Args.push_back(lowerExpr(E.Kids[1], Cx));
    return S;
  }
  case GenExpr::Kind::Not: {
    auto S = mkSyn(SynExpr::Kind::Unary);
    S->Name = "not";
    S->Args.push_back(lowerExpr(E.Kids[0], Cx));
    return S;
  }
  case GenExpr::Kind::Ite: {
    auto S = mkSyn(SynExpr::Kind::If);
    S->Args.push_back(lowerExpr(E.Kids[0], Cx));
    S->Args.push_back(lowerExpr(E.Kids[1], Cx));
    S->Args.push_back(lowerExpr(E.Kids[2], Cx));
    return S;
  }
  }
  return nullptr;
}

SynType namedType(const std::string &Name) {
  SynType T;
  T.K = SynType::Kind::Named;
  T.Name = Name;
  return T;
}

SynType baseType(bool Bool) {
  SynType T;
  T.K = Bool ? SynType::Kind::Bool : SynType::Kind::Int;
  return T;
}

/// `| C0`, `| C1 a`, `| C2 (a, l)` — field names in declaration order.
void setRulePattern(SynRule &R, const GenCtor &Ct) {
  R.CtorName = Ct.Name;
  for (unsigned I = 0; I < Ct.IntFields; ++I)
    R.FieldNames.push_back(intFieldName(I));
  for (unsigned J = 0; J < Ct.RecFields; ++J)
    R.FieldNames.push_back(recFieldName(J));
}

} // namespace

GenCase se2gis::sampleCase(uint64_t GenSeed, unsigned CaseIndex,
                           unsigned Attempt) {
  GenRng R(mixSeed(GenSeed, CaseIndex, Attempt));
  GenCase C;
  C.GenSeed = GenSeed;
  C.CaseIndex = CaseIndex;
  C.Attempt = Attempt;

  // --- The ADT: one base constructor, then 1-2 recursive ones.
  unsigned NumRec = R.chance(30) ? 2 : 1;
  for (unsigned I = 0; I <= NumRec; ++I) {
    GenCtor Ct;
    Ct.Name = "C";
    Ct.Name += std::to_string(I);
    if (I == 0) {
      Ct.IntFields = R.chance(40) ? 1 : 0;
      Ct.RecFields = 0;
    } else {
      Ct.IntFields = R.chance(75) ? 1 : (R.chance(40) ? 2 : 0);
      Ct.RecFields = R.chance(25) ? 2 : 1; // tree-shaped 25% of the time
    }
    C.Ctors.push_back(std::move(Ct));
  }

  C.RetBool = R.chance(20);
  C.HasExtraParam = R.chance(25);
  C.WithInvariant = R.chance(25);
  C.WithExplicitRepr = R.chance(20);

  // --- Reference bodies, one per constructor.
  for (const GenCtor &Ct : C.Ctors) {
    ExprCtx Cx;
    Cx.IntFields = Ct.IntFields;
    Cx.RecFields = Ct.RecFields;
    Cx.HasExtraParam = C.HasExtraParam;
    Cx.RetBool = C.RetBool;
    unsigned Depth = 1 + static_cast<unsigned>(R.below(2));
    C.RefBodies.push_back(C.RetBool ? sampleBoolExpr(R, Cx, Depth)
                                    : sampleIntExpr(R, Cx, Depth));
  }

  // --- Target skeleton: each rule's unknown gets a random subset of the
  // available data. Dropping something the reference needs is exactly how
  // natural unrealizable cases arise.
  for (const GenCtor &Ct : C.Ctors) {
    std::vector<GenArg> Args;
    for (unsigned I = 0; I < Ct.IntFields; ++I)
      if (R.chance(85))
        Args.push_back(GenArg{GenArg::Kind::Field, I});
    if (C.HasExtraParam && R.chance(85))
      Args.push_back(GenArg{GenArg::Kind::ExtraParam, 0});
    for (unsigned J = 0; J < Ct.RecFields; ++J)
      if (R.chance(85))
        Args.push_back(GenArg{GenArg::Kind::RecCall, J});
    C.TargetArgs.push_back(std::move(Args));
  }
  return C;
}

SynUnit se2gis::lowerCase(const GenCase &C) {
  SynUnit U;

  // type t = C0 [of int] | C1 of int * t | ...
  SynTypeDecl Decl;
  Decl.Name = "t";
  for (const GenCtor &Ct : C.Ctors) {
    SynCtor SC;
    SC.Name = Ct.Name;
    for (unsigned I = 0; I < Ct.IntFields; ++I)
      SC.Fields.push_back(baseType(false));
    for (unsigned J = 0; J < Ct.RecFields; ++J)
      SC.Fields.push_back(namedType("t"));
    Decl.Ctors.push_back(std::move(SC));
  }
  U.Types.push_back(std::move(Decl));

  auto addScheme = [&U](SynBinding B) {
    SynLetGroup G;
    G.Recursive = true;
    G.Bindings.push_back(std::move(B));
    U.LetGroups.push_back(std::move(G));
  };

  // let rec spec [(x : int)] : D = function | ...
  {
    SynBinding B;
    B.Name = "spec";
    B.IsScheme = true;
    if (C.HasExtraParam)
      B.Params.emplace_back("x", baseType(false));
    B.RetAnnot = std::make_unique<SynType>(baseType(C.RetBool));
    LowerCtx Cx{"spec", C.HasExtraParam};
    for (size_t I = 0; I < C.Ctors.size(); ++I) {
      SynRule Rl;
      setRulePattern(Rl, C.Ctors[I]);
      Rl.Body = lowerExpr(C.RefBodies[I], Cx);
      B.Rules.push_back(std::move(Rl));
    }
    addScheme(std::move(B));
  }

  // let rec inv : bool = function | C0 -> true | C1 (a, l) -> a >= 0 && inv l
  if (C.WithInvariant) {
    SynBinding B;
    B.Name = "inv";
    B.IsScheme = true;
    B.RetAnnot = std::make_unique<SynType>(baseType(true));
    for (const GenCtor &Ct : C.Ctors) {
      SynRule Rl;
      setRulePattern(Rl, Ct);
      SynExprPtr Body;
      auto conjoin = [&Body](SynExprPtr Next) {
        if (!Body) {
          Body = std::move(Next);
          return;
        }
        auto And = mkSyn(SynExpr::Kind::Binary);
        And->Name = "&&";
        And->Args.push_back(std::move(Body));
        And->Args.push_back(std::move(Next));
        Body = std::move(And);
      };
      for (unsigned I = 0; I < Ct.IntFields; ++I) {
        auto Ge = mkSyn(SynExpr::Kind::Binary);
        Ge->Name = ">=";
        Ge->Args.push_back(mkSynId(intFieldName(I)));
        Ge->Args.push_back(mkSyn(SynExpr::Kind::IntLit));
        conjoin(std::move(Ge));
      }
      for (unsigned J = 0; J < Ct.RecFields; ++J) {
        auto Call = mkSyn(SynExpr::Kind::App);
        Call->Name = "inv";
        Call->Args.push_back(mkSynId(recFieldName(J)));
        conjoin(std::move(Call));
      }
      if (!Body) {
        Body = mkSyn(SynExpr::Kind::BoolLit);
        Body->BoolValue = true;
      }
      Rl.Body = std::move(Body);
      B.Rules.push_back(std::move(Rl));
    }
    addScheme(std::move(B));
  }

  // let rec rep : t = function | C0 -> C0 | C1 (a, l) -> C1 (a, rep l)
  if (C.WithExplicitRepr) {
    SynBinding B;
    B.Name = "rep";
    B.IsScheme = true;
    B.RetAnnot = std::make_unique<SynType>(namedType("t"));
    for (const GenCtor &Ct : C.Ctors) {
      SynRule Rl;
      setRulePattern(Rl, Ct);
      auto App = mkSyn(SynExpr::Kind::App);
      App->Name = Ct.Name;
      App->BoolValue = true; // constructor application
      for (unsigned I = 0; I < Ct.IntFields; ++I)
        App->Args.push_back(mkSynId(intFieldName(I)));
      for (unsigned J = 0; J < Ct.RecFields; ++J) {
        auto Call = mkSyn(SynExpr::Kind::App);
        Call->Name = "rep";
        Call->Args.push_back(mkSynId(recFieldName(J)));
        App->Args.push_back(std::move(Call));
      }
      Rl.Body = std::move(App);
      B.Rules.push_back(std::move(Rl));
    }
    addScheme(std::move(B));
  }

  // let rec tgt [(x : int)] : D = function | C0 -> $f0 ... (annotated:
  // every rule mentions an unknown, so the return type is not inferable).
  {
    SynBinding B;
    B.Name = "tgt";
    B.IsScheme = true;
    if (C.HasExtraParam)
      B.Params.emplace_back("x", baseType(false));
    B.RetAnnot = std::make_unique<SynType>(baseType(C.RetBool));
    for (size_t I = 0; I < C.Ctors.size(); ++I) {
      SynRule Rl;
      setRulePattern(Rl, C.Ctors[I]);
      auto Unk = mkSyn(SynExpr::Kind::Unknown);
      Unk->Name = "f" + std::to_string(I);
      for (const GenArg &A : C.TargetArgs[I]) {
        switch (A.K) {
        case GenArg::Kind::Field:
          Unk->Args.push_back(mkSynId(intFieldName(A.Index)));
          break;
        case GenArg::Kind::ExtraParam:
          Unk->Args.push_back(mkSynId("x"));
          break;
        case GenArg::Kind::RecCall: {
          auto Call = mkSyn(SynExpr::Kind::App);
          Call->Name = "tgt";
          if (C.HasExtraParam)
            Call->Args.push_back(mkSynId("x"));
          Call->Args.push_back(mkSynId(recFieldName(A.Index)));
          Unk->Args.push_back(std::move(Call));
          break;
        }
        }
      }
      Rl.Body = std::move(Unk);
      B.Rules.push_back(std::move(Rl));
    }
    addScheme(std::move(B));
  }

  SynDirective D;
  D.Target = "tgt";
  D.Reference = "spec";
  if (C.WithExplicitRepr)
    D.Repr = "rep";
  if (C.WithInvariant)
    D.Invariant = "inv";
  U.Directives.push_back(std::move(D));
  return U;
}

std::string se2gis::caseSource(const GenCase &C) {
  return printUnit(lowerCase(C));
}

Problem se2gis::loadCase(const GenCase &C) {
  return loadProblem(caseSource(C));
}

bool se2gis::caseLoads(const GenCase &C) {
  try {
    loadCase(C);
    return true;
  } catch (const UserError &) {
    return false;
  }
}

std::optional<GenCase> se2gis::generateCase(uint64_t GenSeed,
                                            unsigned CaseIndex,
                                            unsigned MaxAttempts) {
  for (unsigned Attempt = 0; Attempt < MaxAttempts; ++Attempt) {
    GenCase C = sampleCase(GenSeed, CaseIndex, Attempt);
    if (caseLoads(C)) {
      perfAdd(PerfCounter::GenCases);
      return C;
    }
    perfAdd(PerfCounter::GenRejected);
  }
  return std::nullopt;
}
