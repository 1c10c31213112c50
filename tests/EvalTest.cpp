//===- EvalTest.cpp - Interpreter and symbolic evaluator tests ------------===//

#include "eval/Interp.h"
#include "eval/SymbolicEval.h"
#include "frontend/Elaborate.h"
#include "frontend/Parser.h"
#include "support/Diagnostics.h"
#include "support/PerfCounters.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

using namespace se2gis;

namespace {

struct EvalFixture : public ::testing::Test {
  void SetUp() override {
    Prob = loadProblem(se2gis_tests::kMinSortedSrc);
    List = Prob.Theta;
    Elt = List->findConstructor("Elt");
    Cons = List->findConstructor("Cons");
  }

  ValuePtr list(std::initializer_list<long long> Xs) {
    std::vector<long long> V(Xs);
    ValuePtr R = Value::mkData(Elt, {Value::mkInt(V.back())});
    for (size_t I = V.size() - 1; I-- > 0;)
      R = Value::mkData(Cons, {Value::mkInt(V[I]), R});
    return R;
  }

  Problem Prob;
  const Datatype *List = nullptr;
  const ConstructorDecl *Elt = nullptr;
  const ConstructorDecl *Cons = nullptr;
};

TEST_F(EvalFixture, InterpreterComputesMin) {
  Interpreter I(*Prob.Prog);
  EXPECT_EQ(I.call("lmin", {list({5})})->getInt(), 5);
  EXPECT_EQ(I.call("lmin", {list({3, 1, 4})})->getInt(), 1);
  EXPECT_EQ(I.call("lmin", {list({-2, 7})})->getInt(), -2);
}

TEST_F(EvalFixture, InterpreterComputesInvariant) {
  Interpreter I(*Prob.Prog);
  EXPECT_TRUE(I.call("sorted", {list({1, 2, 3})})->getBool());
  EXPECT_FALSE(I.call("sorted", {list({2, 1})})->getBool());
  EXPECT_TRUE(I.call("sorted", {list({7})})->getBool());
}

TEST_F(EvalFixture, InterpreterEvaluatesUnknownBindings) {
  // mins with b1(a) = a, b2(a) = a computes head; on sorted lists = min.
  UnknownBindings B;
  VarPtr P1 = freshVar("p", Type::intTy());
  B["b1"] = UnknownDef{{P1}, mkVar(P1)};
  VarPtr P2 = freshVar("p", Type::intTy());
  B["b2"] = UnknownDef{{P2}, mkVar(P2)};
  Interpreter I(*Prob.Prog);
  I.bindUnknowns(&B);
  EXPECT_EQ(I.call("mins", {list({1, 2, 3})})->getInt(), 1);
}

TEST_F(EvalFixture, SymbolicEvalUnfoldsConcreteCalls) {
  SymbolicEvaluator SE(*Prob.Prog);
  VarPtr A = freshVar("a", Type::intTy());
  // lmin(Cons(a, Elt(7))) -> min(a, 7)
  TermPtr T = mkCall(
      "lmin", Type::intTy(),
      {mkCtor(Cons, {mkVar(A), mkCtor(Elt, {mkIntLit(7)})})});
  TermPtr R = SE.eval(T);
  EXPECT_EQ(R->str(), "min(" + A->Name + ", 7)");
}

TEST_F(EvalFixture, SymbolicEvalLeavesStuckCallsInPlace) {
  SymbolicEvaluator SE(*Prob.Prog);
  VarPtr A = freshVar("a", Type::intTy());
  VarPtr L = freshVar("l", Type::dataTy(List));
  // lmin(Cons(a, l)) -> min(a, lmin(l)): the tail call is stuck.
  TermPtr T = mkCall("lmin", Type::intTy(),
                     {mkCtor(Cons, {mkVar(A), mkVar(L)})});
  TermPtr R = SE.eval(T);
  ASSERT_EQ(R->getKind(), TermKind::Op);
  EXPECT_EQ(R->getOp(), OpKind::Min);
  EXPECT_EQ(R->getArg(1)->getKind(), TermKind::Call);
  EXPECT_EQ(R->getArg(1)->getCallee(), "lmin");
}

TEST_F(EvalFixture, SymbolicEvalDistributesOverIte) {
  SymbolicEvaluator SE(*Prob.Prog);
  VarPtr C = freshVar("c", Type::boolTy());
  TermPtr T = mkCall(
      "lmin", Type::intTy(),
      {mkIte(mkVar(C), mkCtor(Elt, {mkIntLit(1)}), mkCtor(Elt, {mkIntLit(2)}))});
  TermPtr R = SE.eval(T);
  // -> if c then 1 else 2
  ASSERT_EQ(R->getKind(), TermKind::Op);
  EXPECT_EQ(R->getOp(), OpKind::Ite);
  EXPECT_EQ(R->getArg(1)->str(), "1");
  EXPECT_EQ(R->getArg(2)->str(), "2");
}

TEST_F(EvalFixture, SymbolicEvalSimplifiesWhileUnfolding) {
  SymbolicEvaluator SE(*Prob.Prog);
  // sorted(Elt(5)) -> true
  TermPtr T = mkCall("sorted", Type::boolTy(),
                     {mkCtor(Elt, {mkIntLit(5)})});
  EXPECT_EQ(SE.eval(T)->str(), "true");
}

TEST(ValueTest, EqualityAndOrdering) {
  ValuePtr A = Value::mkInt(1), B = Value::mkInt(1), C = Value::mkInt(2);
  EXPECT_TRUE(valueEquals(A, B));
  EXPECT_FALSE(valueEquals(A, C));
  EXPECT_TRUE(valueLess(A, C));
  EXPECT_FALSE(valueLess(C, A));
  ValuePtr T1 = Value::mkTuple({A, C});
  ValuePtr T2 = Value::mkTuple({A, C});
  EXPECT_TRUE(valueEquals(T1, T2));
  EXPECT_EQ(T1->str(), "(1, 2)");
}

TEST(ValueTest, FuelGuardsNonTermination) {
  // A bogus scheme that recurses on the same value would spin; the fuel
  // guard must trip. We simulate with a plain function calling itself.
  auto Prog = std::make_shared<Program>();
  VarPtr X = namedVar("x", Type::intTy());
  Prog->addFunction(RecFunction::makePlain(
      "loop", {X}, mkCall("loop", Type::intTy(), {mkVar(X)})));
  Interpreter I(*Prog, /*MaxSteps=*/1000);
  EXPECT_THROW(I.call("loop", {Value::mkInt(0)}), UserError);
}

//===----------------------------------------------------------------------===//
// The per-evaluation memo and its fuel accounting
//===----------------------------------------------------------------------===//

/// A let-tuple over the recursive call, modelled on unreal/largest_diff's
/// `ld`: every level reads both components of `ld l`, so a tree walk with
/// no sharing unfolds the call on each tail twice per level.
const char *kDupCallSrc = R"(
type list = Nil | Cons of int * list

let rec ld = function
  | Nil -> (0, 0)
  | Cons (a, l) ->
    let mn, mx = ld l in
    (min a mn, max a mx)

let rec tld : int * int = function
  | Nil -> $g0
  | Cons (a, l) ->
    let mn, mx = tld l in
    $g1 a mx

synthesize tld equiv ld
)";

/// Cons(a1, Cons(a2, ... Base)) over fresh symbolic elements named a1..aN.
TermPtr symbolicList(const ConstructorDecl *Cons, TermPtr Base, int Depth) {
  for (int I = Depth; I >= 1; --I) {
    std::string Name = "a";
    Name += std::to_string(I);
    Base = mkCtor(Cons,
                  {mkVar(namedVar(Name, Type::intTy())), std::move(Base)});
  }
  return Base;
}

/// \returns true when \p T evaluates within \p MaxSteps steps.
bool evalsWithin(const Program &Prog, const TermPtr &T, size_t MaxSteps,
                 const UnknownBindings *B = nullptr) {
  SymbolicEvaluator SE(Prog, MaxSteps);
  SE.bindUnknowns(B);
  try {
    SE.eval(T);
    return true;
  } catch (const UserError &) {
    return false;
  }
}

std::uint64_t perfCount(PerfCounter C) { return snapshotPerf().get(C); }

struct MemoFixture : public ::testing::Test {
  void SetUp() override {
    Dup = loadProblem(kDupCallSrc);
    Nil = Dup.Theta->findConstructor("Nil");
    DupCons = Dup.Theta->findConstructor("Cons");
    MinSorted = loadProblem(se2gis_tests::kMinSortedSrc);
    Elt = MinSorted.Theta->findConstructor("Elt");
    Cons = MinSorted.Theta->findConstructor("Cons");
  }

  /// ld(Cons(a1, ... Nil)) over a depth-\p Depth symbolic list.
  TermPtr ldOf(int Depth) {
    return mkCall(Dup.Reference, Dup.RetTy,
                  {symbolicList(DupCons, mkCtor(Nil, {}), Depth)});
  }

  /// lmin(ite(c, Cons(b, L), Cons(d, L))) with L of depth 5: the ite is
  /// distributed and both branches reach the same lmin(L).
  TermPtr lminOverIte() {
    TermPtr Tail = symbolicList(Cons, mkCtor(Elt, {mkIntLit(0)}), 5);
    return mkCall(
        MinSorted.Reference, MinSorted.RetTy,
        {mkIte(mkVar(namedVar("c", Type::boolTy())),
               mkCtor(Cons, {mkVar(namedVar("b", Type::intTy())), Tail}),
               mkCtor(Cons, {mkVar(namedVar("d", Type::intTy())), Tail}))});
  }

  /// b1(p) = p, b2(p) = lmin(Cons(p, Elt(0))).
  UnknownBindings lminBindings() {
    UnknownBindings B;
    VarPtr P1 = namedVar("p", Type::intTy());
    B["b1"] = UnknownDef{{P1}, mkVar(P1)};
    VarPtr P2 = namedVar("p", Type::intTy());
    B["b2"] = UnknownDef{
        {P2},
        mkCall(MinSorted.Reference, MinSorted.RetTy,
               {mkCtor(Cons, {mkVar(P2), mkCtor(Elt, {mkIntLit(0)})})})};
    return B;
  }

  Problem Dup;
  const ConstructorDecl *Nil = nullptr;
  const ConstructorDecl *DupCons = nullptr;
  Problem MinSorted;
  const ConstructorDecl *Elt = nullptr;
  const ConstructorDecl *Cons = nullptr;
};

TEST_F(MemoFixture, DuplicatedCallUnfoldsOncePerLevel) {
  SymbolicEvaluator SE(*Dup.Prog);
  TermPtr T = ldOf(12);
  std::uint64_t Before = perfCount(PerfCounter::SymbolicUnfoldings);
  TermPtr R = SE.eval(T);
  // Recorded from the evaluator before the memo, which unfolded 8191 times.
  EXPECT_EQ(R->str(),
            "(min(a1, min(a2, min(a3, min(a4, min(a5, min(a6, min(a7, "
            "min(a8, min(a9, min(a10, min(a11, min(a12, 0)))))))))))), "
            "max(a1, max(a2, max(a3, max(a4, max(a5, max(a6, max(a7, "
            "max(a8, max(a9, max(a10, max(a11, max(a12, 0)))))))))))))");
  // One unfolding per list node, Nil included.
  EXPECT_EQ(perfCount(PerfCounter::SymbolicUnfoldings) - Before, 13u);
}

TEST_F(MemoFixture, FuelLimitMatchesTreeWalk) {
  // The smallest MaxSteps at which each term evaluates, recorded from the
  // evaluator before the memo: replayed steps must reproduce them exactly.
  UnknownBindings B = lminBindings();
  TermPtr L4 = symbolicList(Cons, mkCtor(Elt, {mkIntLit(0)}), 4);
  TermPtr B2 = mkUnknown("b2", Type::intTy(), {L4->getArg(0)});
  TermPtr WithUnknowns =
      mkAdd(mkCall(MinSorted.Target, MinSorted.RetTy, {L4}), mkAdd(B2, B2));
  struct Case {
    const Program &Prog;
    TermPtr T;
    const UnknownBindings *B;
    size_t MinSteps;
  } Cases[] = {
      {*Dup.Prog, ldOf(8), nullptr, 4579},
      {*MinSorted.Prog, lminOverIte(), nullptr, 185},
      {*MinSorted.Prog, WithUnknowns, &B, 52},
  };
  for (const Case &C : Cases) {
    EXPECT_TRUE(evalsWithin(C.Prog, C.T, C.MinSteps, C.B)) << C.T->str();
    EXPECT_FALSE(evalsWithin(C.Prog, C.T, C.MinSteps - 1, C.B)) << C.T->str();
  }
}

TEST_F(MemoFixture, MemoHitPastTheLimitThrows) {
  // ld(L) twice: the second call is a memo hit and the last thing
  // evaluated, so one step short of the total (2257, recorded from the
  // evaluator before the memo) makes the replay throw.
  TermPtr Call = ldOf(6);
  TermPtr T = mkAdd(mkProj(Call, 0), mkProj(Call, 1));
  EXPECT_TRUE(evalsWithin(*Dup.Prog, T, 2257));

  SymbolicEvaluator SE(*Dup.Prog, 2256);
  std::uint64_t Unfolded = perfCount(PerfCounter::SymbolicUnfoldings);
  std::uint64_t Exhausted = perfCount(PerfCounter::EvalFuelExhausted);
  EXPECT_THROW(SE.eval(T), UserError);
  EXPECT_EQ(perfCount(PerfCounter::EvalFuelExhausted) - Exhausted, 1u);
  // Only the first ld(L) was unfolded (7 list nodes); the hit replayed.
  EXPECT_EQ(perfCount(PerfCounter::SymbolicUnfoldings) - Unfolded, 7u);
}

TEST_F(MemoFixture, FreshStepPastTheLimitCountsExhaustion) {
  SymbolicEvaluator SE(*Dup.Prog, 10);
  std::uint64_t Exhausted = perfCount(PerfCounter::EvalFuelExhausted);
  EXPECT_THROW(SE.eval(ldOf(4)), UserError);
  EXPECT_EQ(perfCount(PerfCounter::EvalFuelExhausted) - Exhausted, 1u);
}

TEST_F(MemoFixture, RebindingUnknownsIsSeenByTheNextEval) {
  SymbolicEvaluator SE(*MinSorted.Prog);
  VarPtr X = namedVar("x", Type::intTy());
  // The same Unknown application, alone and under a call that inlines it.
  TermPtr Direct = mkUnknown("b2", Type::intTy(), {mkVar(X)});
  TermPtr ViaCall =
      mkCall(MinSorted.Target, MinSorted.RetTy,
             {mkCtor(Cons, {mkVar(X), mkCtor(Elt, {mkIntLit(3)})})});
  VarPtr P = namedVar("p", Type::intTy());
  UnknownBindings PlusOne, Doubled;
  PlusOne["b2"] = UnknownDef{{P}, mkAdd(mkVar(P), mkIntLit(1))};
  Doubled["b2"] = UnknownDef{{P}, mkAdd(mkVar(P), mkVar(P))};

  SE.bindUnknowns(&PlusOne);
  EXPECT_EQ(SE.eval(Direct)->str(), "x + 1");
  EXPECT_EQ(SE.eval(ViaCall)->str(), "x + 1");
  SE.bindUnknowns(&Doubled);
  EXPECT_EQ(SE.eval(Direct)->str(), "x + x");
  EXPECT_EQ(SE.eval(ViaCall)->str(), "x + x");
}

} // namespace
