//===- Enumerator2Test.cpp - More PBE enumerator coverage -----------------===//

#include "synth/Enumerator.h"

#include "ast/Simplify.h"
#include "cache/CacheConfig.h"
#include "cache/SgeSolutionCache.h"
#include "support/PerfCounters.h"

#include <functional>

#include <gtest/gtest.h>

using namespace se2gis;

namespace {

GrammarConfig fullGrammar() {
  GrammarConfig G;
  G.AllowMinMax = true;
  G.AllowMul = true;
  G.AllowAbs = true;
  G.AllowMod = true;
  G.Constants = {0, 1, 2};
  return G;
}

Env envOf(const std::vector<std::pair<VarPtr, long long>> &Vals) {
  Env E;
  for (const auto &[V, X] : Vals)
    E[V->Id] = Value::mkInt(X);
  return E;
}

TEST(Enumerator2Test, SynthesizesAbsoluteValue) {
  VarPtr A = freshVar("a", Type::intTy());
  Enumerator En(fullGrammar(), {mkVar(A)});
  std::vector<PbeExample> Ex;
  for (long long V : {-3, -1, 0, 2, 5})
    Ex.push_back(
        PbeExample{envOf({{A, V}}), Value::mkInt(V < 0 ? -V : V)});
  auto T = En.synthesize(Type::intTy(), Ex, 4, Deadline());
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(evalScalarTerm(*T, envOf({{A, -9}}))->getInt(), 9);
}

TEST(Enumerator2Test, SynthesizesParityPredicate) {
  VarPtr A = freshVar("a", Type::intTy());
  Enumerator En(fullGrammar(), {mkVar(A)});
  std::vector<PbeExample> Ex;
  for (long long V : {-2, -1, 0, 1, 2, 3})
    Ex.push_back(PbeExample{envOf({{A, V}}),
                            Value::mkBool(euclidMod(V, 2) == 1)});
  auto T = En.synthesize(Type::boolTy(), Ex, 6, Deadline());
  ASSERT_TRUE(T.has_value());
  EXPECT_TRUE(evalScalarTerm(*T, envOf({{A, 7}}))->getBool());
  EXPECT_FALSE(evalScalarTerm(*T, envOf({{A, 8}}))->getBool());
}

TEST(Enumerator2Test, SynthesizesGeneralProduct) {
  VarPtr A = freshVar("a", Type::intTy());
  VarPtr B = freshVar("b", Type::intTy());
  Enumerator En(fullGrammar(), {mkVar(A), mkVar(B)});
  std::vector<PbeExample> Ex;
  for (long long X : {-2, 1, 3})
    for (long long Y : {-1, 2})
      Ex.push_back(PbeExample{envOf({{A, X}, {B, Y}}), Value::mkInt(X * Y)});
  auto T = En.synthesize(Type::intTy(), Ex, 3, Deadline());
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(evalScalarTerm(*T, envOf({{A, 4}, {B, 5}}))->getInt(), 20);
}

TEST(Enumerator2Test, ConditionalAtLargerSize) {
  // if a > 0 then a else 1: needs ite + comparison + leaves.
  VarPtr A = freshVar("a", Type::intTy());
  Enumerator En(fullGrammar(), {mkVar(A)});
  std::vector<PbeExample> Ex;
  for (long long V : {-5, -1, 0, 2, 7})
    Ex.push_back(PbeExample{envOf({{A, V}}), Value::mkInt(V > 0 ? V : 1)});
  auto T = En.synthesize(Type::intTy(), Ex, 7, Deadline());
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(evalScalarTerm(*T, envOf({{A, -3}}))->getInt(), 1);
  EXPECT_EQ(evalScalarTerm(*T, envOf({{A, 3}}))->getInt(), 3);
}

TEST(Enumerator2Test, TupleParameterProjections) {
  // Leaves include projections of a tuple parameter.
  TypePtr Pair = Type::tupleTy({Type::intTy(), Type::intTy()});
  VarPtr P = freshVar("p", Pair);
  Enumerator En(fullGrammar(), {mkProj(mkVar(P), 0), mkProj(mkVar(P), 1)});
  std::vector<PbeExample> Ex;
  for (long long X : {1, 4})
    for (long long Y : {2, 9}) {
      Env E;
      E[P->Id] = Value::mkTuple({Value::mkInt(X), Value::mkInt(Y)});
      Ex.push_back(PbeExample{E, Value::mkInt(X + Y)});
    }
  auto T = En.synthesize(Type::intTy(), Ex, 3, Deadline());
  ASSERT_TRUE(T.has_value());
}

TEST(Enumerator2Test, ExpiredDeadlineReturnsNothing) {
  VarPtr A = freshVar("a", Type::intTy());
  Enumerator En(fullGrammar(), {mkVar(A)});
  std::vector<PbeExample> Ex;
  Ex.push_back(PbeExample{envOf({{A, 1}}), Value::mkInt(77)});
  // A cancelled run counts as expired. (A zero budget would not do:
  // Deadline::afterMs treats non-positive budgets as unlimited.)
  Deadline Expired;
  CancellationToken Tok = CancellationToken::create();
  Tok.requestCancel();
  Expired.setToken(Tok);
  // Size-1 candidates are still tried; the unreachable output forces the
  // loop into the (expired) growth phase.
  EXPECT_FALSE(En.synthesize(Type::intTy(), Ex, 9, Expired).has_value());
  EXPECT_EQ(En.lastSearch().Stop, EnumStop::Deadline);
  EXPECT_EQ(En.lastSearch().SizeReached, 1);
}

TEST(Enumerator2Test, ObservationalEquivalencePrunes) {
  // With a single example, many terms collapse to the same signature; the
  // enumerator must still find some term quickly at a small size.
  VarPtr A = freshVar("a", Type::intTy());
  Enumerator En(fullGrammar(), {mkVar(A)});
  std::vector<PbeExample> Ex;
  Ex.push_back(PbeExample{envOf({{A, 2}}), Value::mkInt(4)});
  auto T = En.synthesize(Type::intTy(), Ex, 3, Deadline());
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(evalScalarTerm(*T, envOf({{A, 2}}))->getInt(), 4);
}

// --- Golden searches --------------------------------------------------===//
//
// Each case below pins the exact term a search returns and the exact number
// of candidates it considered and pruned. The values were recorded from the
// term-building enumerator that preceded the value-vector pool; since the
// pool keeps the size-then-grammar order and the sequence of considered
// candidates, any drift here means the search order changed.

GrammarConfig everyOperator() {
  GrammarConfig G;
  G.AllowMinMax = true;
  G.AllowMul = true;
  G.AllowDiv = true;
  G.AllowAbs = true;
  G.AllowMod = true;
  G.Constants = {0, 1, 2, 3};
  return G;
}

struct SearchDelta {
  std::uint64_t Candidates = 0;
  std::uint64_t Pruned = 0;
};

/// Runs one synthesis and reports the counter deltas it caused.
std::optional<TermPtr> searchCounting(Enumerator &En, const TypePtr &Ty,
                                      const std::vector<PbeExample> &Ex,
                                      int MaxSize, SearchDelta &D) {
  PerfSnapshot P0 = snapshotPerf();
  auto T = En.synthesize(Ty, Ex, MaxSize, Deadline());
  PerfSnapshot P = snapshotPerf().since(P0);
  D.Candidates = P.get(PerfCounter::EnumCandidates);
  D.Pruned = P.get(PerfCounter::EnumPruned);
  return T;
}

struct GoldenCase {
  const char *Name;
  bool BoolOut;
  std::function<long long(long long, long long)> F;
  int MaxSize;
  const char *Term;
  std::uint64_t Candidates;
  std::uint64_t Pruned;
  /// Search the base grammar (+, -, comparisons, boolean connectives,
  /// ite) instead of \c everyOperator().
  bool Lean = false;
};

TEST(Enumerator2Test, GoldenTermsOverEveryOperator) {
  VarPtr A = namedVar("a", Type::intTy());
  VarPtr B = namedVar("b", Type::intTy());
  std::vector<std::pair<long long, long long>> Inputs;
  for (long long X = -2; X <= 3; ++X)
    for (long long Y = -2; Y <= 3; ++Y)
      Inputs.push_back({X, Y});
  using LL = long long;
  std::vector<GoldenCase> Cases = {
      {"neg", false, [](LL X, LL) { return -X; }, 5, "-a", 17, 5},
      {"abs", false, [](LL X, LL Y) { return X > Y ? X - Y : Y - X; }, 5,
       "abs(a - b)", 450, 302},
      {"add", false, [](LL X, LL Y) { return X + 2 * Y; }, 5, "a + 2 * b",
       3575, 2666},
      {"sub", false, [](LL X, LL Y) { return Y - X - 1; }, 5, "b - (1 + a)",
       3872, 2817},
      {"min", false, [](LL X, LL Y) { return std::min(X, Y); }, 5,
       "min(a, b)", 296, 214},
      {"max", false, [](LL X, LL Y) { return std::max(X, Y) + 1; }, 5,
       "1 + max(a, b)", 2383, 1890},
      {"mul", false, [](LL X, LL Y) { return X * Y; }, 5, "a * b", 298, 214},
      {"div", false, [](LL X, LL) { return euclidDiv(X, 2); }, 5, "a / 2",
       271, 197},
      {"mod", false, [](LL X, LL) { return euclidMod(X, 3); }, 5, "a mod 3",
       282, 204},
      {"ite", false, [](LL X, LL Y) { return X > Y ? Y : 3; }, 7,
       "if a > b then b else 3", 32064, 26555},
      {"and_eq", true, [](LL X, LL Y) -> LL { return X == Y && X > 0; }, 7,
       "1 <= a && a = b", 4346, 3688, true},
      {"and_zero", true, [](LL X, LL Y) -> LL { return X == 0 && Y > 0; }, 7,
       "0 = a && 1 <= b", 4124, 3567, true},
      {"ite_max", false, [](LL X, LL Y) { return std::max(X, Y); }, 6,
       "if a > b then a else b", 2281, 2036, true},
      {"le_or", true, [](LL X, LL Y) -> LL { return X <= Y || X == 0; }, 7,
       "0 = a || a <= b", 120097, 94011},
      {"not_eq", true, [](LL X, LL Y) -> LL { return X != Y; }, 5,
       "not (a = b)", 499, 331},
      // Exhausts every size: no term of size <= 4 fits.
      {"none", false, [](LL X, LL Y) { return X * X * Y + 17; }, 4, "", 1280,
       1017},
  };
  for (const GoldenCase &C : Cases) {
    SCOPED_TRACE(C.Name);
    std::vector<PbeExample> Ex;
    for (auto [X, Y] : Inputs) {
      long long R = C.F(X, Y);
      Ex.push_back(PbeExample{envOf({{A, X}, {B, Y}}),
                              C.BoolOut ? Value::mkBool(R != 0)
                                        : Value::mkInt(R)});
    }
    GrammarConfig G = everyOperator();
    if (C.Lean)
      G = GrammarConfig{};
    Enumerator En(G, {mkVar(A), mkVar(B)});
    SearchDelta D;
    auto T = searchCounting(En, C.BoolOut ? Type::boolTy() : Type::intTy(),
                            Ex, C.MaxSize, D);
    EXPECT_EQ(T ? (*T)->str() : "", C.Term);
    EXPECT_EQ(D.Candidates, C.Candidates);
    EXPECT_EQ(D.Pruned, C.Pruned);
  }
}

TEST(Enumerator2Test, GoldenTupleOutputOverProjectionLeaves) {
  TypePtr Pair = Type::tupleTy({Type::intTy(), Type::intTy()});
  VarPtr P = namedVar("p", Pair);
  Enumerator En(everyOperator(), {mkProj(mkVar(P), 0), mkProj(mkVar(P), 1)});
  std::vector<PbeExample> Ex;
  for (auto [X, Y] : std::vector<std::pair<long long, long long>>{
           {1, 2}, {4, 9}, {-3, 5}, {6, 6}, {0, -2}}) {
    Env E;
    E[P->Id] = Value::mkTuple({Value::mkInt(X), Value::mkInt(Y)});
    Ex.push_back(PbeExample{
        E, Value::mkTuple({Value::mkInt(std::max(X, Y) - X),
                           Value::mkBool(X < Y)})});
  }
  SearchDelta D;
  auto T = searchCounting(
      En, Type::tupleTy({Type::intTy(), Type::boolTy()}), Ex, 6, D);
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ((*T)->str(), "(max(0, p.1 - p.0), p.1 > p.0)");
  // Both component searches together.
  EXPECT_EQ(D.Candidates, 2319u);
  EXPECT_EQ(D.Pruned, 1913u);
}

TEST(Enumerator2Test, GoldenLeafUnboundInOneExample) {
  VarPtr A = namedVar("a", Type::intTy());
  VarPtr B = namedVar("b", Type::intTy());
  Enumerator En(everyOperator(), {mkVar(A), mkVar(B)});
  std::vector<PbeExample> Ex;
  Ex.push_back(PbeExample{envOf({{A, 3}, {B, 1}}), Value::mkInt(7)});
  Ex.push_back(PbeExample{envOf({{A, -2}}), Value::mkInt(-3)});
  Ex.push_back(PbeExample{envOf({{A, 5}, {B, 0}}), Value::mkInt(11)});
  SearchDelta D;
  auto T = searchCounting(En, Type::intTy(), Ex, 5, D);
  // b is unbound in the second example: it is counted once as a candidate
  // and never used as a child.
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ((*T)->str(), "1 + 2 * a");
  EXPECT_EQ(D.Candidates, 1229u);
  EXPECT_EQ(D.Pruned, 1088u);
}

/// 64 distinct examples over (a, b) whose outputs no small term hits.
std::vector<PbeExample> unreachableExamples(const VarPtr &A, const VarPtr &B) {
  std::vector<PbeExample> Ex;
  for (long long I = 0; I < 64; ++I) {
    long long X = I % 8 - 3, Y = I / 8 - 4;
    Ex.push_back(PbeExample{envOf({{A, X}, {B, Y}}),
                            Value::mkInt(1000003 * I + 7919 * (I % 5))});
  }
  return Ex;
}

TEST(Enumerator2Test, SearchStatsDescribeTheStop) {
  VarPtr A = namedVar("a", Type::intTy());
  VarPtr B = namedVar("b", Type::intTy());
  Enumerator En(everyOperator(), {mkVar(A), mkVar(B)});
  std::vector<PbeExample> Ex;
  for (long long X : {-2, 0, 5})
    Ex.push_back(PbeExample{envOf({{A, X}, {B, 1}}), Value::mkInt(X - 1)});
  ASSERT_TRUE(En.synthesize(Type::intTy(), Ex, 5, Deadline()).has_value());
  EXPECT_EQ(En.lastSearch().Stop, EnumStop::Found);
  EXPECT_EQ(En.lastSearch().SizeReached, 3);
  EXPECT_STREQ(enumStopName(En.lastSearch().Stop), "found");

  std::vector<PbeExample> Far = unreachableExamples(A, B);
  EXPECT_FALSE(En.synthesize(Type::intTy(), Far, 3, Deadline()).has_value());
  EXPECT_EQ(En.lastSearch().Stop, EnumStop::Exhausted);
  EXPECT_EQ(En.lastSearch().SizeReached, 3);
  EXPECT_GT(En.lastSearch().Pruned, 0u);
  EXPECT_LT(En.lastSearch().Pruned, En.lastSearch().Candidates);
}

TEST(Enumerator2Test, FullPoolEndsTheSearchWithoutANegativeMemo) {
  VarPtr A = namedVar("a", Type::intTy());
  VarPtr B = namedVar("b", Type::intTy());
  std::vector<PbeExample> Ex = unreachableExamples(A, B);
  CacheSettings S;
  S.Mode = CacheMode::Mem;
  configureCache(S);
  pbeMemo().clear();

  // No deadline: only the pool bound can end this search early.
  Enumerator En(everyOperator(), {mkVar(A), mkVar(B)});
  EXPECT_FALSE(En.synthesize(Type::intTy(), Ex, 12, Deadline()).has_value());
  EnumSearchStats Full = En.lastSearch();
  EXPECT_EQ(Full.Stop, EnumStop::PoolFull);
  EXPECT_STREQ(enumStopName(Full.Stop), "pool_full");
  EXPECT_LT(Full.SizeReached, 12);
  // Every stored entry holds at least one 64-bit word.
  EXPECT_LT(Full.Candidates - Full.Pruned, EnumPoolBytes / 8);
  EXPECT_EQ(pbeMemo().size(), 0u);

  // The same search again is not answered from the memo: it runs and fills
  // the pool the same way.
  EXPECT_FALSE(En.synthesize(Type::intTy(), Ex, 12, Deadline()).has_value());
  EXPECT_EQ(En.lastSearch().Stop, EnumStop::PoolFull);
  EXPECT_EQ(En.lastSearch().Candidates, Full.Candidates);

  // Contrast: an exhausted search does record its definitive negative.
  EXPECT_FALSE(En.synthesize(Type::intTy(), Ex, 3, Deadline()).has_value());
  EXPECT_EQ(En.lastSearch().Stop, EnumStop::Exhausted);
  EXPECT_EQ(pbeMemo().size(), 1u);
  shutdownCache();
}

} // namespace
