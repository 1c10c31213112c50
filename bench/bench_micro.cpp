//===- bench_micro.cpp - Microbenchmarks of the core operations -----------===//
///
/// \file
/// Google-benchmark microbenchmarks of the primitive operations the SE²GIS
/// loops are built from: symbolic unfolding, recursion elimination, frame
/// computation, SGE construction, witness SMT queries, warm-session SMT
/// checks, and PBE enumeration.
/// These are ours (the paper reports end-to-end numbers only); they document
/// where the time goes.
///
//===----------------------------------------------------------------------===//

#include "core/Approximation.h"
#include "core/Witness.h"
#include "eval/SymbolicEval.h"
#include "frontend/Elaborate.h"
#include "smt/Solver.h"
#include "suite/Benchmarks.h"
#include "support/PerfCounters.h"
#include "synth/Enumerator.h"
#include "synth/Grammar.h"

#include <benchmark/benchmark.h>

#include <limits>

using namespace se2gis;

namespace {

const Problem &minSortedProblem() {
  static Problem P = loadBenchmark(*findBenchmark("sortedlist/min"));
  return P;
}

const Problem &parallelMpsProblem() {
  static Problem P = loadBenchmark(*findBenchmark("postcond/mps"));
  return P;
}

void BM_LoadProblem(benchmark::State &State) {
  const BenchmarkDef *Def = findBenchmark("sortedlist/min");
  for (auto _ : State)
    benchmark::DoNotOptimize(loadBenchmark(*Def));
}
BENCHMARK(BM_LoadProblem);

void BM_SymbolicUnfold(benchmark::State &State) {
  const Problem &P = minSortedProblem();
  SymbolicEvaluator SE(*P.Prog);
  const Datatype *List = P.Theta;
  const ConstructorDecl *Elt = List->findConstructor("Elt");
  const ConstructorDecl *Cons = List->findConstructor("Cons");
  // Build a depth-N bounded list and unfold lmin over it.
  TermPtr T = mkCtor(Elt, {mkIntLit(0)});
  for (int I = 0; I < State.range(0); ++I)
    T = mkCtor(Cons, {mkIntLit(I), T});
  TermPtr Call = mkCall(P.Reference, P.RetTy, {T});
  for (auto _ : State)
    benchmark::DoNotOptimize(SE.eval(Call));
  State.counters["evals"] = benchmark::Counter(
      static_cast<double>(State.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SymbolicUnfold)->Arg(4)->Arg(16)->Arg(64);

void BM_SymbolicUnfoldDuplicatedCall(benchmark::State &State) {
  // unreal/largest_diff's `let mn, mx, d = ld l in ...` reads the recursive
  // call four times per level: a depth-N list of symbolic elements costs
  // 4^N unfoldings without sharing, N + 1 with it. The fuel still charges
  // the 4^N tree walk, which passes the default limit from depth 8 on, so
  // it is lifted here to time the evaluation rather than the throw.
  static Problem P = loadBenchmark(*findBenchmark("unreal/largest_diff"));
  SymbolicEvaluator SE(*P.Prog, std::numeric_limits<size_t>::max());
  const ConstructorDecl *Nil = P.Theta->findConstructor("Nil");
  const ConstructorDecl *Cons = P.Theta->findConstructor("Cons");
  TermPtr T = mkCtor(Nil, {});
  for (int I = 0; I < State.range(0); ++I)
    T = mkCtor(Cons, {mkVar(freshVar("a", Type::intTy())), T});
  TermPtr Call = mkCall(P.Reference, P.RetTy, {T});
  for (auto _ : State)
    benchmark::DoNotOptimize(SE.eval(Call));
  State.counters["evals"] = benchmark::Counter(
      static_cast<double>(State.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SymbolicUnfoldDuplicatedCall)->Arg(4)->Arg(8)->Arg(12);

void BM_RecursionElimination(benchmark::State &State) {
  const Problem &P = minSortedProblem();
  RecursionEliminator Elim(P);
  const ConstructorDecl *Cons = P.Theta->findConstructor("Cons");
  TermPtr T = mkCtor(Cons, {mkVar(freshVar("a", Type::intTy())),
                            mkVar(freshVar("l", Type::dataTy(P.Theta)))});
  for (auto _ : State)
    benchmark::DoNotOptimize(Elim.eliminate(T));
  State.counters["eliminations"] = benchmark::Counter(
      static_cast<double>(State.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RecursionElimination);

void BM_BuildSge(benchmark::State &State) {
  const Problem &P = parallelMpsProblem();
  Approximation Approx(P);
  Approx.initialize();
  for (auto _ : State)
    benchmark::DoNotOptimize(Approx.buildSge());
}
BENCHMARK(BM_BuildSge);

void BM_ComputeFrame(benchmark::State &State) {
  // u1(max(x,0)) + u2(y): the §6 example.
  VarPtr X = freshVar("x", Type::intTy());
  VarPtr Y = freshVar("y", Type::intTy());
  TermPtr Lhs = mkAdd(
      mkUnknown("u1", Type::intTy(),
                {mkOp(OpKind::Max, {mkVar(X), mkIntLit(0)})}),
      mkUnknown("u2", Type::intTy(), {mkVar(Y)}));
  for (auto _ : State)
    benchmark::DoNotOptimize(computeFrame(Lhs));
}
BENCHMARK(BM_ComputeFrame);

void BM_WitnessQuery(benchmark::State &State) {
  VarPtr X = freshVar("x", Type::intTy());
  VarPtr Y = freshVar("y", Type::intTy());
  Sge System;
  System.Eqns.push_back(SgeEquation{
      mkTrue(),
      mkAdd(mkUnknown("h1", Type::intTy(),
                      {mkOp(OpKind::Max, {mkVar(X), mkIntLit(0)})}),
            mkUnknown("h2", Type::intTy(), {mkVar(Y)})),
      mkOp(OpKind::Max, {mkAdd(mkVar(X), mkVar(Y)), mkIntLit(0)}), 0});
  for (auto _ : State)
    benchmark::DoNotOptimize(
        findFunctionalWitness(System, 1000, Deadline()));
}
BENCHMARK(BM_WitnessQuery);

void BM_SmtWarmQuery(benchmark::State &State) {
  // The fixed per-query cost of the SMT layer: one small assertion and one
  // check on the thread's warm session, the shape of most SGE/witness
  // queries. The scope keeps the session alive across iterations.
  VarPtr X = freshVar("x", Type::intTy());
  TermPtr A = mkOp(OpKind::Gt, {mkVar(X), mkIntLit(3)});
  SmtSessionScope Scope;
  for (auto _ : State) {
    SmtQuery Q;
    Q.add(A);
    benchmark::DoNotOptimize(Q.checkSat(2000));
  }
  State.counters["queries"] = benchmark::Counter(
      static_cast<double>(State.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SmtWarmQuery);

void BM_PbeEnumeration(benchmark::State &State) {
  // Outputs no term reaches, so every iteration exhausts each size up to
  // the bound: the argument scales the work instead of an early stop.
  GrammarConfig G;
  G.AllowMinMax = true;
  VarPtr A = freshVar("a", Type::intTy());
  VarPtr B = freshVar("b", Type::intTy());
  std::vector<PbeExample> Ex;
  for (long long V = -2; V <= 2; ++V)
    Ex.push_back(PbeExample{
        {{A->Id, Value::mkInt(V)}, {B->Id, Value::mkInt(V * V - 3)}},
        Value::mkInt(1000003 * V + 17)});
  std::uint64_t Before = snapshotPerf().get(PerfCounter::EnumCandidates);
  for (auto _ : State) {
    Enumerator En(G, {mkVar(A), mkVar(B)});
    benchmark::DoNotOptimize(
        En.synthesize(Type::intTy(), Ex, State.range(0), Deadline()));
  }
  State.counters["candidates"] = benchmark::Counter(
      static_cast<double>(snapshotPerf().get(PerfCounter::EnumCandidates) -
                          Before),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PbeEnumeration)->Arg(3)->Arg(5)->Arg(7);

} // namespace

BENCHMARK_MAIN();
