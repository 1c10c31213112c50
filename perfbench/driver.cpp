//===- driver.cpp - Solve loop of the repo benchmark ----------------------===//
///
/// \file
/// Loads one workload's registry problems, solves them one at a time through
/// SynthesisTask::run under the program's default SolverConfig, re-checks
/// every Realizable solution with verifySolution outside the timed solve, and
/// writes one JSON object per line to stdout:
///
///   {"type":"setup",...}   set-up samples (Z3 start-up + loading)
///   {"type":"solve",...}   one per solve call: verdict, detail, evidence,
///                          steps, wall time, phases, perf-counter deltas
///   {"type":"trace",...}   (traced runs) the program's own trace export
///                          for the preceding solve, on one line
///   {"type":"end",...}     peak RSS and the run time
///
/// Every solve runs in this one process, in the order the seed gives, so
/// state that one solve leaves behind for the next (such as the global
/// variable counter, freshVar) shows up as verdicts that change with the
/// seed. A solve that crashes or hangs takes the whole run down; run.py
/// watches the process and fails the run. run.py starts two of these side by
/// side, each with a seed of its own, and pools their records.
///
/// run.py turns these records into the benchmark's metrics; the driver only
/// measures.
///
/// Usage:
///   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
///   perfbench_driver --workload NAME --setup-only 1
///       sets up, writes the setup record, and exits
///
//===----------------------------------------------------------------------===//

#include "core/SynthesisTask.h"
#include "core/Verify.h"
#include "service/Json.h"
#include "suite/Benchmarks.h"
#include "support/Diagnostics.h"
#include "support/PerfCounters.h"
#include "support/Stopwatch.h"
#include "support/Trace.h"

#include <z3++.h>

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace se2gis;

namespace {

/// A workload: which algorithm runs on which half of the registry. The
/// unrealizability channel is the program's default: the witness loop for
/// SE2GIS and SEGIS (the paper's configuration).
struct Workload {
  const char *Name;
  AlgorithmKind Algorithm;
  bool Realizable;
  bool Unrealizable;
  /// Name of the benchmark's span around SynthesisTask::run: under
  /// AlgorithmKind::CHC the task dispatches straight to runChcChannel.
  const char *SolveSpan;
};

const Workload Workloads[] = {
    {"se2gis_all", AlgorithmKind::SE2GIS, true, true, "bench.task_run"},
    {"segis_realizable", AlgorithmKind::SEGIS, true, false, "bench.task_run"},
    {"chc_unreal", AlgorithmKind::CHC, false, true, "bench.chc_channel"},
};

/// Trace buffer capacity per thread: one solve's spans must never be
/// dropped. The buffers are emptied after every solve.
constexpr std::size_t TraceCapacity = 1u << 21;

/// Solve calls a run holds at least: nearest-rank p90 of 100 samples leaves
/// 10 samples beyond it, the fewest the benchmark reports a percentile on.
constexpr std::size_t MinSolves = 100;

/// splitmix64: a fixed, documented generator so that one seed names the
/// same solve order on every platform and standard library.
std::uint64_t splitmix64(std::uint64_t &State) {
  std::uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Fisher-Yates permutation of 0..N-1 drawn from \p Seed.
std::vector<std::size_t> permutation(std::size_t N, std::uint64_t Seed) {
  std::vector<std::size_t> Order(N);
  for (std::size_t I = 0; I < N; ++I)
    Order[I] = I;
  std::uint64_t State = Seed;
  for (std::size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[splitmix64(State) % I]);
  return Order;
}

void z3Startup() {
  z3::context C;
  z3::solver S(C);
  z3::expr X = C.int_const("x");
  S.add(X > 0 && X < 2);
  if (S.check() != z3::sat)
    fatalError("z3 start-up probe was not satisfiable");
}

struct Loaded {
  const BenchmarkDef *Def;
  std::shared_ptr<const Problem> Prob;
};

std::vector<Loaded> loadWorkload(const Workload &W) {
  std::vector<Loaded> Out;
  for (const BenchmarkDef &Def : allBenchmarks()) {
    if (Def.ExpectRealizable ? !W.Realizable : !W.Unrealizable)
      continue;
    TraceSpan Span("bench.load_benchmark", "bench");
    Out.push_back(
        {&Def, std::make_shared<const Problem>(loadBenchmark(Def))});
  }
  return Out;
}

JsonValue num(double V) { return JsonValue::number(V); }
JsonValue num(std::uint64_t V) {
  return JsonValue::number(static_cast<std::int64_t>(V));
}

JsonValue perfJson(const PerfSnapshot &D) {
  JsonValue O = JsonValue::object();
  for (std::size_t I = 0;
       I < static_cast<std::size_t>(PerfCounter::NumPerfCounters); ++I)
    O.set(perfCounterName(static_cast<PerfCounter>(I)), num(D.Counters[I]));
  O.set("z3_ms", num(D.getMs(PerfTimer::Z3SolveNs)));
  return O;
}

JsonValue phasesJson(const PhaseSnapshot &D) {
  JsonValue O = JsonValue::object();
  for (std::size_t I = 0; I < static_cast<std::size_t>(Phase::NumPhases);
       ++I)
    O.set(phaseName(static_cast<Phase>(I)),
          num(D.getMs(static_cast<Phase>(I))));
  return O;
}

/// The solve record of \p L with outcome \p R.
JsonValue solveRecord(const Loaded &L, int Pass, const Outcome &R,
                      double WallMs, const PhaseSnapshot &Phases,
                      const PerfSnapshot &Perf, const std::string &Error) {
  JsonValue Rec = JsonValue::object();
  Rec.set("type", JsonValue::str("solve"));
  Rec.set("pass", num(static_cast<std::uint64_t>(Pass)));
  Rec.set("name", JsonValue::str(L.Def->Name));
  Rec.set("expect_realizable", JsonValue::boolean(L.Def->ExpectRealizable));
  Rec.set("wall_ms", num(WallMs));
  Rec.set("verdict", JsonValue::str(verdictName(R.V)));
  Rec.set("detail", JsonValue::str(R.Detail));
  Rec.set("evidence", JsonValue::str(R.Ev.str()));
  Rec.set("steps", JsonValue::str(R.Stats.Steps));
  Rec.set("refinements", num(static_cast<double>(R.Stats.Refinements)));
  Rec.set("coarsenings", num(static_cast<double>(R.Stats.Coarsenings)));
  Rec.set("invariants", num(static_cast<double>(R.Stats.ImageInvariants +
                                                R.Stats.DatatypeInvariants)));
  Rec.set("phases_ms", phasesJson(Phases));
  Rec.set("perf", perfJson(Perf));
  Rec.set("error", JsonValue::str(Error));
  return Rec;
}

/// Re-checks a Realizable solution outside the timed solve.
/// \returns "ok", "counterexample", or "expired".
const char *recheck(const Problem &P, const Outcome &R,
                    const SolverConfig &Config, double &Ms) {
  TraceSpan Span("bench.verify_solution", "bench");
  Stopwatch T;
  VerifyOptions VOpts;
  VOpts.Bounded = Config.Algo.Bounded;
  VOpts.Induction = Config.Algo.Induction;
  Deadline Budget = Deadline::afterMs(Config.Algo.TimeoutMs);
  VerifyResult VR = verifySolution(P, R.Solution, VOpts, Budget);
  Ms = T.elapsedMs();
  if (VR.Status == VerifyStatus::Counterexample)
    return "counterexample";
  return Budget.expired() ? "expired" : "ok";
}

/// Solves \p L and writes its output lines to stdout: the solve record and,
/// traced, the program's trace export of the solve.
void solveOne(const Loaded &L, const Workload &W, const SolverConfig &Config,
              int Pass, bool Traced) {
  Outcome R;
  std::string Error;
  double WallMs = 0;
  PerfSnapshot Before = snapshotPerf();
  PhaseSnapshot PhaseBefore = phaseSnapshot();
  try {
    SynthesisTask Task(L.Prob, W.Algorithm);
    Stopwatch T;
    {
      TraceSpan Span(W.SolveSpan, "bench");
      R = Task.run(Config);
    }
    WallMs = T.elapsedMs();
  } catch (const std::exception &E) {
    Error = E.what();
  }
  JsonValue Rec = solveRecord(L, Pass, R, WallMs,
                              phaseSnapshot().since(PhaseBefore),
                              snapshotPerf().since(Before), Error);
  if (Error.empty() && R.V == Verdict::Realizable) {
    double Ms = 0;
    try {
      Rec.set("recheck", JsonValue::str(recheck(*L.Prob, R, Config, Ms)));
    } catch (const std::exception &E) {
      Rec.set("error", JsonValue::str(std::string("re-check: ") + E.what()));
    }
    Rec.set("recheck_ms", num(Ms));
  }
  if (Traced)
    Rec.set("dropped_spans", num(traceDroppedEvents()));
  std::cout << Rec.dump() << '\n';
  if (Traced) {
    std::ostringstream OS;
    traceWriteJson(OS);
    traceReset();
    std::string T = OS.str();
    std::replace(T.begin(), T.end(), '\n', ' ');
    std::cout << "{\"type\":\"trace\",\"trace\":" << T << "}\n";
  }
  std::cout.flush();
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --seed N --seconds S --trace 0|1\n"
               "       perfbench_driver --workload NAME "
               "--setup-only 1\n",
               Msg);
  return 64;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName;
  std::uint64_t Seed = 0;
  double Seconds = 0;
  bool Traced = false;
  bool SetupOnly = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload")
      WorkloadName = Val;
    else if (Key == "--seed")
      Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      Seconds = std::atof(Val.c_str());
    else if (Key == "--trace")
      Traced = Val == "1";
    else if (Key == "--setup-only")
      SetupOnly = Val == "1";
    else
      return usage(("unknown argument " + Key).c_str());
  }
  const Workload *W = nullptr;
  for (const Workload &Cand : Workloads)
    if (WorkloadName == Cand.Name)
      W = &Cand;
  if (!W)
    return usage(("unknown workload '" + WorkloadName + "'").c_str());

  const SolverConfig Config; // the program's defaults, environment ignored

  // Set-up: Z3 start-up plus loading every problem of the workload.
  z3Startup();
  Stopwatch LoadClock;
  std::vector<Loaded> Problems = loadWorkload(*W);
  JsonValue Setup = JsonValue::object();
  Setup.set("type", JsonValue::str("setup"));
  Setup.set("load_ms", num(LoadClock.elapsedMs()));
  Setup.set("problems", num(static_cast<std::uint64_t>(Problems.size())));
  std::cout << Setup.dump() << std::endl;
  if (SetupOnly)
    return 0;
  if (Traced)
    traceConfigure("", TraceCapacity);

  // Solve whole passes in seed order while the next one is projected to end
  // within --seconds (always at least one), then top up from the next
  // pass's order until the run holds MinSolves solve calls, so that the
  // latency percentiles have enough samples beyond them.
  Stopwatch RunClock;
  std::size_t Solves = 0;
  for (int Pass = 0;; ++Pass) {
    // A pass that would end past --seconds only tops the run up.
    bool TopUp = Pass > 0 && RunClock.elapsedMs() * (Pass + 1) / Pass >
                                 Seconds * 1000;
    if (TopUp && Solves >= MinSolves)
      break;
    std::vector<std::size_t> Order =
        permutation(Problems.size(), Seed * 1000003ULL + Pass);
    for (std::size_t Index : Order) {
      if (TopUp && Solves >= MinSolves)
        break;
      solveOne(Problems[Index], *W, Config, Pass, Traced);
      ++Solves;
    }
  }

  struct rusage Self;
  std::memset(&Self, 0, sizeof(Self));
  getrusage(RUSAGE_SELF, &Self);
  JsonValue End = JsonValue::object();
  End.set("type", JsonValue::str("end"));
  End.set("peak_rss_kb", num(static_cast<double>(Self.ru_maxrss)));
  End.set("run_ms", num(RunClock.elapsedMs()));
  std::cout << End.dump() << '\n';
  return 0;
}
