//===- FixedpointSolver.cpp -----------------------------------------------===//

#include "chc/FixedpointSolver.h"

#include "smt/Solver.h"
#include "support/PerfCounters.h"
#include "support/Stopwatch.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

using namespace se2gis;

FixedpointSolver::FixedpointSolver() : Fp(Ctx) {}

void FixedpointSolver::registerRelation(const z3::func_decl &D) {
  z3::func_decl Decl = D;
  Fp.register_relation(Decl);
}

void FixedpointSolver::insert(z3::expr Rule, const char *Name) {
  Fp.add_rule(Rule, Ctx.str_symbol(Name));
  RuleTexts.push_back(Rule.to_string());
}

void FixedpointSolver::addFact(const z3::expr &Head, const char *Name) {
  insert(Head, Name);
}

void FixedpointSolver::addRule(const z3::expr_vector &Bound,
                               const z3::expr &Body, const z3::expr &Head,
                               const char *Name) {
  z3::expr Rule = z3::implies(Body, Head);
  if (!Bound.empty())
    Rule = z3::forall(Bound, Rule);
  insert(std::move(Rule), Name);
}

FixedpointSolver::Result FixedpointSolver::query(const z3::expr &Goal,
                                                 int TimeoutMs,
                                                 const Deadline &Budget) {
  int Ms = Budget.queryBudgetMs(TimeoutMs);
  if (Ms <= 0)
    return Result::Unknown; // expired before the query even started

  try {
    z3::params P(Ctx);
    P.set("rlimit", smtRlimitForTimeoutMs(Ms));
    Fp.set(P);
  } catch (const z3::exception &) {
    // An engine build that rejects a generic rlimit still gets a budget:
    // the watchdog below enforces the wall-clock limit via interrupt.
  }

  // Watchdog: z3::fixedpoint has no poll point of its own, so a helper
  // thread watches the deadline/token and interrupts the engine. Interrupt
  // is a soft request — keep re-issuing it until the query returns. The
  // poll period is a wait on QueryCV, which the query thread signals when
  // it finishes, so the join below never waits out a period.
  std::mutex QueryMutex;
  std::condition_variable QueryCV;
  bool QueryDone = false;
  Stopwatch Watch;
  std::thread Guard([&] {
    std::unique_lock<std::mutex> Lock(QueryMutex);
    while (!QueryDone) {
      if (Budget.expired() || Watch.elapsedMs() > static_cast<double>(Ms))
        Ctx.interrupt();
      QueryCV.wait_for(Lock, std::chrono::milliseconds(20),
                       [&] { return QueryDone; });
    }
  });

  Result Out = Result::Unknown;
  try {
    PerfTimerScope Z3Timer(PerfTimer::Z3SolveNs);
    z3::expr G = Goal;
    switch (Fp.query(G)) {
    case z3::sat:
      Out = Result::Derivable;
      break;
    case z3::unsat:
      Out = Result::Underivable;
      break;
    case z3::unknown:
      Out = Result::Unknown;
      break;
    }
  } catch (const z3::exception &) {
    Out = Result::Unknown; // interrupted (or an engine error): inconclusive
  }
  {
    std::lock_guard<std::mutex> Lock(QueryMutex);
    QueryDone = true;
  }
  QueryCV.notify_one();
  Guard.join();
  return Out;
}
