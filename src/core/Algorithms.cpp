//===- Algorithms.cpp -----------------------------------------------------===//

#include "core/Algorithms.h"

#include "ast/Simplify.h"
#include "chc/ChcChannel.h"
#include "core/Approximation.h"
#include "core/Certificates.h"
#include "core/InvariantInfer.h"
#include "core/SplitIte.h"
#include "core/Portfolio.h"
#include "core/Witness.h"
#include "eval/Expand.h"
#include "eval/SymbolicEval.h"
#include "support/Diagnostics.h"
#include "support/Progress.h"
#include "support/Stopwatch.h"
#include "support/Trace.h"
#include "synth/Grammar.h"
#include "synth/SgeSolver.h"

#include <cctype>
#include <sstream>

using namespace se2gis;

const char *se2gis::algorithmName(AlgorithmKind K) {
  switch (K) {
  case AlgorithmKind::SE2GIS:
    return "SE2GIS";
  case AlgorithmKind::SEGIS:
    return "SEGIS";
  case AlgorithmKind::SEGISUC:
    return "SEGIS+UC";
  case AlgorithmKind::CHC:
    return "CHC";
  case AlgorithmKind::Portfolio:
    return "portfolio";
  }
  return "?";
}

std::optional<AlgorithmKind>
se2gis::parseAlgorithmName(const std::string &Name) {
  std::string S;
  for (char C : Name)
    S += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  if (S == "se2gis")
    return AlgorithmKind::SE2GIS;
  if (S == "segis")
    return AlgorithmKind::SEGIS;
  if (S == "segis-uc" || S == "segisuc" || S == "segis+uc")
    return AlgorithmKind::SEGISUC;
  if (S == "chc")
    return AlgorithmKind::CHC;
  if (S == "portfolio")
    return AlgorithmKind::Portfolio;
  return std::nullopt;
}

const char *se2gis::unrealModeName(UnrealMode M) {
  switch (M) {
  case UnrealMode::Auto:
    return "auto";
  case UnrealMode::Witness:
    return "witness";
  case UnrealMode::Chc:
    return "chc";
  case UnrealMode::Race:
    return "race";
  }
  return "?";
}

std::optional<UnrealMode> se2gis::parseUnrealMode(const std::string &Name) {
  std::string S;
  for (char C : Name)
    S += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  if (S == "auto")
    return UnrealMode::Auto;
  if (S == "witness")
    return UnrealMode::Witness;
  if (S == "chc")
    return UnrealMode::Chc;
  if (S == "race")
    return UnrealMode::Race;
  return std::nullopt;
}

UnrealMode se2gis::resolveUnrealMode(UnrealMode M, AlgorithmKind K) {
  if (M != UnrealMode::Auto)
    return M;
  return K == AlgorithmKind::Portfolio ? UnrealMode::Race
                                       : UnrealMode::Witness;
}

const char *se2gis::verdictSourceName(VerdictSource S) {
  switch (S) {
  case VerdictSource::None:
    return "none";
  case VerdictSource::Witness:
    return "witness";
  case VerdictSource::Chc:
    return "chc";
  case VerdictSource::Cache:
    return "cache";
  }
  return "?";
}

std::string Evidence::str() const {
  if (Source == VerdictSource::None)
    return "";
  auto Lower = [](const std::string &S) {
    std::string Out;
    for (char C : S)
      Out += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
    return Out;
  };
  std::ostringstream OS;
  OS << verdictSourceName(Source);
  if (!Channel.empty() && Lower(Channel) != verdictSourceName(Source))
    OS << "/" << Channel;
  if (ChcClauses)
    OS << " (" << ChcClauses << " clauses)";
  else if (Lemmas)
    OS << " (" << Lemmas << " lemmas)";
  return OS.str();
}

const char *se2gis::verdictName(Verdict O) {
  switch (O) {
  case Verdict::Realizable:
    return "realizable";
  case Verdict::Unrealizable:
    return "unrealizable";
  case Verdict::Timeout:
    return "timeout";
  case Verdict::Failed:
    return "failed";
  }
  return "?";
}

namespace {

std::string describeWitness(const FunctionalWitness &W) {
  std::ostringstream OS;
  OS << "witness models: " << W.First.M.str() << " (eqn "
     << W.First.EqnIndex << "), " << W.Second.M.str() << " (eqn "
     << W.Second.EqnIndex << ")";
  return OS.str();
}

std::string describeValidInputs(const std::vector<ConcreteInput> &Ins) {
  std::ostringstream OS;
  OS << "; concrete inputs:";
  for (const ConcreteInput &In : Ins)
    for (const auto &[V, Val] : In.DataVars)
      OS << ' ' << V->Name << " = " << Val->str();
  return OS.str();
}

} // namespace

// --- SE2GIS -------------------------------------------------------------===//

Outcome se2gis::runSE2GIS(const Problem &P, const AlgoOptions &Opts) {
  Stopwatch Timer;
  Deadline Budget = Deadline::afterMs(Opts.TimeoutMs);
  Budget.setToken(Opts.Token);
  if (Opts.Seed)
    setSmtRandomSeed(Opts.Seed);
  setSmtIncremental(Opts.SmtIncremental);
  // Start every run on a virgin session: solver heuristic state carried
  // across runs would make a benchmark's trajectory depend on sweep order
  // (and diverge from a standalone CLI run of the same problem).
  resetThreadSmtSession();
  PerfSnapshot PerfBefore = snapshotPerf();
  PhaseSnapshot PhaseBefore = phaseSnapshot();
  Outcome Result;

  GrammarConfig Grammar = inferGrammar(P);
  SgeSolver Solver(P.Unknowns, Grammar);
  Solver.PerQueryTimeoutMs = Opts.SgePerQueryTimeoutMs;
  Solver.AnchorToCandidate = !Opts.DisableEufAnchoring;

  Approximation Approx(P);
  Approx.EnableSplitting = !Opts.DisableIteSplitting;
  if (!Approx.initialize()) {
    Result.Detail = "canonical term construction diverged";
    Result.Stats.ElapsedMs = Timer.elapsedMs();
    return Result;
  }

  // Seed the guards with the user's `ensures` hint, if any (an invariant of
  // the image of the reference function).
  if (!P.Ensures.empty()) {
    const RecFunction *Ens = P.Prog->findFunction(P.Ensures);
    Approx.addImageInvariant(Ens->getParams()[0], Ens->getBody());
  }

  CertificateChecker Checker(P, Approx);
  Checker.Bounded = Opts.Bounded;
  InvariantLearner Learner(P, Approx, Grammar);
  Learner.Bounded = Opts.Bounded;
  Learner.Induction = Opts.Induction;

  // Invariants learned so far, normalized to the reference's parameter
  // variables and reused as induction lemmas during final verification.
  const RecFunction *Ref = P.Prog->findFunction(P.Reference);
  std::vector<ShapeLemma> Lemmas;
  auto AddLemma = [&](const LearnedInvariant &Inv) {
    if (!Inv.LemmaFormula)
      return;
    Substitution Map;
    for (size_t I = 0; I < Inv.LemmaExtras.size(); ++I)
      Map.emplace_back(Inv.LemmaExtras[I]->Id,
                       mkVar(Ref->getParams()[I]));
    Lemmas.push_back(
        ShapeLemma{Inv.LemmaPattern, substitute(Inv.LemmaFormula, Map)});
  };

  while (true) {
    TraceSpan Round("se2gis.round", "round");
    if (Round.active()) {
      Round.arg("refinements",
                static_cast<std::int64_t>(Result.Stats.Refinements));
      Round.arg("coarsenings",
                static_cast<std::int64_t>(Result.Stats.Coarsenings));
    }
    // Round-granularity live introspection (no-op outside the service).
    progressPublish([&](ProgressSnapshot &Pr) {
      progressSetStr(Pr.Algorithm, "se2gis");
      progressSetStr(Pr.Activity, "round");
      progressSetStr(Pr.WitnessState, "probing");
      Pr.Round = Result.Stats.Refinements + Result.Stats.Coarsenings;
      Pr.Refinements = Result.Stats.Refinements;
      Pr.Coarsenings = Result.Stats.Coarsenings;
      Pr.Lemmas = Lemmas.size();
      Pr.CandidateSize = Result.Stats.LastCandidate.size();
      Pr.UpdatedNs = detail::traceNowNs();
    });
    if (Budget.expired()) {
      Result.V = Verdict::Timeout;
      break;
    }

    Sge System = Approx.buildSge();

    // Fig. 1's "Is φ realizable?" gate: search for a functional
    // unrealizability witness first. A hit activates the coarsening loop
    // without waiting for the synthesis step to corner the conflict.
    std::optional<FunctionalWitness> W;
    if (!Opts.DisableWitnessChannel)
      W = findFunctionalWitness(System, Opts.SgePerQueryTimeoutMs, Budget);
    if (W) {
      Result.Stats.Steps += "\u25e6"; // ◦
      ++Result.Stats.Coarsenings;
      Round.arg("kind", "coarsen");
      progressPublish([&](ProgressSnapshot &Pr) {
        progressSetStr(Pr.Activity, "coarsen");
        progressSetStr(Pr.WitnessState, "found");
        Pr.Coarsenings = Result.Stats.Coarsenings;
        Pr.UpdatedNs = detail::traceNowNs();
      });

      WitnessCheckResult Chk = Checker.check(*W, System, Budget);
      if (Chk.Verdict == WitnessVerdict::Valid) {
        Result.V = Verdict::Unrealizable;
        Result.Detail =
            describeWitness(*W) + describeValidInputs(Chk.ValidInputs);
        break;
      }
      if (Chk.Verdict == WitnessVerdict::Unknown) {
        Result.Detail = "spuriousness check inconclusive";
        break;
      }

      bool LearnedAny = false;
      for (const SCertificate &Cert : Chk.Certs) {
        auto Inv = Learner.learn(Cert, Budget);
        if (!Inv)
          continue;
        Learner.apply(*Inv);
        AddLemma(*Inv);
        LearnedAny = true;
        if (Inv->Kind == CertKind::Mistyped)
          ++Result.Stats.DatatypeInvariants;
        else
          ++Result.Stats.ImageInvariants;
        Result.Stats.AllInvariantsByInduction &= Inv->ByInduction;
      }
      Round.arg("lemmas", static_cast<std::uint64_t>(Lemmas.size()));
      if (!LearnedAny) {
        Result.V = Budget.expired() ? Verdict::Timeout : Verdict::Failed;
        if (Result.V == Verdict::Failed)
          Result.Detail = "invariant inference diverged";
        break;
      }
      continue;
    }

    progressPublish([&](ProgressSnapshot &Pr) {
      progressSetStr(Pr.Activity, "synthesize");
      progressSetStr(Pr.WitnessState, "none");
      Pr.UpdatedNs = detail::traceNowNs();
    });
    SgeResult SR = Solver.solve(System, Budget);
    if (!SR.Solution.empty())
      Result.Stats.LastCandidate = solutionToString(P, SR.Solution);

    if (SR.Status == SgeStatus::Solved) {
      Result.Stats.Steps += "•"; // •
      ++Result.Stats.Refinements;
      Round.arg("kind", "refine");
      Round.arg("sge_rounds", static_cast<std::int64_t>(SR.Rounds));
      progressPublish([&](ProgressSnapshot &Pr) {
        progressSetStr(Pr.Activity, "verify");
        Pr.Refinements = Result.Stats.Refinements;
        Pr.CandidateSize = Result.Stats.LastCandidate.size();
        Pr.UpdatedNs = detail::traceNowNs();
      });

      VerifyOptions VOpts;
      VOpts.Bounded = Opts.Bounded;
      VOpts.Induction = Opts.Induction;
      if (!Opts.DisableLemmaReplay)
        VOpts.Lemmas = Lemmas;
      VerifyResult V = verifySolution(P, SR.Solution, VOpts, Budget);
      if (V.Status != VerifyStatus::Counterexample) {
        Result.V = Verdict::Realizable;
        Result.Solution = std::move(SR.Solution);
        Result.Stats.SolutionProvedInductive =
            V.Status == VerifyStatus::ProvedInductive;
        break;
      }
      if (!Approx.refine(V.CexTheta)) {
        Result.Detail = "refinement failed to cover the counterexample";
        break;
      }
      continue;
    }

    if (SR.Status == SgeStatus::Infeasible) {
      // The grounded system is unsatisfiable in EUF although no frame-based
      // witness exists: the paper's theoretical gap (Appendix C.1.3).
      Result.Detail = "no functional unrealizability witness exists for "
                      "the approximation";
      break;
    }

    // SGE solver gave up.
    Result.V = Budget.expired() ? Verdict::Timeout : Verdict::Failed;
    if (Result.V == Verdict::Failed)
      Result.Detail = "the synthesis step for the approximation failed";
    break;
  }

  if (Result.V == Verdict::Failed && Budget.expired())
    Result.V = Verdict::Timeout;
  if (Result.V != Verdict::Timeout)
    Result.Stats.LastCandidate.clear();
  if (Result.V == Verdict::Realizable || Result.V == Verdict::Unrealizable) {
    Result.Ev.Source = VerdictSource::Witness;
    Result.Ev.Channel = "SE2GIS";
    Result.Ev.Lemmas = static_cast<std::uint64_t>(
        Result.Stats.ImageInvariants + Result.Stats.DatatypeInvariants);
  }
  Result.Stats.ElapsedMs = Timer.elapsedMs();
  Result.Stats.Perf = snapshotPerf().since(PerfBefore);
  Result.Stats.Phases = phaseSnapshot().since(PhaseBefore);
  return Result;
}

// --- SEGIS / SEGIS+UC ----------------------------------------------------===//

Outcome se2gis::runSEGIS(const Problem &P, const AlgoOptions &Opts,
                           bool WithUnrealizabilityChecker) {
  Stopwatch Timer;
  Deadline Budget = Deadline::afterMs(Opts.TimeoutMs);
  Budget.setToken(Opts.Token);
  if (Opts.Seed)
    setSmtRandomSeed(Opts.Seed);
  setSmtIncremental(Opts.SmtIncremental);
  // Start every run on a virgin session: solver heuristic state carried
  // across runs would make a benchmark's trajectory depend on sweep order
  // (and diverge from a standalone CLI run of the same problem).
  resetThreadSmtSession();
  PerfSnapshot PerfBefore = snapshotPerf();
  PhaseSnapshot PhaseBefore = phaseSnapshot();
  Outcome Result;

  GrammarConfig Grammar = inferGrammar(P);
  SgeSolver Solver(P.Unknowns, Grammar);
  Solver.PerQueryTimeoutMs = Opts.SgePerQueryTimeoutMs;

  Solver.AnchorToCandidate = !Opts.DisableEufAnchoring;
  RecursionEliminator Elim(P);
  SymbolicEvaluator SE(*P.Prog);
  BoundedTermStream Stream(P.Theta);

  struct BoundedEqn {
    TermPtr T;
    std::vector<SgeEquation> Eqns;
  };
  std::vector<BoundedEqn> Terms;

  auto AddShape = [&](TermPtr Shape) -> bool {
    if (!Shape)
      return false; // finite datatype fully enumerated
    EquationParts Parts;
    TermPtr Guard;
    try {
      Parts = Elim.eliminate(Shape);
      Guard = P.Invariant.empty()
                  ? mkTrue()
                  : SE.eval(mkCall(P.Invariant, Type::boolTy(), {Shape}));
    } catch (const UserError &) {
      return false;
    }
    if (!Parts.Canonical)
      fatalError("bounded term is not canonical");
    if (Guard->getKind() == TermKind::BoolLit && !Guard->getBoolValue())
      return true; // impossible shape; equation would be vacuous
    BoundedEqn BE;
    BE.T = Shape;
    SgeEquation E{Guard, Parts.Lhs, Parts.Rhs, Terms.size()};
    BE.Eqns = Opts.DisableIteSplitting ? std::vector<SgeEquation>{E}
                                       : splitEquation(E);
    Terms.push_back(std::move(BE));
    return true;
  };

  // Initial shapes: one per constructor-ish level (the first few bounded
  // terms in size order).
  for (unsigned I = 0; I < std::max(2u, P.Theta->numConstructors()); ++I)
    AddShape(Stream.next());

  while (true) {
    TraceSpan Round("segis.round", "round");
    if (Round.active()) {
      Round.arg("refinements",
                static_cast<std::int64_t>(Result.Stats.Refinements));
      Round.arg("terms", static_cast<std::uint64_t>(Terms.size()));
    }
    progressPublish([&](ProgressSnapshot &Pr) {
      progressSetStr(Pr.Algorithm,
                     WithUnrealizabilityChecker ? "segis-uc" : "segis");
      progressSetStr(Pr.Activity, "round");
      if (WithUnrealizabilityChecker && !Opts.DisableWitnessChannel)
        progressSetStr(Pr.WitnessState, "probing");
      Pr.Round = Result.Stats.Refinements;
      Pr.Refinements = Result.Stats.Refinements;
      Pr.Terms = Terms.size();
      Pr.CandidateSize = Result.Stats.LastCandidate.size();
      Pr.UpdatedNs = detail::traceNowNs();
    });
    if (Budget.expired()) {
      Result.V = Verdict::Timeout;
      break;
    }

    Sge System;
    for (const BoundedEqn &BE : Terms)
      for (const SgeEquation &E : BE.Eqns)
        System.Eqns.push_back(E);

    if (WithUnrealizabilityChecker && !Opts.DisableWitnessChannel) {
      auto W = findFunctionalWitness(System, Opts.SgePerQueryTimeoutMs,
                                     Budget);
      if (W) {
        // Over fully bounded terms the guards are exactly Iθ evaluated,
        // so the witness is valid; concretize the shapes for the report.
        Result.V = Verdict::Unrealizable;
        std::ostringstream OS;
        size_t T1 = System.Eqns[W->First.EqnIndex].TermIndex;
        size_t T2 = System.Eqns[W->Second.EqnIndex].TermIndex;
        OS << describeWitness(*W) << "; concrete inputs: "
           << concretizeShape(Terms[T1].T, W->First.M)->str() << ", "
           << concretizeShape(Terms[T2].T, W->Second.M)->str();
        Result.Detail = OS.str();
        break;
      }
    }

    SgeResult SR = Solver.solve(System, Budget);
    if (!SR.Solution.empty())
      Result.Stats.LastCandidate = solutionToString(P, SR.Solution);

    if (SR.Status == SgeStatus::Solved) {
      Result.Stats.Steps += "•";
      ++Result.Stats.Refinements;
      Round.arg("kind", "refine");
      Round.arg("sge_rounds", static_cast<std::int64_t>(SR.Rounds));

      VerifyOptions VOpts;
      VOpts.Bounded = Opts.Bounded;
      VOpts.Induction = Opts.Induction;
      VerifyResult V = verifySolution(P, SR.Solution, VOpts, Budget);
      if (V.Status != VerifyStatus::Counterexample) {
        Result.V = Verdict::Realizable;
        Result.Solution = std::move(SR.Solution);
        Result.Stats.SolutionProvedInductive =
            V.Status == VerifyStatus::ProvedInductive;
        break;
      }
      AddShape(shapeOfValue(V.CexTheta));
      continue;
    }

    if (SR.Status == SgeStatus::Infeasible) {
      if (WithUnrealizabilityChecker) {
        // Unrealizable beyond the frame-based witness class (C.1.3).
        Result.Detail = "no functional unrealizability witness exists";
        break;
      }
      // Plain SEGIS has no unrealizability outcome: keep unrolling until
      // the budget runs out (the paper's SEGIS solves no unrealizable
      // benchmark). The one exception is a finite datatype whose inputs
      // are all already in the system — infeasibility over every input is
      // a sound unrealizability proof with no witness machinery needed.
      TermPtr S = Stream.next();
      if (!S) {
        Result.V = Verdict::Unrealizable;
        Result.Detail = "equation system over every input of the finite "
                        "datatype is infeasible";
        break;
      }
      AddShape(std::move(S));
      ++Result.Stats.Refinements;
      continue;
    }

    // Solver gave up: add one more bounded term and retry.
    if (Budget.expired()) {
      Result.V = Verdict::Timeout;
      break;
    }
    AddShape(Stream.next());
    ++Result.Stats.Refinements;
  }

  if (Result.V != Verdict::Timeout)
    Result.Stats.LastCandidate.clear();
  if (Result.V == Verdict::Realizable || Result.V == Verdict::Unrealizable) {
    Result.Ev.Source = VerdictSource::Witness;
    Result.Ev.Channel = WithUnrealizabilityChecker ? "SEGIS+UC" : "SEGIS";
  }
  Result.Stats.ElapsedMs = Timer.elapsedMs();
  Result.Stats.Perf = snapshotPerf().since(PerfBefore);
  Result.Stats.Phases = phaseSnapshot().since(PhaseBefore);
  return Result;
}

Outcome se2gis::runAlgorithm(AlgorithmKind K, const Problem &P,
                               const AlgoOptions &Opts) {
  PerfTimerScope RunTimer(PerfTimer::SuiteRunNs);
  UnrealMode Mode = resolveUnrealMode(Opts.Unreal, K);
  switch (K) {
  case AlgorithmKind::SE2GIS:
  case AlgorithmKind::SEGIS:
  case AlgorithmKind::SEGISUC: {
    if (Mode == UnrealMode::Witness)
      return K == AlgorithmKind::SE2GIS
                 ? runSE2GIS(P, Opts)
                 : runSEGIS(P, Opts,
                            /*WithUnrealizabilityChecker=*/K ==
                                AlgorithmKind::SEGISUC);
    // Chc/Race: race the algorithm against the CHC channel; under Chc the
    // algorithm's own witness channel is suppressed so every Unrealizable
    // verdict is CHC-proved.
    AlgoOptions Local = Opts;
    Local.DisableWitnessChannel = Mode == UnrealMode::Chc;
    return runRace({K, AlgorithmKind::CHC}, P, Local);
  }
  case AlgorithmKind::CHC:
    return runChcChannel(P, Opts);
  case AlgorithmKind::Portfolio:
    return runPortfolio(P, Opts);
  }
  fatalError("bad algorithm kind");
}
