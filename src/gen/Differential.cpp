//===- Differential.cpp - Differential fuzzing harness --------------------===//

#include "gen/Differential.h"

#include "core/SynthesisTask.h"
#include "frontend/Elaborate.h"
#include "frontend/Parser.h"
#include "frontend/Printer.h"
#include "support/Diagnostics.h"
#include "support/Trace.h"

#include <sstream>

using namespace se2gis;

std::vector<FuzzConfigSpec> se2gis::defaultMatrix(bool Full) {
  std::vector<FuzzConfigSpec> M;
  M.push_back({"se2gis-witness", AlgorithmKind::SE2GIS, UnrealMode::Witness,
               /*SmtIncremental=*/true, CacheMode::Off, false});
  M.push_back({"se2gis-race-fresh", AlgorithmKind::SE2GIS, UnrealMode::Race,
               /*SmtIncremental=*/false, CacheMode::Off, false});
  M.push_back({"segis-uc", AlgorithmKind::SEGISUC, UnrealMode::Witness,
               /*SmtIncremental=*/true, CacheMode::Off, false});
  M.push_back({"portfolio-race", AlgorithmKind::Portfolio, UnrealMode::Race,
               /*SmtIncremental=*/true, CacheMode::Off, false});
  M.push_back({"se2gis-mem", AlgorithmKind::SE2GIS, UnrealMode::Witness,
               /*SmtIncremental=*/true, CacheMode::Mem, /*WarmRepeat=*/true});
  if (Full) {
    M.push_back({"se2gis-chc", AlgorithmKind::SE2GIS, UnrealMode::Chc,
                 /*SmtIncremental=*/true, CacheMode::Off, false});
    M.push_back({"se2gis-disk", AlgorithmKind::SE2GIS, UnrealMode::Witness,
                 /*SmtIncremental=*/true, CacheMode::Disk,
                 /*WarmRepeat=*/true});
  }
  return M;
}

const char *se2gis::failureKindName(FailureKind K) {
  switch (K) {
  case FailureKind::None:
    return "ok";
  case FailureKind::Contradiction:
    return "contradiction";
  case FailureKind::EvidenceMismatch:
    return "evidence-mismatch";
  case FailureKind::Crash:
    return "crash";
  case FailureKind::RoundTripFail:
    return "round-trip-fail";
  case FailureKind::TimeoutOnly:
    return "timeout-only";
  }
  return "?";
}

bool se2gis::isFailure(FailureKind K) {
  return K != FailureKind::None && K != FailureKind::TimeoutOnly;
}

std::string CaseReport::str() const {
  std::ostringstream OS;
  OS << failureKindName(Kind);
  OS << " [";
  for (size_t I = 0; I < Results.size(); ++I) {
    if (I)
      OS << ' ';
    OS << Results[I].Label << ':' << verdictName(Results[I].V);
    if (!Results[I].SourceLabel.empty())
      OS << '/' << Results[I].SourceLabel;
  }
  OS << ']';
  if (!Note.empty())
    OS << " " << Note;
  return OS.str();
}

namespace {

bool conclusive(Verdict V) {
  return V == Verdict::Realizable || V == Verdict::Unrealizable;
}

/// Classifies the joint result; Results must be complete.
void classify(CaseReport &Rep,
              const std::vector<const FuzzConfigSpec *> &Specs) {
  const ConfigResult *Real = nullptr, *Unreal = nullptr;
  bool AnyConclusive = false;
  for (size_t I = 0; I < Rep.Results.size(); ++I) {
    const ConfigResult &R = Rep.Results[I];
    const FuzzConfigSpec &Spec = *Specs[I];
    if (R.V == Verdict::Failed) {
      // Only an escaped exception is a crash; a structured Failed outcome
      // (e.g. "invariant inference diverged") is a graceful give-up and
      // counts as inconclusive, like a timeout.
      if (R.Exception) {
        Rep.Kind = FailureKind::Crash;
        Rep.Note = R.Label + " crashed: " + R.Detail;
        return;
      }
      continue;
    }
    if (!conclusive(R.V))
      continue;
    AnyConclusive = true;
    if (R.V == Verdict::Realizable && !Real)
      Real = &R;
    if (R.V == Verdict::Unrealizable && !Unreal)
      Unreal = &R;

    // Provenance sanity: every conclusive verdict names its channel, and
    // the channel must be one the config's mode could have produced. A
    // cache-sourced verdict is legitimate under any mode (re-validated on
    // reuse).
    if (R.Source == VerdictSource::None) {
      Rep.Kind = FailureKind::EvidenceMismatch;
      Rep.Note = R.Label + " conclusive without evidence";
      return;
    }
    if (R.V == Verdict::Unrealizable && R.Source != VerdictSource::Cache) {
      if (Spec.Unreal == UnrealMode::Chc &&
          R.Source != VerdictSource::Chc) {
        Rep.Kind = FailureKind::EvidenceMismatch;
        Rep.Note = R.Label + " unrealizable via " +
                   verdictSourceName(R.Source) + " under chc-only mode";
        return;
      }
      if (Spec.Unreal == UnrealMode::Witness &&
          R.Source == VerdictSource::Chc) {
        Rep.Kind = FailureKind::EvidenceMismatch;
        Rep.Note = R.Label + " unrealizable via chc under witness-only mode";
        return;
      }
    }
  }
  if (Real && Unreal) {
    Rep.Kind = FailureKind::Contradiction;
    Rep.Note = Real->Label + " says realizable, " + Unreal->Label +
               " says unrealizable";
    return;
  }
  Rep.Kind = AnyConclusive ? FailureKind::None : FailureKind::TimeoutOnly;
}

} // namespace

CaseReport se2gis::runCaseDifferential(
    const GenCase &C, const std::vector<FuzzConfigSpec> &Matrix,
    const DiffOptions &Opts) {
  return runSourceDifferential(caseSource(C), C.CaseIndex, Matrix, Opts);
}

CaseReport se2gis::runSourceDifferential(
    const std::string &Src, unsigned CaseIndex,
    const std::vector<FuzzConfigSpec> &Matrix, const DiffOptions &Opts) {
  TraceSpan Span("fuzz.case", "gen");
  Span.arg("case", static_cast<std::int64_t>(CaseIndex));

  CaseReport Rep;

  // --- Round-trip property: printing must be a one-step fixpoint of
  // parse∘print (parse errors on our own output are frontend bugs too).
  try {
    std::string P1 = printUnit(parseUnit(Src));
    // Generated sources are already in printer normal form, so P1 == Src;
    // hand-written replay files only need the fixpoint to be stable.
    if (P1 != Src && printUnit(parseUnit(P1)) != P1) {
      Rep.Kind = FailureKind::RoundTripFail;
      Rep.Note = "print/parse fixpoint diverges";
      return Rep;
    }
  } catch (const UserError &E) {
    Rep.Kind = FailureKind::RoundTripFail;
    Rep.Note = std::string("printed case does not parse: ") + E.what();
    return Rep;
  }

  // --- The matrix. Expanded so WarmRepeat contributes two columns.
  std::vector<const FuzzConfigSpec *> Specs;
  auto ProblemPtr = std::make_shared<Problem>(loadProblem(Src));
  for (const FuzzConfigSpec &Spec : Matrix) {
    bool NeedsDir = Spec.Cache == CacheMode::Disk;
    if (NeedsDir && Opts.CacheDirBase.empty())
      continue;
    unsigned Repeats = Spec.WarmRepeat ? 2u : 1u;
    if (Spec.Cache != CacheMode::Off)
      shutdownCache(); // each case's cold run really starts cold
    for (unsigned Rep2 = 0; Rep2 < Repeats; ++Rep2) {
      SolverConfig Conf;
      Conf.Verbose = false;
      Conf.Algo.TimeoutMs = Opts.TimeoutMs;
      Conf.Algo.SmtIncremental = Spec.SmtIncremental;
      Conf.Algo.Unreal = Spec.Unreal;
      Conf.Cache.Mode = Spec.Cache;
      if (NeedsDir)
        Conf.Cache.Dir =
            Opts.CacheDirBase + "/case" + std::to_string(CaseIndex);
      ConfigResult R;
      R.Label = Spec.Label + (Rep2 ? "+warm" : "");
      try {
        SynthesisTask Task(ProblemPtr, Spec.Algo);
        Outcome O = Task.run(Conf);
        R.V = O.V;
        R.Source = O.Ev.Source;
        R.Detail = O.Detail;
      } catch (const std::exception &E) {
        R.V = Verdict::Failed;
        R.Exception = true;
        R.Detail = std::string("exception: ") + E.what();
      } catch (...) {
        R.V = Verdict::Failed;
        R.Exception = true;
        R.Detail = "unknown exception";
      }
      if (R.Source != VerdictSource::None)
        R.SourceLabel = Spec.Unreal == UnrealMode::Race &&
                                R.Source != VerdictSource::Cache
                            ? "race"
                            : verdictSourceName(R.Source);
      Rep.Results.push_back(std::move(R));
      Specs.push_back(&Spec);
    }
  }
  // Leave no cache state behind for whatever runs next.
  shutdownCache();

  if (Opts.InjectBug) {
    for (ConfigResult &R : Rep.Results) {
      if (conclusive(R.V)) {
        R.V = R.V == Verdict::Realizable ? Verdict::Unrealizable
                                         : Verdict::Realizable;
        R.Source = R.Source == VerdictSource::None ? VerdictSource::Witness
                                                   : R.Source;
        if (R.SourceLabel.empty())
          R.SourceLabel = verdictSourceName(R.Source);
        break;
      }
    }
  }

  classify(Rep, Specs);
  Span.arg("kind", failureKindName(Rep.Kind));
  return Rep;
}
