//===- Metrics.cpp - Prometheus text exposition ---------------------------===//

#include "support/Metrics.h"

#include "support/FlightRecorder.h"
#include "support/PerfCounters.h"
#include "support/Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace se2gis;

std::string se2gis::promEscapeLabel(const std::string &V) {
  std::string Out;
  Out.reserve(V.size() + 4);
  for (char C : V) {
    switch (C) {
    case '\\':
      Out += "\\\\";
      break;
    case '"':
      Out += "\\\"";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

std::string se2gis::promFormatValue(double V) {
  if (std::isfinite(V) && V == std::floor(V) && std::fabs(V) < 1e15) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.0f", V);
    return Buf;
  }
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

void PrometheusWriter::header(const std::string &Name, const char *Help,
                              const char *Type) {
  if (std::find(SeenFamilies.begin(), SeenFamilies.end(), Name) !=
      SeenFamilies.end())
    return;
  SeenFamilies.push_back(Name);
  if (Help && *Help) {
    Out += "# HELP ";
    Out += Name;
    Out += ' ';
    Out += Help;
    Out += '\n';
  }
  Out += "# TYPE ";
  Out += Name;
  Out += ' ';
  Out += Type;
  Out += '\n';
}

void PrometheusWriter::sample(const std::string &Name,
                              const MetricLabels &Labels, double Value) {
  Out += Name;
  if (!Labels.empty()) {
    Out += '{';
    bool First = true;
    for (const auto &[K, V] : Labels) {
      if (!First)
        Out += ',';
      First = false;
      Out += K;
      Out += "=\"";
      Out += promEscapeLabel(V);
      Out += '"';
    }
    Out += '}';
  }
  Out += ' ';
  Out += promFormatValue(Value);
  Out += '\n';
}

void PrometheusWriter::counter(const std::string &Name, const char *Help,
                               double Value, const MetricLabels &Labels) {
  header(Name, Help, "counter");
  sample(Name, Labels, Value);
}

void PrometheusWriter::gauge(const std::string &Name, const char *Help,
                             double Value, const MetricLabels &Labels) {
  header(Name, Help, "gauge");
  sample(Name, Labels, Value);
}

void PrometheusWriter::histogram(const std::string &Name, const char *Help,
                                 const HistogramSnapshot &H,
                                 const MetricLabels &Labels) {
  header(Name, Help, "histogram");
  // Emit cumulative buckets up to the highest non-empty log2 bucket; the
  // bound of ns-bucket B is its exclusive upper bound converted to
  // seconds. Bucket 63 has no finite bound and folds into +Inf.
  unsigned Highest = 0;
  for (unsigned B = 0; B < HistogramSnapshot::NumBuckets; ++B)
    if (H.Buckets[B])
      Highest = B;
  std::uint64_t Cum = 0;
  for (unsigned B = 0;
       B <= Highest && B < HistogramSnapshot::NumBuckets - 1; ++B) {
    Cum += H.Buckets[B];
    char LeBuf[48];
    std::snprintf(LeBuf, sizeof(LeBuf), "%.10g",
                  static_cast<double>(HistogramSnapshot::upperBoundNs(B)) /
                      1e9);
    MetricLabels L = Labels;
    L.emplace_back("le", LeBuf);
    sample(Name + "_bucket", L, static_cast<double>(Cum));
  }
  MetricLabels LInf = Labels;
  LInf.emplace_back("le", "+Inf");
  sample(Name + "_bucket", LInf, static_cast<double>(H.Count));
  sample(Name + "_sum", Labels, static_cast<double>(H.SumNs) / 1e9);
  sample(Name + "_count", Labels, static_cast<double>(H.Count));
}

void se2gis::writeProcessMetrics(PrometheusWriter &W,
                                 const PerfSnapshot &Snap) {
  for (size_t I = 0; I < static_cast<size_t>(PerfCounter::NumPerfCounters);
       ++I) {
    auto C = static_cast<PerfCounter>(I);
    W.counter(std::string("se2gis_") + perfCounterName(C) + "_total",
              perfCounterHelp(C), static_cast<double>(Snap.get(C)));
  }
  W.counter("se2gis_z3_time_seconds_total",
            "wall time inside z3::solver::check",
            static_cast<double>(Snap.getNs(PerfTimer::Z3SolveNs)) / 1e9);
  W.counter("se2gis_run_time_seconds_total",
            "wall time inside runAlgorithm, summed over runs",
            static_cast<double>(Snap.getNs(PerfTimer::SuiteRunNs)) / 1e9);
  static const char *HistHelp[] = {
      "latency of one SmtQuery::checkSat",
      "Term-to-Z3 translation time per checkSat",
      "latency of one PBE enumeration search",
      "latency of one memoization-cache lookup",
  };
  static_assert(sizeof(HistHelp) / sizeof(HistHelp[0]) ==
                    static_cast<size_t>(PerfHistogram::NumPerfHistograms),
                "HistHelp must cover every PerfHistogram");
  for (size_t I = 0;
       I < static_cast<size_t>(PerfHistogram::NumPerfHistograms); ++I) {
    auto H = static_cast<PerfHistogram>(I);
    W.histogram(std::string("se2gis_") + perfHistogramName(H) + "_seconds",
                HistHelp[I], Snap.hist(H));
  }
  W.counter("se2gis_trace_dropped_events_total",
            "trace events dropped on full buffers",
            static_cast<double>(traceDroppedEvents()));
  W.counter("se2gis_flight_events_total",
            "events recorded by the always-on flight recorder",
            static_cast<double>(flightRecordedEvents()));
  W.counter("se2gis_flight_overwritten_total",
            "flight-recorder events overwritten in the rings",
            static_cast<double>(flightOverwrittenEvents()));
  W.gauge("se2gis_flight_enabled", "1 when the flight recorder is on",
          flightEnabled() ? 1 : 0);
}
