//===- se2gis_served.cpp - Synthesis service daemon -------------*- C++-*-===//
///
/// \file
/// The `se2gis_served` daemon: a long-running multi-client synthesis
/// service (src/service/) accepting jobs over a Unix-domain or TCP socket.
///
///   se2gis_served [options]
///     --listen ADDR          unix:<path> or tcp:<host>:<port>
///                            (default: unix:./se2gis.sock; tcp port 0
///                            binds an ephemeral port, printed on startup)
///     --workers N            worker threads (0 = auto: max(1, hw/2))
///     --max-queue N          admission bound on queued jobs (default 64)
///     --timeout-ms N         default per-job budget (default 5000)
///     --drain-timeout-ms N   in-flight budget during drain (default 10000)
///     --cache off|mem|disk   memoization mode shared by all workers
///     --cache-dir DIR        persistent store directory
///     --log-level error|warn|info|debug
///     --trace PATH           Chrome trace_event output
///     --metrics-addr ADDR    plain-HTTP Prometheus listener (unix:/tcp:)
///     --flight-dir DIR       flight-recorder dump directory
///
/// Flags override the SE2GIS_* environment (read via SolverConfig::fromEnv).
/// SIGINT/SIGTERM trigger a graceful drain: stop admitting, finish or
/// cancel in-flight work under the drain deadline, flush (fsync) the
/// persistent cache, exit 0.
///
//===----------------------------------------------------------------------===//

#include "service/Server.h"
#include "support/Diagnostics.h"
#include "support/Log.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace se2gis;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: se2gis_served [--listen unix:<path>|tcp:<host>:<port>]\n"
      "                     [--workers N] [--max-queue N] [--timeout-ms N]\n"
      "                     [--drain-timeout-ms N] [--unreal witness|chc|race]\n"
      "                     [--smt-incremental on|off]\n"
      "                     [--cache off|mem|disk] [--cache-dir DIR]\n"
      "                     [--log-level error|warn|info|debug]\n"
      "                     [--trace PATH]\n"
      "                     [--metrics-addr unix:<path>|tcp:<host>:<port>]\n"
      "                     [--flight-dir DIR]\n");
}

/// The signal handler may only touch async-signal-safe state; the server
/// exposes requestDrainAsync (a single pipe write) for exactly this.
Server *ActiveServer = nullptr;

void onSignal(int) {
  if (ActiveServer)
    ActiveServer->requestDrainAsync();
}

} // namespace

int main(int argc, char **argv) {
  ServiceConfig Config;
  try {
    Config.Base = SolverConfig::fromEnv(/*DefaultTimeoutMs=*/5000);
  } catch (const UserError &E) {
    logf(LogLevel::Error, "served", "%s", E.what());
    return 64;
  }

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--listen" && I + 1 < argc) {
      Config.Listen = argv[++I];
    } else if (Arg == "--workers" && I + 1 < argc) {
      long V = std::atol(argv[++I]);
      Config.Workers = V > 0 ? static_cast<unsigned>(V) : 0;
    } else if (Arg == "--max-queue" && I + 1 < argc) {
      long V = std::atol(argv[++I]);
      if (V < 1) {
        logf(LogLevel::Error, "served", "--max-queue must be at least 1");
        return 64;
      }
      Config.MaxQueue = static_cast<std::size_t>(V);
    } else if (Arg == "--timeout-ms" && I + 1 < argc) {
      Config.DefaultTimeoutMs = std::atoll(argv[++I]);
    } else if (Arg == "--drain-timeout-ms" && I + 1 < argc) {
      Config.DrainTimeoutMs = std::atoll(argv[++I]);
    } else if (Arg == "--unreal" && I + 1 < argc) {
      std::string Name = argv[++I];
      auto Mode = parseUnrealMode(Name);
      if (!Mode) {
        logf(LogLevel::Error, "served",
             "--unreal expects witness, chc, or race, got '%s'", Name.c_str());
        return 64;
      }
      Config.Base.Algo.Unreal = *Mode;
    } else if (Arg == "--smt-incremental" && I + 1 < argc) {
      std::string Mode = argv[++I];
      if (Mode == "on")
        Config.Base.Algo.SmtIncremental = true;
      else if (Mode == "off")
        Config.Base.Algo.SmtIncremental = false;
      else {
        logf(LogLevel::Error, "served",
             "--smt-incremental expects on or off, got '%s'", Mode.c_str());
        return 64;
      }
    } else if (Arg == "--cache" && I + 1 < argc) {
      std::string Name = argv[++I];
      auto Mode = parseCacheMode(Name);
      if (!Mode) {
        logf(LogLevel::Error, "served", "unknown cache mode '%s'", Name.c_str());
        return 64;
      }
      Config.Base.Cache.Mode = *Mode;
    } else if (Arg == "--cache-dir" && I + 1 < argc) {
      Config.Base.Cache.Dir = argv[++I];
    } else if (Arg == "--log-level" && I + 1 < argc) {
      std::string Name = argv[++I];
      auto Level = parseLogLevel(Name);
      if (!Level) {
        logf(LogLevel::Error, "served", "unknown log level '%s'", Name.c_str());
        return 64;
      }
      Config.Base.Log.Level = *Level;
    } else if (Arg == "--trace" && I + 1 < argc) {
      Config.Base.TracePath = argv[++I];
    } else if (Arg == "--metrics-addr" && I + 1 < argc) {
      Config.MetricsAddr = argv[++I];
    } else if (Arg == "--flight-dir" && I + 1 < argc) {
      Config.FlightDir = argv[++I];
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else {
      logf(LogLevel::Error, "served", "unknown option '%s'", Arg.c_str());
      usage();
      return 64;
    }
  }

  const bool HasMetrics = !Config.MetricsAddr.empty();
  Server S(std::move(Config));
  std::string Error;
  if (!S.start(Error)) {
    logf(LogLevel::Error, "served", "%s", Error.c_str());
    return 64;
  }

  ActiveServer = &S;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  std::printf("se2gis_served: listening on %s (%u workers)\n",
              S.addr().str().c_str(), S.workers());
  if (HasMetrics)
    std::printf("se2gis_served: metrics on %s\n",
                S.metricsAddr().str().c_str());
  std::fflush(stdout);

  S.run(); // blocks until a drain (protocol or signal) completes

  ActiveServer = nullptr;
  std::printf("se2gis_served: drained, exiting\n");
  return 0;
}
