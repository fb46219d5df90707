/// \file roccheck_main.cpp
/// \brief Seed-sweep driver for the concurrency checker.
///
///   roccheck --scenario NAME --seeds N [--seed BASE] [--out DIR]
///            [--expect-race] [--preempt P]
///
/// Runs NAME under seeds BASE..BASE+N-1, one fresh Session + Explorer per
/// seed.  Any finding (or scenario failure) prints the seed that produced
/// it — rerunning with --seed SEED --seeds 1 replays the schedule exactly
/// — and, with --out, writes the report and the schedule trace JSON.
///
/// --expect-race inverts the contract for the regression fixture: the
/// sweep FAILS unless at least one seed finds a race, and the finding
/// seed is replayed to prove determinism (identical report and trace).
///
/// Numeric values are parsed whole: N is an unsigned integer >= 1, BASE an
/// unsigned integer (no sign on either), P a probability in [0, 1].
/// Anything else prints the usage text and exits 2.

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <system_error>

#include "check/checker.h"
#include "check/explorer.h"
#include "check/scenarios.h"

namespace {

struct Args {
  std::string scenario;
  uint64_t seeds = 1;
  uint64_t base_seed = 1;
  std::string out_dir;
  bool expect_race = false;
  double preempt = 0.125;
};

/// True iff all of `s` is one number of type T (from_chars: no sign for
/// unsigned types, no leading '+' or whitespace, no trailing characters).
template <typename T>
bool parse_whole(const std::string& s, T* out) {
  const char* end = s.data() + s.size();
  const auto [stop, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && stop == end;
}

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --scenario NAME --seeds N [--seed BASE] [--out DIR]"
               " [--expect-race] [--preempt P]"
               "\n  N >= 1 and BASE are unsigned integers, P is in [0, 1]"
               "\n  scenarios:";
  for (const auto& n : roc::check::scenario_names()) std::cerr << " " << n;
  std::cerr << "\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scenario") {
      a.scenario = value();
    } else if (arg == "--seeds") {
      if (!parse_whole(value(), &a.seeds) || a.seeds == 0) usage(argv[0]);
    } else if (arg == "--seed") {
      if (!parse_whole(value(), &a.base_seed)) usage(argv[0]);
    } else if (arg == "--out") {
      a.out_dir = value();
    } else if (arg == "--expect-race") {
      a.expect_race = true;
    } else if (arg == "--preempt") {
      // Negated so NaN fails too.
      if (!parse_whole(value(), &a.preempt) ||
          !(a.preempt >= 0.0 && a.preempt <= 1.0))
        usage(argv[0]);
    } else {
      usage(argv[0]);
    }
  }
  if (a.scenario.empty()) usage(argv[0]);
  return a;
}

struct RunOutput {
  std::string error;
  std::string report;
  std::string trace;
};

RunOutput run_one(const Args& a, uint64_t seed) {
  roc::check::Session session;
  roc::check::Explorer::Options eopts;
  eopts.seed = seed;
  eopts.preempt_probability = a.preempt;
  roc::check::Explorer explorer(eopts);
  RunOutput out;
  out.error = roc::check::run_scenario(a.scenario, session, explorer).error;
  out.report = session.report();
  out.trace = explorer.trace_json();
  return out;
}

void dump(const Args& a, uint64_t seed, const RunOutput& out) {
  if (a.out_dir.empty()) return;
  const std::string stem =
      a.out_dir + "/" + a.scenario + "-seed" + std::to_string(seed);
  std::ofstream(stem + ".report.txt") << out.report;
  std::ofstream(stem + ".trace.json") << out.trace << "\n";
  std::cout << "roccheck: artifacts written to " << stem << ".{report.txt,trace.json}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);

  for (uint64_t i = 0; i < a.seeds; ++i) {
    const uint64_t seed = a.base_seed + i;
    RunOutput out;
    try {
      out = run_one(a, seed);
    } catch (const std::exception& e) {
      std::cerr << "roccheck: scenario=" << a.scenario << " seed=" << seed
                << " crashed: " << e.what() << "\n";
      return 2;
    }

    const bool findings = !out.report.empty();
    if (!a.out_dir.empty()) dump(a, seed, out);
    if (!out.error.empty()) {
      std::cerr << "roccheck: scenario=" << a.scenario << " seed=" << seed
                << " FAILED: " << out.error << "\n"
                << out.report
                << "replay: roccheck --scenario " << a.scenario << " --seed "
                << seed << " --seeds 1 --preempt " << a.preempt << "\n";
      return 1;
    }

    if (findings && !a.expect_race) {
      std::cerr << "roccheck: scenario=" << a.scenario << " seed=" << seed
                << " found problems:\n"
                << out.report << "replay: roccheck --scenario " << a.scenario
                << " --seed " << seed << " --seeds 1 --preempt " << a.preempt
                << "\n";
      return 1;
    }

    if (findings && a.expect_race) {
      // The fixture tripped, as it must.  Replay the seed to prove the
      // schedule (and therefore the finding) is deterministic.
      const RunOutput replay = run_one(a, seed);
      if (replay.report != out.report || replay.trace != out.trace) {
        std::cerr << "roccheck: scenario=" << a.scenario << " seed=" << seed
                  << " REPLAY DIVERGED (nondeterministic schedule)\n";
        return 1;
      }
      std::cout << "roccheck: scenario=" << a.scenario << " seed=" << seed
                << " caught the planted race after " << (i + 1)
                << " seed(s); replay deterministic\n"
                << out.report;
      return 0;
    }
  }

  if (a.expect_race) {
    std::cerr << "roccheck: scenario=" << a.scenario << ": NO seed in ["
              << a.base_seed << ", " << (a.base_seed + a.seeds)
              << ") found the planted race\n";
    return 1;
  }
  std::cout << "roccheck: scenario=" << a.scenario << ": " << a.seeds
            << " seed(s) clean (base " << a.base_seed << ")\n";
  return 0;
}
