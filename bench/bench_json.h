#pragma once
/// \file bench_json.h
/// \brief Machine-readable results for the bench harnesses.
///
/// Every harness accepts `--json <path>`.  When given, the run writes a
/// JSON array with one record per measured point:
///
///   {"name": "<harness or benchmark>", "params": {"key": value, ...},
///    "metric": "<what was measured>", "value": <number>,
///    "units": "<unit string>"}
///
/// The schema is documented in EXPERIMENTS.md ("Benchmark JSON output").
/// Human-readable stdout output is unchanged; the JSON file is the stable
/// interface for plotting and regression scripts.
///
/// Command lines: each flag is taken out of argv by its owner (JsonEmitter
/// takes `--json`, TraceSession `--trace`, the harness its own switches),
/// then reject_other_args() refuses whatever is left.  Every refusal, and
/// a flag missing its value, prints the flags taken so far and exits 2.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace bench {

namespace detail {
/// Synopsis of every flag taken so far ("[--json <path>] [--smoke]").
inline std::string& usage_synopsis() {
  static std::string synopsis;
  return synopsis;
}

inline void remove_args(int* argc, char** argv, int at, int n) {
  for (int j = at; j + n < *argc; ++j) argv[j] = argv[j + n];
  *argc -= n;
}
}  // namespace detail

/// Prints `why` and the usage line, then exits with status 2.
[[noreturn]] inline void usage_error(const char* prog, const std::string& why) {
  std::fprintf(stderr, "%s: %s\nusage: %s%s\n", prog, why.c_str(), prog,
               detail::usage_synopsis().c_str());
  std::exit(2);
}

/// Takes `flag <value>` out of argv and returns the value; "" when the flag
/// is absent.  A flag with no value, or with a value starting with "--",
/// is a usage error.
inline std::string take_flag_value(int* argc, char** argv, const char* flag) {
  detail::usage_synopsis() += std::string(" [") + flag + " <path>]";
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) continue;
    if (i + 1 >= *argc || std::strncmp(argv[i + 1], "--", 2) == 0)
      usage_error(argv[0], std::string(flag) + " needs a value");
    std::string value = argv[i + 1];
    detail::remove_args(argc, argv, i, 2);
    return value;
  }
  return {};
}

/// Takes switch `flag` out of argv; returns whether it was given.
inline bool take_switch(int* argc, char** argv, const char* flag) {
  detail::usage_synopsis() += std::string(" [") + flag + "]";
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) continue;
    detail::remove_args(argc, argv, i, 1);
    return true;
  }
  return false;
}

/// Exits 2 with the usage line if argv holds anything besides the program
/// name.  Call once every owner has taken its flags.
inline void reject_other_args(int argc, char** argv) {
  if (argc > 1)
    usage_error(argv[0], std::string("unrecognised argument '") + argv[1] +
                             "'");
}

/// One `"key": value` entry of a record's params object.
struct Param {
  std::string key;
  std::string text;  ///< Used when !numeric (emitted as a JSON string).
  double num = 0;    ///< Used when numeric.
  bool numeric = false;
};

inline Param param(std::string key, double v) {
  Param p;
  p.key = std::move(key);
  p.num = v;
  p.numeric = true;
  return p;
}
inline Param param(std::string key, int v) {
  return param(std::move(key), static_cast<double>(v));
}
inline Param param(std::string key, std::string v) {
  Param p;
  p.key = std::move(key);
  p.text = std::move(v);
  return p;
}
inline Param param(std::string key, const char* v) {
  return param(std::move(key), std::string(v));
}

/// Collects records and writes them as one JSON array on destruction.
/// Constructed from argc/argv: takes `--json <path>` out of argv (so later
/// argv consumers never see it); without the flag every call is a no-op.
class JsonEmitter {
 public:
  JsonEmitter(int* argc, char** argv)
      : path_(take_flag_value(argc, argv, "--json")) {}

  JsonEmitter(const JsonEmitter&) = delete;
  JsonEmitter& operator=(const JsonEmitter&) = delete;

  ~JsonEmitter() { flush(); }

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  void record(const std::string& name, const std::vector<Param>& params,
              const std::string& metric, double value,
              const std::string& units) {
    if (!enabled()) return;
    std::string r = "  {\"name\": " + quote(name) + ", \"params\": {";
    bool first = true;
    for (const Param& p : params) {
      if (!first) r += ", ";
      first = false;
      r += quote(p.key) + ": ";
      r += p.numeric ? number(p.num) : quote(p.text);
    }
    r += "}, \"metric\": " + quote(metric);
    r += ", \"value\": " + number(value);
    r += ", \"units\": " + quote(units) + "}";
    records_.push_back(std::move(r));
  }

  /// Writes the file now (also called by the destructor).
  void flush() {
    if (!enabled() || flushed_) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return;
    }
    std::fputs("[\n", f);
    for (size_t i = 0; i < records_.size(); ++i)
      std::fprintf(f, "%s%s\n", records_[i].c_str(),
                   i + 1 < records_.size() ? "," : "");
    std::fputs("]\n", f);
    std::fclose(f);
    flushed_ = true;
  }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    return out;
  }

  static std::string number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  std::string path_;
  std::vector<std::string> records_;
  bool flushed_ = false;
};

}  // namespace bench
