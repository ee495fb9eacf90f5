#include "report.hpp"

#include <sys/stat.h>
#include <sys/utsname.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <stdexcept>

#include "common/affinity.hpp"
#include "common/config.hpp"

namespace mcsmr::bench {

// --- json primitives -----------------------------------------------------

namespace json {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";  // NaN/inf have no JSON encoding
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;  // 32 bytes always fit the shortest round-trip form
  return std::string(buf, ptr);
}

}  // namespace json

// --- JsonWriter ----------------------------------------------------------

void JsonWriter::indent() { out_.append(2 * needs_comma_.size(), ' '); }

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (needs_comma_.empty()) return;
  if (needs_comma_.back()) out_ += ',';
  needs_comma_.back() = true;
  out_ += '\n';
  indent();
}

void JsonWriter::begin_object() {
  separate();
  out_ += '{';
  needs_comma_.push_back(false);
}

void JsonWriter::end_object() {
  const bool had_members = needs_comma_.back();
  needs_comma_.pop_back();
  if (had_members) {
    out_ += '\n';
    indent();
  }
  out_ += '}';
}

void JsonWriter::begin_array() {
  separate();
  out_ += '[';
  needs_comma_.push_back(false);
}

void JsonWriter::end_array() {
  const bool had_members = needs_comma_.back();
  needs_comma_.pop_back();
  if (had_members) {
    out_ += '\n';
    indent();
  }
  out_ += ']';
}

JsonWriter& JsonWriter::key(std::string_view k) {
  separate();
  out_ += '"';
  out_ += json::escape(k);
  out_ += "\": ";
  after_key_ = true;
  return *this;
}

void JsonWriter::value(double v) {
  separate();
  out_ += json::number(v);
}

void JsonWriter::value(std::int64_t v) {
  separate();
  out_ += std::to_string(v);
}

void JsonWriter::value(std::uint64_t v) {
  separate();
  out_ += std::to_string(v);
}

void JsonWriter::value(bool v) {
  separate();
  out_ += v ? "true" : "false";
}

void JsonWriter::value(std::string_view v) {
  separate();
  out_ += '"';
  out_ += json::escape(v);
  out_ += '"';
}

void JsonWriter::null() {
  separate();
  out_ += "null";
}

// --- BenchArgs -----------------------------------------------------------

namespace {

[[noreturn]] void usage(const std::string& figure, int code) {
  std::printf(
      "bench_%s — see docs/BENCHMARKS.md for the figure this reproduces.\n"
      "\n"
      "Shared flags (all drivers):\n"
      "  --json          emit BENCH_%s.json next to the console output\n"
      "  --out PATH      output file (*.json) or directory, created if\n"
      "                  missing (implies --json)\n"
      "  --repeat N      repeat each [real] measurement N times (mean ± stderr)\n"
      "  --budget PPS    override the scaled-NIC packet budget\n"
      "  --smoke         short measurement windows + thinned sweeps\n"
      "  --seed S        base SimNet RNG seed (recorded in env{})\n"
      "  --set KEY=VALUE replica Config override, repeatable (keys and values:\n"
      "                  Config::apply_overrides in src/common/config.hpp)\n"
      "  --workload W    swarm workload: null or kv (keyed PUT traffic)\n"
      "  --keys N        kv workload key-space size\n"
      "  --conflict P    kv workload %% of requests hitting one hot key\n"
      "  --read-pct P    kv workload %% of requests that are GETs\n"
      "  --calibrate     re-derive [model] stage demands from a live run\n"
      "  --help          this message\n"
      "\n"
      "Unrecognized flags are passed through to the driver (e.g.\n"
      "--benchmark_* for the ablation drivers).\n",
      figure.c_str(), figure.c_str());
  std::exit(code);
}

/// `--name VALUE` or `--name=VALUE`; returns nullptr if argv[i] is not
/// `name`, advances `i` past a detached value.
const char* flag_value(std::string_view name, int argc, char** argv, int& i) {
  std::string_view arg = argv[i];
  if (arg == name) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %.*s requires a value\n", static_cast<int>(name.size()),
                   name.data());
      std::exit(2);
    }
    return argv[++i];
  }
  if (arg.size() > name.size() + 1 && arg.substr(0, name.size()) == name &&
      arg[name.size()] == '=') {
    return argv[i] + name.size() + 1;
  }
  return nullptr;
}

}  // namespace

BenchArgs BenchArgs::parse(int& argc, char** argv, std::string figure) {
  BenchArgs args;
  args.figure = std::move(figure);
  for (int i = 0; i < argc; ++i) {
    args.argv_line += (i ? " " : "");
    args.argv_line += argv[i];
  }

  int out_argc = 1;  // argv[0] stays
  std::vector<std::string> set_tokens;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(args.figure, 0);
    if (arg == "--json") {
      args.json = true;
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else if (const char* out_v = flag_value("--out", argc, argv, i)) {
      args.out = out_v;
    } else if (const char* repeat_v = flag_value("--repeat", argc, argv, i)) {
      args.repeat = std::atoi(repeat_v);
      if (args.repeat < 1) {
        std::fprintf(stderr, "error: --repeat wants a positive integer, got '%s'\n", repeat_v);
        std::exit(2);
      }
    } else if (const char* budget_v = flag_value("--budget", argc, argv, i)) {
      args.budget_pps = std::atof(budget_v);
      if (args.budget_pps <= 0) {
        std::fprintf(stderr, "error: --budget wants a positive pkts/s value, got '%s'\n",
                     budget_v);
        std::exit(2);
      }
    } else if (const char* seed_v = flag_value("--seed", argc, argv, i)) {
      char* end = nullptr;
      args.seed = std::strtoull(seed_v, &end, 0);
      if (end == seed_v || *end != '\0') {
        std::fprintf(stderr, "error: --seed wants an unsigned integer, got '%s'\n", seed_v);
        std::exit(2);
      }
    } else if (const char* set_v = flag_value("--set", argc, argv, i)) {
      set_tokens.emplace_back(set_v);
    } else if (arg == "--calibrate") {
      args.calibrate = true;
    } else if (const char* workload_v = flag_value("--workload", argc, argv, i)) {
      args.workload = workload_v;
      if (args.workload != "null" && args.workload != "kv") {
        std::fprintf(stderr, "error: --workload wants null or kv, got '%s'\n", workload_v);
        std::exit(2);
      }
    } else if (const char* keys_v = flag_value("--keys", argc, argv, i)) {
      args.kv_keys = std::atoi(keys_v);
      if (args.kv_keys < 1) {
        std::fprintf(stderr, "error: --keys wants a positive integer, got '%s'\n", keys_v);
        std::exit(2);
      }
    } else if (const char* conflict_v = flag_value("--conflict", argc, argv, i)) {
      args.kv_conflict_pct = std::atoi(conflict_v);
      if (args.kv_conflict_pct < 0 || args.kv_conflict_pct > 100) {
        std::fprintf(stderr, "error: --conflict wants a percentage in [0, 100], got '%s'\n",
                     conflict_v);
        std::exit(2);
      }
    } else if (const char* read_pct_v = flag_value("--read-pct", argc, argv, i)) {
      args.read_pct = std::atoi(read_pct_v);
      if (args.read_pct < 0 || args.read_pct > 100) {
        std::fprintf(stderr, "error: --read-pct wants a percentage in [0, 100], got '%s'\n",
                     read_pct_v);
        std::exit(2);
      }
    } else {
      args.passthrough.emplace_back(arg);
      argv[out_argc++] = argv[i];
      continue;
    }
  }
  argc = out_argc;
  argv[argc] = nullptr;
  // Config is the only validator: try the pairs on a scratch Config so a
  // bad key or value fails here, before any driver measures anything.
  try {
    args.set = Config::parse_pairs(set_tokens);
    Config{}.apply_overrides(args.set);
  } catch (const std::logic_error& e) {  // invalid_argument, out_of_range
    std::fprintf(stderr, "error: --set: %s\n", e.what());
    std::exit(2);
  }
  return args;
}

bool BenchArgs::flag(std::string_view name) const {
  for (const auto& arg : passthrough) {
    if (arg == name) return true;
  }
  return false;
}

std::string BenchArgs::out_path() const {
  const std::string file = "BENCH_" + figure + ".json";
  if (out.empty()) return file;
  // A `.json` suffix names the file itself; anything else names a
  // directory (which need not exist yet — finish() creates one level),
  // so a typo'd directory never silently becomes the output file.
  if (out.size() >= 5 && out.compare(out.size() - 5, 5, ".json") == 0) return out;
  return out.back() == '/' ? out + file : out + "/" + file;
}

// --- BenchPoint / BenchSeries --------------------------------------------

double BenchPoint::stderr_mean() const {
  if (has_explicit_err) return explicit_err;
  if (n < 2) return 0;
  const double var = m2 / (n - 1);
  return var > 0 ? std::sqrt(var / n) : 0;
}

BenchPoint& BenchSeries::point_at(double x, const std::string& label) {
  for (auto& p : points_) {
    if (label.empty() ? (p.label.empty() && p.x == x) : p.label == label) return p;
  }
  BenchPoint p;
  p.x = label.empty() ? x : static_cast<double>(points_.size());
  p.label = label;
  points_.push_back(std::move(p));
  return points_.back();
}

BenchSeries& BenchSeries::point(double x, double y) {
  point_at(x, "").add(y);
  return *this;
}

BenchSeries& BenchSeries::point(double x, double y, double stderr_mean) {
  BenchPoint& p = point_at(x, "");
  p.add(y);
  // A zero stderr means "no error bar" (single run), not a measured zero
  // variance; leave the point bare rather than emitting noise.
  if (stderr_mean > 0) {
    p.explicit_err = stderr_mean;
    p.has_explicit_err = true;
  }
  return *this;
}

BenchSeries& BenchSeries::labeled_point(const std::string& label, double y) {
  point_at(0, label).add(y);
  return *this;
}

BenchSeries& BenchSeries::config(const std::string& key, double v) {
  config_num_[key] = v;
  return *this;
}

BenchSeries& BenchSeries::config(const std::string& key, const std::string& v) {
  config_str_[key] = v;
  return *this;
}

// --- BenchReport ---------------------------------------------------------

BenchReport::BenchReport(const BenchArgs& args, std::string title)
    : args_(args), title_(std::move(title)) {
  utsname uts{};
  if (::uname(&uts) == 0) {
    env("host", std::string(uts.nodename));
    env("os", std::string(uts.sysname) + " " + uts.release);
  } else {
    env("host", std::string("unknown"));
    env("os", std::string("unknown"));
  }
  env("cores", static_cast<std::int64_t>(hardware_cores()));
#if defined(__VERSION__)
  env("compiler", std::string(__VERSION__));
#else
  env("compiler", std::string("unknown"));
#endif
#if defined(NDEBUG)
  env("build", std::string("release"));
#else
  env("build", std::string("debug"));
#endif
  char stamp[32];
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  env("timestamp_utc", std::string(stamp));
  env("argv", args_.argv_line);
  env("seed", args_.seed);
  env("repeat", static_cast<std::int64_t>(args_.repeat));
  env("smoke", args_.smoke);
  env("budget_pps", args_.budget_pps);  // 0 = driver default
  if (!args_.workload.empty()) env("workload", args_.workload);
  if (args_.kv_keys > 0) env("kv_keys", static_cast<std::int64_t>(args_.kv_keys));
  if (args_.kv_conflict_pct >= 0) {
    env("kv_conflict_pct", static_cast<std::int64_t>(args_.kv_conflict_pct));
  }
  if (args_.read_pct >= 0) env("read_pct", static_cast<std::int64_t>(args_.read_pct));
}

BenchSeries& BenchReport::series(const std::string& name, const std::string& kind,
                                 const std::string& metric, const std::string& unit,
                                 const std::string& x_axis) {
  for (auto& s : series_) {
    if (s->name() == name) return *s;
  }
  series_.push_back(std::make_unique<BenchSeries>(name, kind, metric, unit, x_axis));
  return *series_.back();
}

void BenchReport::env(const std::string& key, double v) {
  env_[key] = EnvValue{EnvValue::kNum, "", v, false, 0, 0};
}
void BenchReport::env(const std::string& key, const std::string& v) {
  env_[key] = EnvValue{EnvValue::kStr, v, 0, false, 0, 0};
}
void BenchReport::env(const std::string& key, bool v) {
  env_[key] = EnvValue{EnvValue::kBool, "", 0, v, 0, 0};
}
void BenchReport::env(const std::string& key, std::int64_t v) {
  env_[key] = EnvValue{EnvValue::kInt, "", 0, false, v, 0};
}
void BenchReport::env(const std::string& key, std::uint64_t v) {
  env_[key] = EnvValue{EnvValue::kUint, "", 0, false, 0, v};
}

std::string BenchReport::render() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema_version").value(kBenchSchemaVersion);
  w.key("figure").value(args_.figure);
  w.key("title").value(title_);
  w.key("series");
  w.begin_array();
  for (const auto& s : series_) {
    w.begin_object();
    w.key("name").value(s->name_);
    w.key("kind").value(s->kind_);
    w.key("metric").value(s->metric_);
    w.key("unit").value(s->unit_);
    w.key("x_axis").value(s->x_axis_);
    w.key("config");
    w.begin_object();
    std::vector<std::string> config_keys;
    for (const auto& [k, v] : s->config_num_) config_keys.push_back(k);
    for (const auto& [k, v] : s->config_str_) config_keys.push_back(k);
    std::sort(config_keys.begin(), config_keys.end());
    for (const auto& k : config_keys) {
      w.key(k);
      if (const auto it = s->config_num_.find(k); it != s->config_num_.end()) {
        w.value(it->second);
      } else {
        w.value(std::string_view(s->config_str_.at(k)));
      }
    }
    w.end_object();
    w.key("points");
    w.begin_array();
    for (const auto& p : s->points_) {
      w.begin_object();
      w.key("x").value(p.x);
      if (!p.label.empty()) w.key("label").value(p.label);
      w.key("y").value(p.mean());
      if (p.n > 1 || p.has_explicit_err) w.key("stderr").value(p.stderr_mean());
      if (p.n > 1) w.key("repeat").value(static_cast<std::int64_t>(p.n));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("env");
  w.begin_object();
  for (const auto& [k, v] : env_) {
    w.key(k);
    switch (v.kind) {
      case EnvValue::kStr: w.value(std::string_view(v.s)); break;
      case EnvValue::kNum: w.value(v.d); break;
      case EnvValue::kBool: w.value(v.b); break;
      case EnvValue::kInt: w.value(v.i); break;
      case EnvValue::kUint: w.value(v.u); break;
    }
  }
  // The --set pairs as passed (not the resolved Config): drivers that
  // never build a replica from them ignore them.
  if (!args_.set.empty()) {
    w.key("set");
    w.begin_object();
    for (const auto& [k, v] : args_.set) w.key(k).value(std::string_view(v));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

int BenchReport::finish() {
  if (!args_.emit_json()) return 0;
  const std::string path = args_.out_path();
  if (const auto slash = path.rfind('/'); slash != std::string::npos && slash > 0) {
    ::mkdir(path.substr(0, slash).c_str(), 0777);  // one level; EEXIST is fine
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  file << render();
  file.close();
  if (!file) {
    std::fprintf(stderr, "error: short write to %s\n", path.c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu series)\n", path.c_str(), series_.size());
  return 0;
}

}  // namespace mcsmr::bench
