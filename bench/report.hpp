// Machine-readable benchmark reporting.
//
// Every figure/table driver funnels its measurements through a
// `BenchReport`: series of `[real]` / `[model]` points with an x-axis, a
// metric, units and per-series config. On `finish()` the report writes a
// `BENCH_<figure>.json` file conforming to the versioned schema documented
// in docs/BENCH_SCHEMA.md, so figure trajectories can be tracked across
// PRs (the console tables the drivers always printed are unchanged).
//
// The shared `BenchArgs` parser gives all drivers the same flags:
//   --json          emit BENCH_<figure>.json (console output is unchanged)
//   --out PATH      output file (*.json) or directory (implies --json)
//   --repeat N      repeat each [real] measurement N times (mean ± stderr)
//   --budget PPS    override the scaled-NIC packet budget
//   --smoke         short measurement windows + thinned sweeps (CI)
//   --seed S        base RNG seed for SimNet (recorded in env{})
//   --set KEY=VALUE Config override, repeatable; validated by
//                   Config::apply_overrides (the one place that knows the
//                   keys), applied last by run_real, recorded as env.set
//   --workload W    swarm workload: null (paper default) or kv
//   --keys N        kv workload key-space size
//   --conflict P    kv workload hot-key percentage [0, 100]
//   --read-pct P    kv workload GET percentage [0, 100]
//   --calibrate     drivers with a [model] series re-derive its stage
//                   demands from a live run (drivers without one ignore it)
// Unrecognized flags are left in argv for driver-specific handling
// (e.g. --benchmark_* for the ablation drivers).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mcsmr::bench {

/// Bumped whenever a field changes meaning or a required field is added;
/// see the versioning rules in docs/BENCH_SCHEMA.md.
inline constexpr int kBenchSchemaVersion = 1;

// --- minimal deterministic JSON emission ---------------------------------

namespace json {

/// RFC 8259 string escaping (quotes, backslash, control chars as \u00XX).
std::string escape(std::string_view s);

/// Shortest decimal that round-trips the double (std::to_chars). NaN and
/// +/-inf have no JSON representation and serialize as `null`.
std::string number(double v);

}  // namespace json

/// Streaming JSON writer. Output is deterministic: object keys appear in
/// the order they are written, indentation is fixed at two spaces.
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  JsonWriter& key(std::string_view k);
  void value(double v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(std::uint64_t v);
  void value(bool v);
  void value(std::string_view v);
  void value(const char* v) { value(std::string_view(v)); }
  void null();

  const std::string& str() const { return out_; }

 private:
  void separate();  ///< comma/newline/indent before the next element
  void indent();

  std::string out_;
  std::vector<bool> needs_comma_;
  bool after_key_ = false;
};

// --- shared driver flags -------------------------------------------------

struct BenchArgs {
  std::string figure;       ///< e.g. "fig04", "table1", "ablation_executor"
  bool json = false;        ///< emit BENCH_<figure>.json
  std::string out;          ///< output file or directory (implies json)
  int repeat = 1;           ///< repetitions per [real] point
  double budget_pps = 0;    ///< scaled-NIC packet budget override (0 = default)
  bool smoke = false;       ///< short windows + thinned sweeps
  std::uint64_t seed = 1;   ///< base SimNet RNG seed, recorded in env{}
  /// `--set` Config overrides (Config::apply_overrides keys), recorded as
  /// env.set.
  std::map<std::string, std::string> set;
  std::string workload;       ///< "" = driver default, else "null"/"kv"
  int kv_keys = 0;            ///< 0 = default key space (kv workload)
  int kv_conflict_pct = -1;   ///< -1 = default (kv workload hot-key share)
  int read_pct = -1;          ///< -1 = default (kv workload GET share)
  bool calibrate = false;     ///< re-derive [model] demands from a live run
  std::string argv_line;    ///< the original command line, recorded in env{}
  std::vector<std::string> passthrough;  ///< flags left for the driver

  /// Parse-and-strip: consumes the shared flags above and compacts argv so
  /// driver-specific parsing (or benchmark::Initialize) sees the rest.
  /// Prints usage and exits on --help; exits(2) on a malformed value,
  /// including a `--set` pair that Config rejects.
  static BenchArgs parse(int& argc, char** argv, std::string figure);

  bool emit_json() const { return json || !out.empty(); }

  /// True if `name` (e.g. "--benchmark_list_tests") was passed and not
  /// consumed.
  bool flag(std::string_view name) const;

  /// Resolved output path: `--out` verbatim when it ends in `.json`
  /// (a file path), otherwise `<out>/BENCH_<figure>.json` (a directory,
  /// created by finish() if missing), or `BENCH_<figure>.json` in the
  /// working directory by default.
  std::string out_path() const;
};

// --- the report ----------------------------------------------------------

/// One measured or modeled point. Repeated observations at the same x (or
/// label) aggregate into mean ± stderr; an explicit error bar (Table I's
/// sampled gauges) overrides the aggregated one.
struct BenchPoint {
  double x = 0;
  std::string label;  ///< set for labeled (categorical) points
  double mean_val = 0;
  double m2 = 0;  ///< sum of squared deviations (Welford — stable at any magnitude)
  int n = 0;
  double explicit_err = 0;
  bool has_explicit_err = false;

  void add(double y) {
    n += 1;
    const double delta = y - mean_val;
    mean_val += delta / n;
    m2 += delta * (y - mean_val);
  }
  double mean() const { return mean_val; }
  double stderr_mean() const;
};

class BenchSeries {
 public:
  BenchSeries(std::string name, std::string kind, std::string metric, std::string unit,
              std::string x_axis)
      : name_(std::move(name)),
        kind_(std::move(kind)),
        metric_(std::move(metric)),
        unit_(std::move(unit)),
        x_axis_(std::move(x_axis)) {}

  /// Record y at x; repeated calls with the same x aggregate (mean/stderr).
  BenchSeries& point(double x, double y);
  /// Record y at x with an explicit standard error of the mean.
  BenchSeries& point(double x, double y, double stderr_mean);
  /// Record y for a categorical x (x becomes the label's first-seen index).
  BenchSeries& labeled_point(const std::string& label, double y);

  BenchSeries& config(const std::string& key, double v);
  BenchSeries& config(const std::string& key, const std::string& v);

  const std::string& name() const { return name_; }

 private:
  friend class BenchReport;

  BenchPoint& point_at(double x, const std::string& label);

  std::string name_, kind_, metric_, unit_, x_axis_;
  std::map<std::string, std::string> config_str_;
  std::map<std::string, double> config_num_;
  std::vector<BenchPoint> points_;
};

class BenchReport {
 public:
  BenchReport(const BenchArgs& args, std::string title);

  /// Find-or-create a series by name. kind is "real" or "model".
  BenchSeries& series(const std::string& name, const std::string& kind,
                      const std::string& metric, const std::string& unit,
                      const std::string& x_axis);

  void env(const std::string& key, double v);
  void env(const std::string& key, const std::string& v);
  void env(const std::string& key, bool v);
  void env(const std::string& key, std::int64_t v);
  void env(const std::string& key, std::uint64_t v);

  /// The full JSON document (also what finish() writes).
  std::string render() const;

  /// Write BENCH_<figure>.json when --json/--out was given. Returns the
  /// process exit code: 0 on success (or when JSON is disabled), 1 when
  /// the output file cannot be written.
  int finish();

 private:
  struct EnvValue {
    enum Kind { kStr, kNum, kBool, kInt, kUint } kind = kStr;
    std::string s;
    double d = 0;
    bool b = false;
    std::int64_t i = 0;
    std::uint64_t u = 0;
  };

  BenchArgs args_;
  std::string title_;
  std::vector<std::unique_ptr<BenchSeries>> series_;
  std::map<std::string, EnvValue> env_;
};

}  // namespace mcsmr::bench
