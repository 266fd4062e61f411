// Shared plumbing of the repository benchmark: timing, order statistics,
// the run report every workload fills, and the span tracer used by the
// traced runs.
//
// The benchmark measures the program from outside.  Untraced runs time the
// public entry points only (run_miniqmc, OrbitalSet::evaluate).  Traced runs
// re-drive a workload's sweep from the benchmark's own code and record one
// span around every call into a layer of src/; nothing inside src/ is
// instrumented.
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Clocks and statistics
// ---------------------------------------------------------------------------

inline std::int64_t now_ns() noexcept
{
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0_ns) noexcept
{
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// Quantile with linear interpolation between order statistics (q in [0,1]).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// On a shared host a sample's time is the code's time plus whatever the
/// host took from it, and the host's share drifts over minutes: a run's
/// median follows the drift, its fast tail much less.  The gated timings are
/// therefore taken at the fast end, kFastQuantile of the sample times.
constexpr double kFastQuantile = 0.1;

/// Throughput at the fast end: consecutive samples are grouped into blocks
/// of @p block, and the (1 - kFastQuantile) quantile over blocks of
/// (work / seconds) is returned.  @p work and @p seconds are per-sample and
/// equally long.
double fast_rate(const std::vector<double>& work, const std::vector<double>& seconds,
                 std::size_t block);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Run report
// ---------------------------------------------------------------------------

struct Metric
{
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report
{
  bool correct = true;
  long long attempted = 0; ///< operations attempted (DMC runs, requests)
  long long failed = 0;    ///< operations that threw or failed an output check
  std::vector<Metric> metrics;
  /// Timings printed on the info line only: the median and tail, which on a
  /// shared host carry the host's drift and are not gated.
  std::vector<Metric> info;
  /// Sample count behind each timed metric (printed on the info line).
  std::vector<std::pair<std::string, long long>> samples;
  /// Per-layer metrics this workload cannot reach (reported as 0).
  std::vector<std::string> not_measured;
  /// Free-form facts printed on the info line (resolved schedule, sizes).
  std::vector<std::pair<std::string, std::string>> notes;
  /// One-line reasons for every failed check.
  std::vector<std::string> errors;

  void add(const std::string& name, double value, const char* unit)
  {
    metrics.push_back({name, value, unit});
  }
  void skip(const std::string& name, const char* unit)
  {
    metrics.push_back({name, 0.0, unit});
    not_measured.push_back(name);
  }
  /// Median and 90th percentile of @p seconds as info `<name>_p50`/`_p90`
  /// in ms, and the gated fast-end `<name>_p10`, with the sample count.
  void add_latency(const std::string& name, const std::vector<double>& seconds);
  void note(const std::string& key, const std::string& value) { notes.emplace_back(key, value); }
  void fail(const std::string& why, long long ops = 1)
  {
    failed += ops;
    errors.push_back(why);
  }
};

struct Options
{
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir; ///< scratch directory inside the checkout
};

// Workload entry points (dmc.cpp, vgh.cpp).
void run_dmc(const Options& opt, Report& rep);
void run_vgh(const Options& opt, Report& rep);

/// Derive the program's 64-bit config seed from the command-line seed.
std::uint64_t program_seed(std::uint64_t cli_seed, std::uint64_t salt);

// ---------------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------------

/// Span names: one per (layer, call) boundary the traced re-drives wrap.
/// The numeric values are the layer ids of the span files (README.md).
enum class Layer : std::uint8_t
{
  CoreVgh,
  CoreVgl,
  CoreV,
  DistanceTemp,
  DistanceAccept,
  JastrowRatio,
  JastrowFull,
  DeterminantRatio,
  DeterminantAccept,
  CommonPropose,
  QmcStep,
  QmcBranch,
  QmcCkptWrite,
  QmcCkptRead,
  QmcSetupTable,
  QmcSetupWalkers,
  Count
};

struct Span
{
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::uint32_t op = 0;     ///< operation id shared by every span of one run/request
  std::uint16_t thread = 0; ///< recording thread (outer team member)
  Layer layer = Layer::Count;
};

/// Record one finished span from the calling thread (thread-local buffer).
void trace_record(Layer layer, std::int64_t t0, std::int64_t t1) noexcept;
/// Operation id stamped on spans recorded from now on (set between regions).
void trace_set_op(std::uint32_t op) noexcept;
/// All spans recorded so far, across threads.
std::vector<Span> trace_collect();
/// Drop every recorded span (between a warm-up and the measured phase).
void trace_clear();
/// Write the recorded spans to @p path as packed little-endian 24-byte
/// records: i64 t0_ns, i64 t1_ns, u32 op, u16 thread, u8 layer, u8 zero.
bool trace_write(const std::string& path);

class SpanScope
{
public:
  explicit SpanScope(Layer l) noexcept : layer_(l), t0_(now_ns()) {}
  ~SpanScope() { trace_record(layer_, t0_, now_ns()); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

private:
  Layer layer_;
  std::int64_t t0_;
};

/// Per-layer totals over a span set.
struct LayerTotals
{
  double seconds[static_cast<int>(Layer::Count)] = {};
  long long calls[static_cast<int>(Layer::Count)] = {};

  [[nodiscard]] double s(Layer l) const noexcept { return seconds[static_cast<int>(l)]; }
  [[nodiscard]] long long n(Layer l) const noexcept { return calls[static_cast<int>(l)]; }
};

LayerTotals sum_layers(const std::vector<Span>& spans);

/// Share of step thread-time that no child span covers: the step spans'
/// wall time times the outer team width, minus the time covered by every
/// other span recorded inside them, over the former.
double unaccounted_fraction(const std::vector<Span>& spans, int outer_threads);

// ---------------------------------------------------------------------------
// Roofline placement (perf layer) for the traced runs
// ---------------------------------------------------------------------------

struct CeilingMeasurement
{
  double triad_gbps = 0.0;
  double fma_gflops = 0.0;
  double triad_bytes = 0.0; ///< total footprint of the three triad arrays
};

/// STREAM triad sized to at least 4x the L2+L3 sum, plus the FMA peak.
CeilingMeasurement measure_ceilings();

struct CoreCounts
{
  double evals_v = 0, evals_vgl = 0, evals_vgh = 0; ///< orbital evaluations per level
};

/// Add the core-layer roofline metrics (computed bytes/flops from
/// perf::kernel_cost_model against the measured ceilings).  @p core_seconds
/// is the core spans' total time for the same work as @p counts.
void add_core_roofline(Report& rep, const CoreCounts& counts, int num_splines,
                       double core_seconds, double ops, const CeilingMeasurement& ceil);

/// Sum of the host's L2 (all cores) and L3 sizes in bytes.
double cache_bytes();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
