#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

#include "common/rng.h"
#include "common/sysinfo.h"
#include "perf/roofline.h"

namespace perfbench {

double quantile(std::vector<double> v, double q)
{
  if (v.empty())
    return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double fast_rate(const std::vector<double>& work, const std::vector<double>& seconds,
                 std::size_t block)
{
  std::vector<double> rates;
  for (std::size_t first = 0; first + block <= work.size(); first += block) {
    double w = 0.0, s = 0.0;
    for (std::size_t i = first; i < first + block; ++i) {
      w += work[i];
      s += seconds[i];
    }
    rates.push_back(w / s);
  }
  return quantile(rates, 1.0 - kFastQuantile);
}

void Report::add_latency(const std::string& name, const std::vector<double>& seconds)
{
  const std::string p10 = name + "_p" + std::to_string(static_cast<int>(100 * kFastQuantile));
  add(p10, 1e3 * quantile(seconds, kFastQuantile), "ms");
  info.push_back({name + "_p50", 1e3 * quantile(seconds, 0.5), "ms"});
  info.push_back({name + "_p90", 1e3 * quantile(seconds, 0.9), "ms"});
  samples.emplace_back(name, static_cast<long long>(seconds.size()));
}

double peak_rss_mb()
{
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

std::uint64_t program_seed(std::uint64_t cli_seed, std::uint64_t salt)
{
  mqc::SplitMix64 sm(cli_seed * 0x9e3779b97f4a7c15ULL + salt);
  return sm.next();
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {

struct ThreadBuffer
{
  std::vector<Span> spans;
  std::uint16_t thread = 0;
};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers; // guarded by g_buffers_mutex
std::uint32_t g_op = 0; // written only between parallel regions

ThreadBuffer& local_buffer()
{
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buf = g_buffers.back().get();
    buf->thread = static_cast<std::uint16_t>(g_buffers.size() - 1);
    buf->spans.reserve(1 << 16);
  }
  return *buf;
}

} // namespace

void trace_record(Layer layer, std::int64_t t0, std::int64_t t1) noexcept
{
  ThreadBuffer& b = local_buffer();
  b.spans.push_back(Span{t0, t1, g_op, b.thread, layer});
}

void trace_set_op(std::uint32_t op) noexcept { g_op = op; }

std::vector<Span> trace_collect()
{
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<Span> all;
  for (const auto& b : g_buffers)
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  return all;
}

void trace_clear()
{
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (auto& b : g_buffers)
    b->spans.clear();
}

bool trace_write(const std::string& path)
{
  const std::vector<Span> spans = trace_collect();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    return false;
  bool ok = true;
  for (const Span& s : spans) {
    unsigned char rec[24] = {};
    std::memcpy(rec, &s.t0, 8);
    std::memcpy(rec + 8, &s.t1, 8);
    std::memcpy(rec + 16, &s.op, 4);
    std::memcpy(rec + 20, &s.thread, 2);
    rec[22] = static_cast<unsigned char>(s.layer);
    ok = ok && std::fwrite(rec, sizeof rec, 1, f) == 1;
  }
  return std::fclose(f) == 0 && ok;
}

LayerTotals sum_layers(const std::vector<Span>& spans)
{
  LayerTotals t;
  for (const Span& s : spans) {
    const int i = static_cast<int>(s.layer);
    t.seconds[i] += static_cast<double>(s.t1 - s.t0) * 1e-9;
    t.calls[i] += 1;
  }
  return t;
}

double unaccounted_fraction(const std::vector<Span>& spans, int outer_threads)
{
  // Step spans are recorded by the driving thread around the whole outer
  // region; children are the layer spans of every outer member inside them.
  std::vector<std::pair<std::int64_t, std::int64_t>> steps;
  for (const Span& s : spans)
    if (s.layer == Layer::QmcStep)
      steps.emplace_back(s.t0, s.t1);
  std::sort(steps.begin(), steps.end());
  double wall = 0.0;
  for (const auto& st : steps)
    wall += static_cast<double>(st.second - st.first);
  if (wall <= 0.0)
    return 0.0;
  double covered = 0.0;
  for (const Span& s : spans) {
    if (s.layer == Layer::QmcStep)
      continue;
    auto it = std::upper_bound(steps.begin(), steps.end(),
                               std::make_pair(s.t0, std::int64_t{INT64_MAX}));
    if (it == steps.begin())
      continue;
    --it;
    if (s.t0 >= it->first && s.t1 <= it->second)
      covered += static_cast<double>(s.t1 - s.t0);
  }
  return 1.0 - covered / (wall * std::max(1, outer_threads));
}

// ---------------------------------------------------------------------------
// Roofline placement
// ---------------------------------------------------------------------------

double cache_bytes()
{
  const mqc::SystemInfo info = mqc::query_system_info();
  // sysconf reports the per-core L2; every logical CPU is counted once, which
  // over-counts only when SMT siblings share an L2.
  return static_cast<double>(info.l2_bytes) * std::max(1, info.logical_cpus) +
         static_cast<double>(info.l3_bytes);
}

CeilingMeasurement measure_ceilings()
{
  CeilingMeasurement c;
  // Three float arrays whose combined footprint is at least four times the
  // caches, so the triad streams from memory.
  const double target = 4.0 * std::max(cache_bytes(), 64.0 * 1024 * 1024);
  const auto n = static_cast<std::size_t>(target / (3.0 * sizeof(float))) + 1;
  c.triad_bytes = 3.0 * static_cast<double>(n) * sizeof(float);
  c.triad_gbps = mqc::measure_triad_bandwidth(n, 4) / 1e9;
  c.fma_gflops = mqc::measure_peak_gflops_sp(3);
  return c;
}

void add_core_roofline(Report& rep, const CoreCounts& counts, int num_splines,
                       double core_seconds, double ops, const CeilingMeasurement& ceil)
{
  const int eb = static_cast<int>(sizeof(float));
  const auto v = mqc::kernel_cost_model(mqc::KernelId::V, true, num_splines, eb);
  const auto vgl = mqc::kernel_cost_model(mqc::KernelId::VGL, true, num_splines, eb);
  const auto vgh = mqc::kernel_cost_model(mqc::KernelId::VGH, true, num_splines, eb);
  // The model is per single-position evaluation over num_splines orbitals;
  // counts are orbital evaluations, so divide by num_splines for calls.
  const double nv = counts.evals_v / num_splines;
  const double nvgl = counts.evals_vgl / num_splines;
  const double nvgh = counts.evals_vgh / num_splines;
  const double bytes = nv * v.mem_bytes + nvgl * vgl.mem_bytes + nvgh * vgh.mem_bytes;
  const double flops = nv * v.flops + nvgl * vgl.flops + nvgh * vgh.flops;
  const double gbps = core_seconds > 0.0 ? bytes / core_seconds / 1e9 : 0.0;
  const double gflops = core_seconds > 0.0 ? flops / core_seconds / 1e9 : 0.0;
  const double ai = bytes > 0.0 ? flops / bytes : 0.0;
  const double ceiling = mqc::roofline_ceiling(ai, ceil.fma_gflops, ceil.triad_gbps * 1e9);
  rep.add("core.bytes_computed", bytes / std::max(1.0, ops), "B");
  rep.add("core.gbps_computed", gbps, "GB/s");
  rep.add("core.roofline_frac", ceiling > 0.0 ? gflops / ceiling : 0.0, "ratio");
  rep.add("perf.triad_gbps", ceil.triad_gbps, "GB/s");
  rep.add("perf.fma_gflops", ceil.fma_gflops, "GFLOP/s");
  rep.note("core.ai_computed", std::to_string(ai));
  rep.note("perf.triad_footprint_bytes", std::to_string(static_cast<long long>(ceil.triad_bytes)));
}

} // namespace perfbench
