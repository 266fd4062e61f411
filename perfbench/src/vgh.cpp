// Workload vgh-n2048-team: one walker issues single-position VGH requests
// (value, gradient, Hessian at a trial electron position, the drift-diffusion
// request) through OrbitalSet::evaluate over an N=2048 AoSoA table on a 48^3
// grid, with the whole machine as the request's team.  Positions are
// uniform over the spline domain, so consecutive requests share no
// coefficients and the table (about ten times the L2+L3 sum) streams from
// memory.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "bench.h"
#include "common/aligned_allocator.h"
#include "common/rng.h"
#include "core/multi_bspline.h"
#include "core/orbital_set.h"
#include "core/synthetic_orbitals.h"
#include "qmc/miniqmc_driver.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {
namespace {

using Real = float;
constexpr int kSplines = 2048;
constexpr int kGrid = 48;
/// Every kCheckEvery-th request is re-evaluated with a team of one.
constexpr int kCheckEvery = 97;
/// Table builds per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Requests per throughput block (a fraction of a second each).
constexpr std::size_t kRateBlock = 4096;

struct Engine
{
  std::unique_ptr<mqc::MultiBspline<Real>> spline;
  mqc::OrbitalSet<Real> spo;
};

/// Table build plus engine construction; the generated full table is
/// released once the engine holds its tiled copy.
std::unique_ptr<Engine> build_engine(std::uint64_t seed)
{
  auto eng = std::make_unique<Engine>();
  const auto grid = mqc::Grid3D<Real>::cube(kGrid, Real(1));
  auto table = mqc::make_random_storage<Real>(grid, kSplines, seed);
  // The drivers' default AoSoA tile size, so a change of default shows here.
  eng->spline = std::make_unique<mqc::MultiBspline<Real>>(*table, mqc::MiniQMCConfig{}.tile_size);
  eng->spo = mqc::OrbitalSet<Real>(*eng->spline);
  return eng;
}

/// One walker's SoA output buffers: v, g (3 streams), h (6 streams).
struct Outputs
{
  explicit Outputs(std::size_t stride)
      : stride(stride), v(stride), g(3 * stride), h(6 * stride)
  {
  }
  std::size_t stride;
  mqc::aligned_vector<Real> v, g, h;
};

struct Requester
{
  Requester(const Engine& eng, mqc::TeamHandle team)
      : eng(eng), out(eng.spo.capabilities().out_stride)
  {
    rq.deriv = mqc::DerivLevel::VGH;
    rq.positions = &pos;
    rq.count = 1;
    rq.v = &vp;
    rq.g = &gp;
    rq.lh = &hp;
    rq.stride = out.stride;
    rq.team = team;
    rq.parallel = team.parallel();
  }
  void evaluate(const mqc::Vec3<Real>& r)
  {
    pos = r;
    vp = out.v.data();
    gp = out.g.data();
    hp = out.h.data();
    eng.spo.evaluate(rq, res);
  }
  /// All N orbitals of every component (v, 3 g, 6 h) are finite.
  bool finite() const
  {
    auto stream_finite = [&](const Real* p) {
      return std::all_of(p, p + kSplines, [](Real x) { return std::isfinite(x); });
    };
    bool ok = stream_finite(out.v.data());
    for (std::size_t c = 0; c < 3 && ok; ++c)
      ok = stream_finite(out.g.data() + c * out.stride);
    for (std::size_t c = 0; c < 6 && ok; ++c)
      ok = stream_finite(out.h.data() + c * out.stride);
    return ok;
  }
  /// Bit-for-bit comparison of the N orbitals of every component.
  bool same_as(const Requester& o) const
  {
    const std::size_t n = kSplines * sizeof(Real);
    bool same = std::memcmp(out.v.data(), o.out.v.data(), n) == 0;
    for (std::size_t c = 0; c < 3 && same; ++c)
      same = std::memcmp(out.g.data() + c * out.stride, o.out.g.data() + c * o.out.stride, n) == 0;
    for (std::size_t c = 0; c < 6 && same; ++c)
      same = std::memcmp(out.h.data() + c * out.stride, o.out.h.data() + c * o.out.stride, n) == 0;
    return same;
  }

  const Engine& eng;
  Outputs out;
  mqc::OrbitalResource<Real> res;
  mqc::OrbitalEvalRequest<Real> rq;
  mqc::Vec3<Real> pos;
  Real *vp = nullptr, *gp = nullptr, *hp = nullptr;
};

int machine_threads()
{
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

std::unique_ptr<Engine> build_engines(const Options& opt, Report& rep, std::vector<double>& setup)
{
  std::unique_ptr<Engine> eng;
  for (int k = 0; k < kSetupRepeats; ++k) {
    eng.reset();
    const std::int64_t t0 = now_ns();
    eng = build_engine(program_seed(opt.seed, 2048));
    setup.push_back(seconds_since(t0));
  }
  rep.samples.emplace_back("setup_s", static_cast<long long>(setup.size()));
  rep.note("team", std::to_string(machine_threads()) + " threads (whole machine)");
  rep.note("tiles", std::to_string(eng->spline->num_tiles()));
  return eng;
}

mqc::Vec3<Real> next_position(mqc::Xoshiro256& rng)
{
  return {static_cast<Real>(rng.uniform()), static_cast<Real>(rng.uniform()),
          static_cast<Real>(rng.uniform())};
}

void vgh_end_to_end(const Options& opt, Report& rep)
{
  std::vector<double> setup;
  const auto eng = build_engines(opt, rep, setup);
  rep.add("setup_s", median(setup), "s");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");

  Requester team(*eng, mqc::TeamHandle::whole_machine());
  Requester serial(*eng, mqc::TeamHandle::serial());
  mqc::Xoshiro256 rng(program_seed(opt.seed, 7));
  std::vector<double> lat;
  lat.reserve(1 << 20);
  const std::int64_t start = now_ns();
  while (seconds_since(start) < opt.seconds) {
    const mqc::Vec3<Real> r = next_position(rng);
    ++rep.attempted;
    const std::int64_t t0 = now_ns();
    team.evaluate(r);
    lat.push_back(seconds_since(t0));
    if (!team.finite()) {
      rep.fail("non-finite orbital value at request " + std::to_string(rep.attempted));
      continue;
    }
    if (rep.attempted % kCheckEvery == 0) {
      serial.evaluate(r);
      if (!team.same_as(serial))
        rep.fail("request " + std::to_string(rep.attempted) + " differs from a team of 1");
    }
  }
  const double requests_per_s =
      fast_rate(std::vector<double>(lat.size(), 1.0), lat, kRateBlock);
  rep.add("moves_per_s", requests_per_s, "1/s");
  rep.add("orb_evals_per_s", requests_per_s * kSplines, "1/s");
  rep.add_latency("latency_ms", lat);
  rep.samples.emplace_back("serial_checks", rep.attempted / kCheckEvery);
}

void vgh_traced(const Options& opt, Report& rep)
{
  std::vector<double> setup;
  const auto eng = build_engines(opt, rep, setup);

  // Interleaved blocks over one request stream: untraced team requests,
  // traced team requests (one core.vgh span each) and the team-of-1
  // baseline on the same positions.
  Requester team(*eng, mqc::TeamHandle::whole_machine());
  Requester serial(*eng, mqc::TeamHandle::serial());
  mqc::Xoshiro256 rng(program_seed(opt.seed, 7));
  std::vector<double> plain, traced, single;
  trace_clear();
  const std::int64_t start = now_ns();
  std::uint32_t op = 0;
  while (seconds_since(start) < opt.seconds) {
    for (int k = 0; k < 256; ++k) {
      const std::int64_t t0 = now_ns();
      team.evaluate(next_position(rng));
      plain.push_back(seconds_since(t0));
    }
    for (int k = 0; k < 256; ++k) {
      const mqc::Vec3<Real> r = next_position(rng);
      trace_set_op(op++);
      const std::int64_t t0 = now_ns();
      {
        SpanScope s(Layer::CoreVgh);
        team.evaluate(r);
      }
      traced.push_back(seconds_since(t0));
      ++rep.attempted;
      if (!team.finite())
        rep.fail("non-finite orbital value in a traced request");
      if (k % 8 == 0) {
        const std::int64_t t1 = now_ns();
        serial.evaluate(r);
        single.push_back(seconds_since(t1));
        if (!team.same_as(serial))
          rep.fail("traced request differs from a team of 1");
      }
    }
  }
  const std::vector<Span> spans = trace_collect();
  trace_write(opt.workdir + "/spans-vgh.bin");
  const LayerTotals t = sum_layers(spans);
  const double reqs = static_cast<double>(t.n(Layer::CoreVgh));

  rep.add("core.vgh.self_s", t.s(Layer::CoreVgh) / reqs, "s");
  rep.skip("core.vgl.self_s", "s");
  rep.skip("core.v.self_s", "s");
  rep.add("core.evals", kSplines, "count");
  const double table = static_cast<double>(eng->spo.capabilities().coef_table_bytes);
  rep.add("core.table_bytes", table, "B");
  rep.add("core.table_cache_ratio", table / cache_bytes(), "ratio");
  CoreCounts counts;
  counts.evals_vgh = reqs * kSplines;
  add_core_roofline(rep, counts, kSplines, t.s(Layer::CoreVgh), reqs, measure_ceilings());
  const double team_p50 = quantile(traced, 0.5), serial_p50 = quantile(single, 0.5);
  rep.add("core.vgh.serial_us_p50", 1e6 * serial_p50, "us");
  rep.add("core.team_efficiency", serial_p50 / (team_p50 * machine_threads()), "ratio");
  for (const char* m : {"distance.temp.self_s", "distance.accept.self_s", "jastrow.ratio.self_s",
                        "jastrow.full.self_s", "determinant.ratio.self_s",
                        "determinant.accept.self_s"})
    rep.skip(m, "s");
  rep.skip("determinant.accept_frac", "ratio");
  rep.skip("common.propose.self_s", "s");
  rep.skip("qmc.step.wall_s", "s");
  rep.skip("qmc.unaccounted_frac", "ratio");
  for (const char* m : {"qmc.ckpt.write_s", "qmc.ckpt.read_s"})
    rep.skip(m, "s");
  rep.skip("qmc.ckpt.bytes", "B");
  rep.skip("qmc.ckpt.count", "count");
  rep.skip("qmc.branch.self_s", "s");
  for (const char* m : {"qmc.births", "qmc.deaths", "qmc.population_mean"})
    rep.skip(m, "count");
  rep.add("qmc.setup.table_s", median(setup), "s");
  rep.skip("qmc.setup.walkers_s", "s");
  rep.add("trace.overhead_frac", median(traced) / median(plain) - 1.0, "ratio");
  rep.samples.emplace_back("traced_requests", static_cast<long long>(traced.size()));
  rep.samples.emplace_back("untraced_requests", static_cast<long long>(plain.size()));
  rep.samples.emplace_back("serial_requests", static_cast<long long>(single.size()));
}

} // namespace

void run_vgh(const Options& opt, Report& rep)
{
  if (opt.trace)
    vgh_traced(opt, rep);
  else
    vgh_end_to_end(opt, rep);
}

} // namespace perfbench
