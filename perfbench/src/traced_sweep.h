// The traced re-drive of the DMC driver's drift sweep (the crowd sweep of
// qmc/crowd_sweep.h plus a drift VGL batch per electron move), reissued
// from the benchmark with one span around every call into a layer.  Every
// call below is the library's own function on the library's own walker
// state, in the library's order, so a traced trajectory is bit-for-bit the
// untraced one; the workloads check that on the walker fingerprints.
//
// Only the physics every workload uses is re-driven: SoA distance tables and
// Jastrow (optimized_dt_jastrow) over SoA orbital outputs.
#ifndef PERFBENCH_TRACED_SWEEP_H
#define PERFBENCH_TRACED_SWEEP_H

#include <cmath>
#include <stdexcept>
#include <vector>

#include "bench.h"
#include "qmc/crowd_sweep.h"

namespace perfbench {

using mqc::detail::CrowdScratch;
using mqc::detail::MiniQMCSystem;
using mqc::detail::WalkerState;
using mqc::detail::qmc_real;

inline void require_traceable(const MiniQMCSystem& sys, const mqc::MiniQMCConfig& cfg)
{
  if (!cfg.optimized_dt_jastrow || sys.aos_outputs)
    throw std::runtime_error("traced sweep needs SoA distance tables, Jastrow and outputs");
}

/// detail::metropolis_move with spans around each layer call.
inline void traced_metropolis(WalkerState& w, const MiniQMCSystem& sys, int e,
                              const mqc::Vec3<qmc_real>& r_new, const qmc_real* v)
{
  double log_jr = 0.0;
  {
    SpanScope s(Layer::DistanceTemp);
    w.ee_soa->compute_temp(w.elec_soa, r_new, e);
    w.ei_soa->compute_temp(r_new);
  }
  {
    SpanScope s(Layer::JastrowRatio);
    log_jr = sys.j2_soa.ratio_log(*w.ee_soa, e) + sys.j1_soa.ratio_log(*w.ei_soa, e);
  }
  double det_ratio;
  mqc::DetUpdater& det = e < sys.norb ? w.det_up : w.det_dn;
  const int col = e < sys.norb ? e : e - sys.norb;
  {
    SpanScope s(Layer::DeterminantRatio);
    for (int n = 0; n < sys.norb; ++n)
      w.phi[static_cast<std::size_t>(n)] = static_cast<double>(v[n]) + (n == col ? 1.0 : 0.0);
    det_ratio = det.ratio(w.phi.data(), col);
  }
  const double p = std::exp(2.0 * log_jr) * det_ratio * det_ratio;
  if (w.rng.uniform() < p) {
    ++w.accepted;
    {
      SpanScope s(Layer::DistanceAccept);
      w.ee_soa->accept_move(e);
      w.ei_soa->accept_move(e);
    }
    {
      SpanScope s(Layer::DeterminantAccept);
      det.accept_move(w.phi.data(), col);
    }
    w.elec_soa.set(e, r_new);
    w.elec_aos[e] = r_new;
  }
}

/// The DMC drift sweep for the crowd [first, first+count), steps
/// [step_begin, step_end).
inline void traced_sweep_steps(const MiniQMCSystem& sys, const mqc::MiniQMCConfig& cfg,
                               std::vector<WalkerState>& walkers, int first, int count,
                               CrowdScratch& scr, mqc::TeamHandle inner, int step_begin,
                               int step_end, CoreCounts& counts)
{
  const double tau = cfg.dmc_tau;
  const double vmax = 1.0 / std::sqrt(tau);
  const double evals = static_cast<double>(count) * sys.norb;
  auto walker = [&](int i) -> WalkerState& { return walkers[static_cast<std::size_t>(first + i)]; };
  for (int s = step_begin; s < step_end; ++s) {
    for (int e = 0; e < sys.nel; ++e) {
      {
        SpanScope sp(Layer::CoreVgl);
        mqc::detail::crowd_eval_vgl(sys, cfg, walkers, first, count, e, scr, inner);
        counts.evals_vgl += evals;
      }
      const int col = e < sys.norb ? e : e - sys.norb;
      for (int i = 0; i < count; ++i) {
        WalkerState& w = walker(i);
        ++w.attempted;
        const mqc::Vec3<qmc_real> r_old = w.elec_soa[e];
        const double gx = static_cast<double>(w.out_soa->gx()[col]);
        const double gy = static_cast<double>(w.out_soa->gy()[col]);
        const double gz = static_cast<double>(w.out_soa->gz()[col]);
        const double vnorm = std::sqrt(gx * gx + gy * gy + gz * gz);
        const double scale = vnorm > vmax ? tau * vmax / vnorm : tau;
        const mqc::Vec3<qmc_real> center{static_cast<qmc_real>(r_old.x + scale * gx),
                                         static_cast<qmc_real>(r_old.y + scale * gy),
                                         static_cast<qmc_real>(r_old.z + scale * gz)};
        SpanScope sp(Layer::CommonPropose);
        scr.rnew[static_cast<std::size_t>(i)] = mqc::detail::propose(w.rng, center, cfg.move_sigma);
      }
      {
        SpanScope sp(Layer::CoreVgh);
        mqc::detail::crowd_eval_vgh(sys, walkers, first, count, scr, inner);
        counts.evals_vgh += evals;
      }
      for (int i = 0; i < count; ++i)
        traced_metropolis(walker(i), sys, e, scr.rnew[static_cast<std::size_t>(i)],
                          walker(i).out_soa->v.data());
    }

    for (int e = 0; e < sys.nel; ++e) {
      {
        SpanScope sp(Layer::CoreVgl);
        mqc::detail::crowd_eval_vgl(sys, cfg, walkers, first, count, e, scr, inner);
        counts.evals_vgl += evals;
      }
      for (int i = 0; i < count; ++i) {
        WalkerState& w = walker(i);
        const mqc::Vec3<qmc_real> re = w.elec_soa[e];
        {
          SpanScope sp(Layer::CommonPropose);
          for (int q = 0; q < cfg.quadrature_points; ++q)
            w.quad_r[static_cast<std::size_t>(q)] = mqc::detail::propose(w.rng, re, 0.5);
        }
        for (int q = 0; q < cfg.quadrature_points; ++q) {
          {
            SpanScope sp(Layer::DistanceTemp);
            w.ei_soa->compute_temp(w.quad_r[static_cast<std::size_t>(q)]);
          }
          {
            SpanScope sp(Layer::JastrowRatio);
            (void)sys.j1_soa.ratio_log(*w.ei_soa, e);
          }
        }
      }
      if (cfg.quadrature_points > 0) {
        SpanScope sp(Layer::CoreV);
        mqc::detail::crowd_eval_quad_v(sys, cfg, walkers, first, count, scr, inner);
        counts.evals_v += evals * cfg.quadrature_points;
      }
    }
    for (int i = 0; i < count; ++i) {
      WalkerState& w = walker(i);
      SpanScope sp(Layer::JastrowFull);
      (void)sys.j2_soa.evaluate_log(*w.ee_soa, w.jgrad.data(), w.jlap.data());
      (void)sys.j1_soa.evaluate_log(*w.ei_soa, w.jgrad.data(), w.jlap.data());
    }
  }
}

/// The walker fingerprints every driver reports (accepts, final log det).
struct Fingerprints
{
  std::vector<std::size_t> accepts;
  std::vector<double> log_det;

  bool operator==(const Fingerprints&) const = default;
};

inline Fingerprints fingerprints_of(const mqc::MiniQMCResult& r)
{
  return Fingerprints{r.walker_accepts, r.walker_log_det};
}

inline bool all_finite(const std::vector<double>& v)
{
  for (const double x : v)
    if (!std::isfinite(x))
      return false;
  return true;
}

} // namespace perfbench

#endif // PERFBENCH_TRACED_SWEEP_H
