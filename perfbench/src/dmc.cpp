// Workload dmc-graphite331-ckpt: full branching DMC (graphite 3x3x1, 144
// electrons, 72 orbitals, 16 target walkers, tau 0.2, 30 generations) with a
// snapshot written every generation into a directory the benchmark creates
// and removes.  One operation is one run_miniqmc call.
//
// Branching population sizes swing widely from one config seed to the next
// (a run may peak at the 64-walker cap or shrink to a handful), so a single
// trajectory makes a poor sample.  Each invocation therefore cycles through
// kConfigs configs derived from the command-line seed, and runs at least one
// more run than that, so config 0 is always rerun; every rerun must repeat
// its config's first run bit for bit.
//
// The latency of one generation is observed from outside: every generation
// ends by publishing a snapshot (rename onto the snapshot path), and an
// inotify watcher timestamps each publication.  The watcher also opens each
// published file at once, so every snapshot the run wrote can be loaded
// back after the run, even those the next generation rotated away.
#include <fcntl.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/inotify.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "core/coef_storage.h"
#include "qmc/checkpoint.h"
#include "traced_sweep.h"

namespace perfbench {
namespace {

constexpr int kGenerations = 30;
constexpr int kConfigs = 4;
constexpr int kSetupRepeats = 5;
constexpr const char* kSnapName = "snap";

/// Config @p k (0 <= k < kConfigs) of the invocation seeded with @p cli_seed.
mqc::MiniQMCConfig dmc_config(std::uint64_t cli_seed, int k, const std::string& snap_path)
{
  mqc::MiniQMCConfig cfg;
  cfg.supercell = {3, 3, 1};
  cfg.grid_size = 48;
  cfg.spo = mqc::SpoLayout::AoSoA;
  cfg.optimized_dt_jastrow = true;
  cfg.num_walkers = 16;
  cfg.driver = mqc::DriverMode::DMC;
  cfg.dmc_tau = 0.2;
  cfg.dmc_generations = kGenerations;
  cfg.checkpoint_path = snap_path;
  cfg.checkpoint_interval = 1;
  cfg.seed = program_seed(cli_seed, 331 + static_cast<std::uint64_t>(k));
  return cfg;
}

/// Timestamps and opens every snapshot published in a directory.  Owns its
/// thread; the destructor stops and joins it.
class SnapshotWatcher
{
public:
  struct Event
  {
    std::int64_t t = 0;
    int fd = -1; ///< open descriptor of the published file (-1 if open failed)
  };

  explicit SnapshotWatcher(const std::string& dir) : dir_(dir)
  {
    ino_ = inotify_init1(IN_CLOEXEC);
    stop_ = eventfd(0, EFD_CLOEXEC);
    if (ino_ < 0 || stop_ < 0 || inotify_add_watch(ino_, dir.c_str(), IN_MOVED_TO) < 0)
      throw std::runtime_error("inotify unavailable for " + dir);
    thread_ = std::thread([this] { loop(); });
  }
  ~SnapshotWatcher()
  {
    const std::uint64_t one = 1;
    (void)!write(stop_, &one, sizeof one);
    thread_.join();
    discard();
    close(ino_);
    close(stop_);
  }
  SnapshotWatcher(const SnapshotWatcher&) = delete;
  SnapshotWatcher& operator=(const SnapshotWatcher&) = delete;

  /// Wait until @p n publications were seen (or 5 s passed), then hand them
  /// over; the caller owns the descriptors.
  std::vector<Event> wait_take(std::size_t n)
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::seconds(5), [&] { return events_.size() >= n; });
    return std::exchange(events_, {});
  }
  /// Drop (and close) every publication seen so far.
  void discard()
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Event& e : events_)
      if (e.fd >= 0)
        close(e.fd);
    events_.clear();
  }

private:
  void loop()
  {
    alignas(inotify_event) char buf[4096];
    pollfd fds[2] = {{ino_, POLLIN, 0}, {stop_, POLLIN, 0}};
    while (true) {
      if (poll(fds, 2, -1) < 0)
        continue;
      if (fds[1].revents != 0)
        return;
      const ssize_t len = read(ino_, buf, sizeof buf);
      const std::int64_t t = now_ns();
      for (ssize_t off = 0; off < len;) {
        const auto* ev = reinterpret_cast<const inotify_event*>(buf + off);
        off += static_cast<ssize_t>(sizeof(inotify_event) + ev->len);
        if (ev->len == 0 || std::strcmp(ev->name, kSnapName) != 0)
          continue;
        const Event e{t, open((dir_ + "/" + kSnapName).c_str(), O_RDONLY | O_CLOEXEC)};
        {
          std::lock_guard<std::mutex> lock(mutex_);
          events_.push_back(e);
        }
        cv_.notify_all();
      }
    }
  }

  std::string dir_;
  int ino_ = -1;
  int stop_ = -1;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Event> events_; // guarded by mutex_
  std::thread thread_;        // last: started after every member it uses
};

/// Everything two runs of one config must agree on bit for bit.
struct DmcOutcome
{
  std::vector<int> population;
  std::uint64_t births = 0, deaths = 0;
  double trial_energy = 0.0;
  Fingerprints fp;

  bool operator==(const DmcOutcome&) const = default;
};

DmcOutcome outcome_of(const mqc::MiniQMCResult& r)
{
  return DmcOutcome{r.dmc_population, r.dmc_births, r.dmc_deaths, r.dmc_trial_energy,
                    fingerprints_of(r)};
}

std::uint64_t config_hash(const mqc::MiniQMCConfig& cfg)
{
  const MiniQMCSystem sys(cfg);
  return mqc::detail::miniqmc_config_hash(cfg, sys);
}

/// Load one published snapshot back; returns its step, or -1 on failure.
int load_snapshot(const std::string& path, std::uint64_t hash, std::string& why)
{
  mqc::ckpt::Snapshot snap;
  const mqc::ckpt::LoadResult lr = mqc::ckpt::read_snapshot(path, hash, snap);
  if (!lr.loaded()) {
    why = std::string(mqc::ckpt::load_error_name(lr.error)) + ": " + lr.detail;
    return -1;
  }
  const mqc::ckpt::Section* meta = snap.find(mqc::ckpt::SectionId::Meta);
  if (meta == nullptr || meta->payload.size() < 4) {
    why = "no meta section";
    return -1;
  }
  mqc::ckpt::BlobReader br(meta->payload);
  return static_cast<int>(br.u32());
}

/// Per-operation output checks of one untraced run; returns "" when clean.
std::string check_run(const mqc::MiniQMCResult& r, const DmcOutcome* first,
                      std::vector<SnapshotWatcher::Event>& events, std::uint64_t hash)
{
  std::string why;
  if (!all_finite(r.walker_log_det) || !std::isfinite(r.dmc_trial_energy))
    why = "non-finite log det or trial energy";
  else if (r.dmc_births == 0 || r.dmc_deaths == 0)
    why = "population did not branch (births " + std::to_string(r.dmc_births) + ", deaths " +
          std::to_string(r.dmc_deaths) + ")";
  else if (first != nullptr && !(outcome_of(r) == *first))
    why = "repetition differs from the first run of the same config";
  else if (r.checkpoints_written != kGenerations ||
           events.size() != static_cast<std::size_t>(kGenerations))
    why = "expected " + std::to_string(kGenerations) + " snapshots, wrote " +
          std::to_string(r.checkpoints_written) + ", saw " + std::to_string(events.size());
  for (std::size_t g = 0; g < events.size(); ++g) {
    std::string load_why;
    const int step = events[g].fd < 0
                         ? -1
                         : load_snapshot("/proc/self/fd/" + std::to_string(events[g].fd), hash,
                                         load_why);
    if (why.empty() && step != static_cast<int>(g) + 1)
      why = "snapshot " + std::to_string(g + 1) + " did not load back: " +
            (load_why.empty() ? "step " + std::to_string(step) : load_why);
    if (events[g].fd >= 0)
      close(events[g].fd);
  }
  return why;
}

void dmc_end_to_end(const Options& opt, Report& rep, const std::string& dir)
{
  std::vector<mqc::MiniQMCConfig> cfgs;
  std::vector<std::uint64_t> hashes;
  for (int k = 0; k < kConfigs; ++k) {
    cfgs.push_back(dmc_config(opt.seed, k, dir + "/" + kSnapName));
    hashes.push_back(config_hash(cfgs.back()));
  }

  // setup_s: time until the first generation could run — a zero-generation
  // run of the same config.
  std::vector<double> setup;
  for (int k = 0; k < kSetupRepeats; ++k) {
    mqc::MiniQMCConfig c0 = cfgs.front();
    c0.dmc_generations = 0;
    const std::int64_t t0 = now_ns();
    (void)mqc::run_miniqmc(c0);
    setup.push_back(seconds_since(t0));
  }
  rep.add("setup_s", median(setup), "s");
  rep.samples.emplace_back("setup_s", static_cast<long long>(setup.size()));
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");

  SnapshotWatcher watcher(dir);
  std::vector<double> gen_lat;
  std::vector<double> gen_moves, gen_secs;
  double evals_per_move = 0.0;
  std::vector<std::unique_ptr<DmcOutcome>> first(kConfigs);
  // A run takes seconds, so stop before the one that would overrun.
  const std::int64_t start = now_ns();
  double last_run = 0.0;
  while (seconds_since(start) + last_run < opt.seconds || rep.attempted <= kConfigs) {
    const auto k = static_cast<std::size_t>(rep.attempted % kConfigs);
    const mqc::MiniQMCConfig& cfg = cfgs[k];
    ++rep.attempted;
    watcher.discard();
    const std::int64_t t0 = now_ns();
    mqc::MiniQMCResult r;
    try {
      r = mqc::run_miniqmc(cfg);
    } catch (const std::exception& e) {
      rep.fail(std::string("run_miniqmc threw: ") + e.what());
      continue;
    }
    last_run = seconds_since(t0);
    std::vector<SnapshotWatcher::Event> events =
        watcher.wait_take(static_cast<std::size_t>(kGenerations));
    // Generation latency: between consecutive publications (the first
    // generation also carries the run's set-up, so it is left out), scaled
    // from the population the generation swept to the target population.
    // Unscaled, the tail would measure how far the trajectory's population
    // swung rather than the code.
    // The same generations give the move rate: the population a generation
    // swept times its electron moves, over its time (the result's counters
    // cover only the walkers alive at the end).
    for (std::size_t g = 1; g < events.size() && g <= r.dmc_population.size(); ++g) {
      const double secs = static_cast<double>(events[g].t - events[g - 1].t) * 1e-9;
      const int swept = std::max(1, r.dmc_population[g - 1]);
      gen_lat.push_back(secs * cfg.num_walkers / swept);
      gen_moves.push_back(static_cast<double>(swept) * cfg.dmc_gen_steps * r.num_electrons);
      gen_secs.push_back(secs);
    }
    // Per move: drift VGL, trial VGH, measurement VGL and the V batch.
    evals_per_move = (3.0 + cfg.quadrature_points) * r.num_orbitals;
    const std::string why = check_run(r, first[k].get(), events, hashes[k]);
    if (!why.empty())
      rep.fail("config " + std::to_string(k) + ": " + why);
    if (!first[k]) {
      first[k] = std::make_unique<DmcOutcome>(outcome_of(r));
      const std::string tag = "config" + std::to_string(k);
      rep.note(tag + ".births", std::to_string(r.dmc_births));
      rep.note(tag + ".deaths", std::to_string(r.dmc_deaths));
      rep.note(tag + ".final_population", std::to_string(r.num_walkers));
      if (k == 0) {
        rep.note("partition", std::to_string(r.outer_threads_used) + "x" +
                                  std::to_string(r.inner_threads_used));
        rep.note("team_path", mqc::team_path_name(r.team_path));
      }
    }
  }
  const double moves_per_s = fast_rate(gen_moves, gen_secs, 1);
  rep.add("moves_per_s", moves_per_s, "1/s");
  rep.add("orb_evals_per_s", moves_per_s * evals_per_move, "1/s");
  rep.add_latency("latency_ms", gen_lat);
  rep.samples.emplace_back("dmc_runs", rep.attempted);
}

// ---------------------------------------------------------------------------
// Traced re-drive of run_miniqmc_dmc (qmc/dmc_driver.cpp)
// ---------------------------------------------------------------------------

struct TracedDmc
{
  mqc::MiniQMCResult result;
  CoreCounts counts;
  double read_s = 0.0;    ///< snapshot read-back time (verification, not the run's)
  double ckpt_bytes = 0.0;
  int ckpt_failed = 0;
  double population_sum = 0.0; ///< walkers swept, summed over generations
};

struct CrowdRef
{
  int shard = 0, first = 0, count = 0;
};

std::vector<CrowdRef> decompose(int nw, int shards, int cap)
{
  std::vector<CrowdRef> crowds;
  for (int s = 0; s < shards; ++s) {
    const mqc::Range r = mqc::block_range(static_cast<std::size_t>(nw),
                                          static_cast<std::size_t>(shards),
                                          static_cast<std::size_t>(s));
    const int shard_nw = static_cast<int>(r.size());
    if (shard_nw == 0)
      continue;
    const int csize = cap > 0 ? std::min(cap, shard_nw) : shard_nw;
    for (int f = static_cast<int>(r.first); f < static_cast<int>(r.last); f += csize)
      crowds.push_back({s, f, std::min(static_cast<int>(r.last) - f, csize)});
  }
  return crowds;
}

double local_energy(const WalkerState& w, int nel)
{
  return -(w.det_up.log_det() + w.det_dn.log_det()) / static_cast<double>(nel);
}

/// run_miniqmc_dmc for a fresh (non-resumed, non-replay) run, with spans.
TracedDmc traced_dmc(const mqc::MiniQMCConfig& cfg)
{
  using namespace mqc::detail;
  TracedDmc out;
  std::vector<std::unique_ptr<MiniQMCSystem>> shard_sys;
  mqc::CoefReplicaSet<qmc_real> replicas;
  int num_shards = 1;
  {
    SpanScope s(Layer::QmcSetupTable);
    shard_sys.push_back(std::make_unique<MiniQMCSystem>(cfg));
    num_shards = std::min(mqc::resolve_shard_count(0), shard_sys.front()->nw);
    shard_sys.resize(static_cast<std::size_t>(num_shards));
    replicas = mqc::CoefReplicaSet<qmc_real>(shard_sys.front()->coefs, num_shards);
    mqc::team_for(mqc::TeamHandle::of(num_shards), num_shards, [&](int sh) {
      if (sh > 0)
        shard_sys[static_cast<std::size_t>(sh)] =
            std::make_unique<MiniQMCSystem>(cfg, replicas.replicate(sh));
    });
  }
  const MiniQMCSystem& sys0 = *shard_sys.front();
  require_traceable(sys0, cfg);
  const int nw0 = sys0.nw;
  const int gen_steps = std::max(1, cfg.dmc_gen_steps);
  const int generations = cfg.dmc_generations;
  const int total_steps = generations * gen_steps;
  const int target = cfg.dmc_target_walkers > 0 ? cfg.dmc_target_walkers : nw0;
  const int pop_cap = 4 * target;
  const int max_branch = std::max(1, cfg.dmc_max_branch);
  const double wmin = std::min(cfg.dmc_weight_min, cfg.dmc_weight_max);
  const double wmax = std::max(cfg.dmc_weight_min, cfg.dmc_weight_max);
  const double gen_tau = cfg.dmc_tau * gen_steps;
  const int crowd_cap = cfg.crowd_size < 0 ? sys0.tuned_crowd_size : cfg.crowd_size;

  std::vector<WalkerState> walkers(static_cast<std::size_t>(nw0));
  std::vector<CrowdRef> crowds = decompose(nw0, num_shards, crowd_cap);
  const int init_crowds = static_cast<int>(crowds.size());
  const mqc::ThreadPartition part = resolve_team_partition(cfg, sys0, init_crowds);
  const mqc::TeamHandle inner = mqc::TeamHandle::inner_of(part);
  mqc::MiniQMCResult& result = out.result;
  result.outer_threads_used = part.outer;
  result.inner_threads_used = part.inner;
  {
    SpanScope s(Layer::QmcSetupWalkers);
    mqc::team_for(mqc::TeamHandle::of(init_crowds), init_crowds, [&](int cid) {
      const CrowdRef c = crowds[static_cast<std::size_t>(cid)];
      for (int wid = c.first; wid < c.first + c.count; ++wid)
        init_walker(walkers[static_cast<std::size_t>(wid)],
                    *shard_sys[static_cast<std::size_t>(c.shard)], cfg, wid);
    });
  }
  DmcRunState st;
  st.weights.assign(static_cast<std::size_t>(nw0), 1.0);
  const CheckpointRuntime ckrt = make_checkpoint_runtime(cfg, sys0);
  {
    double sum = 0.0;
    for (const WalkerState& w : walkers)
      sum += local_energy(w, sys0.nel);
    st.trial_energy = sum / static_cast<double>(walkers.size());
  }

  std::vector<CoreCounts> counts;
  for (int gen = 0; gen < generations; ++gen) {
    trace_set_op(static_cast<std::uint32_t>(gen));
    out.population_sum += static_cast<double>(walkers.size());
    const int step_begin = gen * gen_steps;
    const int step_end = step_begin + gen_steps;
    const int num_crowds = static_cast<int>(crowds.size());
    counts.assign(static_cast<std::size_t>(num_crowds), CoreCounts{});
    {
      SpanScope s(Layer::QmcStep);
      mqc::team_for(mqc::TeamHandle::of(num_crowds), num_crowds, [&](int cid) {
        const CrowdRef c = crowds[static_cast<std::size_t>(cid)];
        const MiniQMCSystem& ssys = *shard_sys[static_cast<std::size_t>(c.shard)];
        for (int wid = c.first; wid < c.first + c.count; ++wid)
          walkers[static_cast<std::size_t>(wid)].set_team(inner.bound_to_current_region());
        CrowdScratch scr(walkers, c.first, c.count, ssys);
        traced_sweep_steps(ssys, cfg, walkers, c.first, c.count, scr, inner, step_begin,
                           step_end, counts[static_cast<std::size_t>(cid)]);
      });
    }
    for (const CoreCounts& c : counts) {
      out.counts.evals_v += c.evals_v;
      out.counts.evals_vgl += c.evals_vgl;
      out.counts.evals_vgh += c.evals_vgh;
    }
    {
      SpanScope s(Layer::QmcBranch);
      const int n = static_cast<int>(walkers.size());
      for (int i = 0; i < n; ++i) {
        const double e_l = local_energy(walkers[static_cast<std::size_t>(i)], sys0.nel);
        double& wgt = st.weights[static_cast<std::size_t>(i)];
        wgt *= std::exp(-gen_tau * (e_l - st.trial_energy));
        wgt = std::min(wmax, std::max(wmin, wgt));
      }
      std::vector<WalkerState> next;
      std::vector<double> next_w;
      next.reserve(walkers.size());
      next_w.reserve(walkers.size());
      for (int i = 0; i < n; ++i) {
        WalkerState& parent = walkers[static_cast<std::size_t>(i)];
        const double wgt = st.weights[static_cast<std::size_t>(i)];
        int m = static_cast<int>(wgt + parent.rng.uniform());
        m = std::min(m, max_branch);
        m = std::min(m, pop_cap - static_cast<int>(next.size()));
        if (m <= 0) {
          ++st.deaths;
          continue;
        }
        const double wchild = wgt / m;
        std::vector<WalkerState> kids;
        for (int k = 1; k < m; ++k) {
          WalkerState child;
          init_walker_shell(child, sys0, cfg);
          clone_walker_state(child, parent, sys0, cfg);
          child.rng = parent.rng.split();
          kids.push_back(std::move(child));
          ++st.births;
        }
        next.push_back(std::move(parent));
        next_w.push_back(wchild);
        for (auto& kid : kids) {
          next.push_back(std::move(kid));
          next_w.push_back(wchild);
        }
      }
      if (next.empty()) {
        int best = 0;
        for (int i = 1; i < n; ++i)
          if (st.weights[static_cast<std::size_t>(i)] > st.weights[static_cast<std::size_t>(best)])
            best = i;
        next.push_back(std::move(walkers[static_cast<std::size_t>(best)]));
        next_w.push_back(st.weights[static_cast<std::size_t>(best)]);
        st.deaths -= 1;
      }
      walkers = std::move(next);
      st.weights = std::move(next_w);
      st.trial_energy -= cfg.dmc_feedback * std::log(static_cast<double>(walkers.size()) /
                                                     static_cast<double>(target));
      crowds = decompose(static_cast<int>(walkers.size()), num_shards, crowd_cap);
    }
    st.generation = gen + 1;
    result.dmc_population.push_back(static_cast<int>(walkers.size()));
    {
      SpanScope s(Layer::QmcCkptWrite);
      dmc_checkpoint_boundary(ckrt, cfg, sys0, walkers, st, step_end, total_steps, result);
    }
    // Verification: every snapshot written loads back with the config hash.
    const std::int64_t t0 = now_ns();
    std::string why;
    const int step = load_snapshot(ckrt.path, ckrt.config_hash, why);
    trace_record(Layer::QmcCkptRead, t0, now_ns());
    out.read_s += seconds_since(t0);
    if (step != step_end)
      ++out.ckpt_failed;
    std::error_code ec;
    out.ckpt_bytes += static_cast<double>(std::filesystem::file_size(ckrt.path, ec));
  }
  result.dmc_births = st.births;
  result.dmc_deaths = st.deaths;
  result.dmc_trial_energy = st.trial_energy;
  result.num_walkers = static_cast<int>(walkers.size());
  reduce_result(result, walkers);
  return out;
}

void dmc_traced(const Options& opt, Report& rep, const std::string& dir)
{
  // Alternate an untraced and a traced run of each config in turn; every
  // traced run must reproduce the untraced outcome bit for bit.
  std::vector<double> overhead;
  mqc::MiniQMCResult resolved;
  CoreCounts counts;
  double read_s = 0.0, bytes = 0.0, population = 0.0, births = 0.0, deaths = 0.0;
  double accept = 0.0;
  int ckpt_count = 0;
  bool valid = true;
  trace_clear();
  const std::int64_t start = now_ns();
  double last_pair = 0.0;
  while (seconds_since(start) + last_pair < opt.seconds || rep.attempted < 1) {
    const std::int64_t pair_start = now_ns();
    const mqc::MiniQMCConfig cfg =
        dmc_config(opt.seed, static_cast<int>(rep.attempted % kConfigs), dir + "/" + kSnapName);
    ++rep.attempted;
    std::int64_t t0 = now_ns();
    resolved = mqc::run_miniqmc(cfg);
    const double plain = seconds_since(t0);
    t0 = now_ns();
    const TracedDmc tr = traced_dmc(cfg);
    // The read-back is verification the untraced run does not do.
    overhead.push_back((seconds_since(t0) - tr.read_s) / plain - 1.0);
    counts.evals_v += tr.counts.evals_v;
    counts.evals_vgl += tr.counts.evals_vgl;
    counts.evals_vgh += tr.counts.evals_vgh;
    read_s += tr.read_s;
    bytes += tr.ckpt_bytes;
    ckpt_count += tr.result.checkpoints_written;
    population += tr.population_sum / kGenerations;
    births += static_cast<double>(tr.result.dmc_births);
    deaths += static_cast<double>(tr.result.dmc_deaths);
    accept += tr.result.acceptance_ratio;
    if (!(outcome_of(tr.result) == outcome_of(resolved)) || tr.ckpt_failed > 0) {
      valid = false;
      rep.fail(tr.ckpt_failed > 0 ? "a traced snapshot did not load back"
                                  : "traced DMC outcome differs from run_miniqmc");
    }
    last_pair = seconds_since(pair_start);
  }
  rep.correct = rep.correct && valid;
  rep.note("trace_valid", valid ? "true" : "false");
  rep.note("partition", std::to_string(resolved.outer_threads_used) + "x" +
                            std::to_string(resolved.inner_threads_used));
  const std::vector<Span> spans = trace_collect();
  trace_write(opt.workdir + "/spans-dmc.bin");

  const double runs = static_cast<double>(rep.attempted);
  const LayerTotals t = sum_layers(spans);
  const double core_s = t.s(Layer::CoreVgh) + t.s(Layer::CoreVgl) + t.s(Layer::CoreV);
  const mqc::MiniQMCConfig cfg = dmc_config(opt.seed, 0, dir + "/" + kSnapName);
  rep.add("core.vgh.self_s", t.s(Layer::CoreVgh) / runs, "s");
  rep.add("core.vgl.self_s", t.s(Layer::CoreVgl) / runs, "s");
  rep.add("core.v.self_s", t.s(Layer::CoreV) / runs, "s");
  rep.add("core.evals", (counts.evals_v + counts.evals_vgl + counts.evals_vgh) / runs, "count");
  const MiniQMCSystem sys(cfg);
  const double table = static_cast<double>(sys.spo.capabilities().coef_table_bytes);
  rep.add("core.table_bytes", table, "B");
  rep.add("core.table_cache_ratio", table / cache_bytes(), "ratio");
  add_core_roofline(rep, counts, sys.norb, core_s, runs, measure_ceilings());
  {
    // Single-thread baseline: a 16-position VGH request, resolved team vs 1.
    std::vector<WalkerState> ws(16);
    for (int i = 0; i < 16; ++i)
      mqc::detail::init_walker(ws[static_cast<std::size_t>(i)], sys, cfg, i);
    CrowdScratch scr(ws, 0, 16, sys);
    for (int i = 0; i < 16; ++i)
      scr.rnew[static_cast<std::size_t>(i)] = ws[static_cast<std::size_t>(i)].elec_soa[0];
    const mqc::TeamHandle team = mqc::TeamHandle::of(resolved.inner_threads_used);
    std::vector<double> team_lat, serial_lat;
    for (int k = 0; k < 100; ++k) {
      std::int64_t t0 = now_ns();
      mqc::detail::crowd_eval_vgh(sys, ws, 0, 16, scr, team);
      team_lat.push_back(seconds_since(t0));
      t0 = now_ns();
      mqc::detail::crowd_eval_vgh(sys, ws, 0, 16, scr, mqc::TeamHandle::serial());
      serial_lat.push_back(seconds_since(t0));
    }
    const double tp = quantile(team_lat, 0.5), sp = quantile(serial_lat, 0.5);
    rep.add("core.vgh.serial_us_p50", 1e6 * sp, "us");
    rep.add("core.team_efficiency", sp / (tp * std::max(1, resolved.inner_threads_used)),
            "ratio");
  }
  rep.add("distance.temp.self_s", t.s(Layer::DistanceTemp) / runs, "s");
  rep.add("distance.accept.self_s", t.s(Layer::DistanceAccept) / runs, "s");
  rep.add("jastrow.ratio.self_s", t.s(Layer::JastrowRatio) / runs, "s");
  rep.add("jastrow.full.self_s", t.s(Layer::JastrowFull) / runs, "s");
  rep.add("determinant.ratio.self_s", t.s(Layer::DeterminantRatio) / runs, "s");
  rep.add("determinant.accept.self_s", t.s(Layer::DeterminantAccept) / runs, "s");
  rep.add("determinant.accept_frac", accept / runs, "ratio");
  rep.add("common.propose.self_s", t.s(Layer::CommonPropose) / runs, "s");
  rep.add("qmc.step.wall_s", t.s(Layer::QmcStep) / static_cast<double>(t.n(Layer::QmcStep)), "s");
  rep.add("qmc.unaccounted_frac", unaccounted_fraction(spans, resolved.outer_threads_used),
          "ratio");
  rep.add("qmc.ckpt.write_s", t.s(Layer::QmcCkptWrite) / runs, "s");
  rep.add("qmc.ckpt.read_s", read_s / runs, "s");
  rep.add("qmc.ckpt.bytes", bytes / runs, "B");
  rep.add("qmc.ckpt.count", static_cast<double>(ckpt_count) / runs, "count");
  rep.add("qmc.branch.self_s", t.s(Layer::QmcBranch) / runs, "s");
  rep.add("qmc.births", births / runs, "count");
  rep.add("qmc.deaths", deaths / runs, "count");
  rep.add("qmc.population_mean", population / runs, "count");
  rep.add("qmc.setup.table_s", t.s(Layer::QmcSetupTable) / runs, "s");
  rep.add("qmc.setup.walkers_s", t.s(Layer::QmcSetupWalkers) / runs, "s");
  rep.add("trace.overhead_frac", median(overhead), "ratio");
  rep.samples.emplace_back("traced_runs", rep.attempted);
  rep.samples.emplace_back("untraced_runs", rep.attempted);
}

} // namespace

void run_dmc(const Options& opt, Report& rep)
{
  const std::string dir = opt.workdir + "/dmc-snapshots";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  try {
    if (opt.trace)
      dmc_traced(opt, rep, dir);
    else
      dmc_end_to_end(opt, rep, dir);
  } catch (...) {
    std::filesystem::remove_all(dir);
    throw;
  }
  std::filesystem::remove_all(dir);
}

} // namespace perfbench
