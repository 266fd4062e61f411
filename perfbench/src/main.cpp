// perfbench: the repository benchmark.
//
//   perfbench --workload <dmc-graphite331-ckpt|vgh-n2048-team>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir> [--commit <sha>]
//
// Prints three JSON lines on stdout: the host fingerprint, the run details
// (sample counts, failed_frac, resolved schedule, unreachable layers, check
// failures) and, last, the result object {correct, attempted, failed,
// metrics}.  --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics of a traced re-drive.  See perfbench/README.md.
#include <sys/statfs.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"
#include "common/sysinfo.h"

#ifdef _OPENMP
#include <omp.h>
#endif

extern char** environ;

namespace {

using perfbench::Options;
using perfbench::Report;

std::string json_str(const std::string& s)
{
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
    case '"': out += "\\\""; break;
    case '\\': out += "\\\\"; break;
    case '\n': out += "\\n"; break;
    case '\t': out += "\\t"; break;
    default:
      if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
  }
  return out + "\"";
}

std::string json_num(double v)
{
  if (!std::isfinite(v))
    return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fs_type_name(const std::string& dir)
{
  struct statfs sf{};
  if (statfs(dir.c_str(), &sf) != 0)
    return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
  case 0xEF53: return "ext2/3/4";
  case 0x58465342: return "xfs";
  case 0x9123683E: return "btrfs";
  case 0x01021994: return "tmpfs";
  case 0x794c7630: return "overlayfs";
  case 0x6969: return "nfs";
  case 0x65735546: return "fuse";
  case 0x2FC12FC1: return "zfs";
  default: {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(sf.f_type));
    return buf;
  }
  }
}

void print_fingerprint(const Options& opt, const std::string& commit)
{
  const mqc::SystemInfo info = mqc::query_system_info();
  std::string omp_env = "{";
  bool first = true;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("OMP_", 0) != 0 && kv.rfind("GOMP_", 0) != 0)
      continue;
    const auto eq = kv.find('=');
    omp_env += (first ? "" : ", ") + json_str(kv.substr(0, eq)) + ": " +
               json_str(eq == std::string::npos ? "" : kv.substr(eq + 1));
    first = false;
  }
  omp_env += "}";
  int omp_threads = 1;
#ifdef _OPENMP
  omp_threads = omp_get_max_threads();
#endif
  std::printf("{\"host\": {\"cpu_model\": %s, \"logical_cpus\": %d, \"simd_width_bits\": %zu, "
              "\"l2_bytes_per_core\": %zu, \"l3_bytes\": %zu, \"total_ram_bytes\": %zu, "
              "\"omp_max_threads\": %d, \"omp_env\": %s, \"compiler\": %s, "
              "\"build_type\": %s, \"cxx_flags\": %s, \"git_commit\": %s, "
              "\"snapshot_fs\": %s}}\n",
              json_str(info.cpu_model).c_str(), info.logical_cpus, info.simd_width_bits,
              info.l2_bytes, info.l3_bytes, info.total_ram_bytes, omp_threads, omp_env.c_str(),
              json_str(__VERSION__).c_str(), json_str(PERFBENCH_BUILD_TYPE).c_str(),
              json_str(PERFBENCH_CXX_FLAGS).c_str(), json_str(commit).c_str(),
              json_str(fs_type_name(opt.workdir)).c_str());
}

void print_report(const Options& opt, const Report& rep)
{
  std::string samples = "{";
  for (std::size_t i = 0; i < rep.samples.size(); ++i)
    samples += (i ? ", " : "") + json_str(rep.samples[i].first) + ": " +
               std::to_string(rep.samples[i].second);
  samples += "}";
  std::string notes = "{";
  for (std::size_t i = 0; i < rep.notes.size(); ++i)
    notes += (i ? ", " : "") + json_str(rep.notes[i].first) + ": " +
             json_str(rep.notes[i].second);
  notes += "}";
  std::string info = "{";
  for (std::size_t i = 0; i < rep.info.size(); ++i)
    info += (i ? ", " : "") + json_str(rep.info[i].name) + ": {\"value\": " +
            json_num(rep.info[i].value) + ", \"unit\": " + json_str(rep.info[i].unit) + "}";
  info += "}";
  std::string nm = "[";
  for (std::size_t i = 0; i < rep.not_measured.size(); ++i)
    nm += (i ? ", " : "") + json_str(rep.not_measured[i]);
  nm += "]";
  std::string errors = "[";
  for (std::size_t i = 0; i < rep.errors.size() && i < 20; ++i)
    errors += (i ? ", " : "") + json_str(rep.errors[i]);
  errors += "]";
  const double failed_frac =
      rep.attempted > 0 ? static_cast<double>(rep.failed) / static_cast<double>(rep.attempted)
                        : 1.0;
  std::printf("{\"run\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
              "\"failed_frac\": %s, \"samples\": %s, \"info\": %s, \"not_measured\": %s, "
              "\"notes\": %s, \"errors\": %s}}\n",
              json_str(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
              json_num(opt.seconds).c_str(), opt.trace ? 1 : 0, json_num(failed_frac).c_str(),
              samples.c_str(), info.c_str(), nm.c_str(), notes.c_str(), errors.c_str());

  std::string metrics = "{";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i)
    metrics += (i ? ", " : "") + json_str(rep.metrics[i].name) + ": {\"value\": " +
               json_num(rep.metrics[i].value) + ", \"unit\": " +
               json_str(rep.metrics[i].unit) + "}";
  metrics += "}";
  const bool correct = rep.correct && rep.failed == 0 && rep.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", rep.attempted, rep.failed, metrics.c_str());
  std::fflush(stdout);
}

int usage()
{
  std::fprintf(stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                       "--trace <0|1> --workdir <dir> [--commit <sha>]\n");
  return 2;
}

} // namespace

int main(int argc, char** argv)
{
  // A stray scheduling or fault knob in the shell would change what is
  // measured without showing up in the result.
  for (const char* knob : {"MQC_PARTITION", "MQC_INNER_THREADS", "MQC_TOPOLOGY", "MQC_SHARDS",
                           "MQC_FAULT_INJECT", "MQC_VERBOSE"}) {
    if (std::getenv(knob) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set in the environment\n", knob);
      return 3;
    }
  }

  Options opt;
  std::string commit = "unknown";
  bool have_workload = false, have_workdir = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") {
        opt.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else if (key == "--workdir") {
        opt.workdir = val;
        have_workdir = true;
      } else if (key == "--commit") {
        commit = val;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!have_workload || !have_workdir || !(opt.seconds > 0.0) || argc % 2 == 0)
    return usage();

  void (*run)(const Options&, Report&) = nullptr;
  if (opt.workload == "dmc-graphite331-ckpt")
    run = perfbench::run_dmc;
  else if (opt.workload == "vgh-n2048-team")
    run = perfbench::run_vgh;
  else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(opt.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", opt.workdir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  print_fingerprint(opt, commit);
  Report rep;
  try {
    run(opt, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload aborted: %s\n", e.what());
    return 1;
  }
  print_report(opt, rep);
  return 0;
}
