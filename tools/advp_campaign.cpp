// advp_campaign — fleet-scale scenario campaign CLI.
//
// Single-process:
//   advp_campaign --scenarios 90 --cohort 8
// Multi-process (coordinator spawns contiguous-range shard workers):
//   advp_campaign --shards 4 --scenarios 10000 --out out/campaign.json
//
// The coordinator re-execs this binary with `--shard k --shards K`; shards
// stream newline-delimited JSON heartbeats (scenarios/s, queue depth, p95
// step latency) on stdout followed by one final aggregate line, and the
// coordinator merges the aggregates in shard order — bit-identical for
// any shard count because every aggregate fold is associative and
// commutative. A shard that dies is reported as a dead index range and
// the campaign fails; partial results are never merged silently.
// Protocol details: docs/campaign.md.
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/obs.h"
#include "core/parallel.h"
#include "data/dataset.h"
#include "models/zoo.h"
#include "sim/campaign.h"

using namespace advp;
namespace camp = advp::sim::campaign;
using Clock = std::chrono::steady_clock;

namespace {

struct Options {
  int shards = 0;        // 0 = single-process
  int shard = -1;        // >= 0: run as this shard
  int cohort = 8;
  std::uint64_t seed = 1234;
  std::uint64_t scenarios = 0;  // 0 = full matrix
  std::uint64_t repeats = 1;
  int lighting = 3;
  std::string attacks = "none,gaussian,patch";
  std::string noise = "1,2";
  std::string model_path;
  int train_epochs = 0;
  bool quiet = false;
  bool dry_run = false;
  std::string out;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: advp_campaign [options]\n"
      "  --shards N       spawn N shard processes (0 = run in-process)\n"
      "  --shard K        run as shard K of --shards (internal)\n"
      "  --cohort C       lockstep lanes per runner (default 8)\n"
      "  --seed S         campaign base seed (default 1234)\n"
      "  --scenarios N    truncate the matrix to its first N scenarios\n"
      "  --repeats R      repeats dimension of the matrix (default 1)\n"
      "  --lighting L     lighting regimes, 1..3 (default 3)\n"
      "  --attacks LIST   comma list of none,gaussian,patch,cap\n"
      "  --noise LIST     comma list of noise-sigma scales (default 1,2)\n"
      "  --model PATH     .advp perception model (default: untrained,\n"
      "                   seed-deterministic across shards)\n"
      "  --train E        train the model for E epochs, save as .advp,\n"
      "                   and campaign against it (implies --model path)\n"
      "  --dry-run        print matrix dims and scenario count, exit\n"
      "  --quiet          suppress heartbeat output\n"
      "  --out PATH       write the merged aggregate JSON to PATH\n");
}

bool parse_args(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "advp_campaign: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (a == "--shards" && (v = next("--shards"))) o->shards = std::atoi(v);
    else if (a == "--shard" && (v = next("--shard"))) o->shard = std::atoi(v);
    else if (a == "--cohort" && (v = next("--cohort"))) o->cohort = std::atoi(v);
    else if (a == "--seed" && (v = next("--seed"))) o->seed = std::strtoull(v, nullptr, 10);
    else if (a == "--scenarios" && (v = next("--scenarios"))) o->scenarios = std::strtoull(v, nullptr, 10);
    else if (a == "--repeats" && (v = next("--repeats"))) o->repeats = std::strtoull(v, nullptr, 10);
    else if (a == "--lighting" && (v = next("--lighting"))) o->lighting = std::atoi(v);
    else if (a == "--attacks" && (v = next("--attacks"))) o->attacks = v;
    else if (a == "--noise" && (v = next("--noise"))) o->noise = v;
    else if (a == "--model" && (v = next("--model"))) o->model_path = v;
    else if (a == "--train" && (v = next("--train"))) o->train_epochs = std::atoi(v);
    else if (a == "--out" && (v = next("--out"))) o->out = v;
    else if (a == "--quiet") o->quiet = true;
    else if (a == "--dry-run") o->dry_run = true;
    else if (a == "--help" || a == "-h") { usage(); std::exit(0); }
    else {
      std::fprintf(stderr, "advp_campaign: unknown option %s\n", a.c_str());
      return false;
    }
    if (!v && a != "--quiet" && a != "--dry-run") return false;
  }
  if (o->shard >= 0 && o->shards <= 0) {
    std::fprintf(stderr, "advp_campaign: --shard requires --shards\n");
    return false;
  }
  if (o->cohort < 1) {
    std::fprintf(stderr, "advp_campaign: --cohort must be >= 1\n");
    return false;
  }
  return true;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool build_spec(const Options& o, camp::MatrixSpec* spec) {
  camp::MatrixSpec s = camp::MatrixSpec::standard();
  if (o.lighting < 1 ||
      o.lighting > static_cast<int>(s.lighting.size())) {
    std::fprintf(stderr, "advp_campaign: --lighting must be 1..%zu\n",
                 s.lighting.size());
    return false;
  }
  s.lighting.resize(static_cast<std::size_t>(o.lighting));
  s.attacks.clear();
  for (const std::string& name : split_csv(o.attacks)) {
    camp::AttackFamily f;
    if (!camp::parse_attack_family(name, &f)) {
      std::fprintf(stderr, "advp_campaign: unknown attack family '%s'\n",
                   name.c_str());
      return false;
    }
    s.attacks.push_back(f);
  }
  s.noise_scales.clear();
  for (const std::string& n : split_csv(o.noise))
    s.noise_scales.push_back(std::strtof(n.c_str(), nullptr));
  s.repeats = o.repeats == 0 ? 1 : o.repeats;
  if (s.attacks.empty() || s.noise_scales.empty()) {
    std::fprintf(stderr, "advp_campaign: empty attack/noise list\n");
    return false;
  }
  *spec = std::move(s);
  return true;
}

/// Scenario budget: the full matrix, truncated by --scenarios.
std::uint64_t effective_total(const Options& o, const camp::MatrixSpec& s) {
  const std::uint64_t n = s.size();
  return o.scenarios == 0 ? n : std::min(o.scenarios, n);
}

/// Contiguous shard split of [0, total): shard k gets `lo`/`hi`.
void shard_range(std::uint64_t total, int shards, int k, std::uint64_t* lo,
                 std::uint64_t* hi) {
  const std::uint64_t per = total / static_cast<std::uint64_t>(shards);
  const std::uint64_t rem = total % static_cast<std::uint64_t>(shards);
  const std::uint64_t uk = static_cast<std::uint64_t>(k);
  *lo = uk * per + std::min<std::uint64_t>(uk, rem);
  *hi = *lo + per + (uk < rem ? 1 : 0);
}

/// The perception model every process campaigns against. Untrained
/// default is seed-deterministic: all shards construct bit-identical
/// weights without sharing a file.
std::unique_ptr<models::DistNet> build_model(const Options& o) {
  if (!o.model_path.empty() && o.train_epochs == 0) {
    auto loaded = models::make_distnet_from_advp(o.model_path);
    if (!loaded) {
      std::fprintf(stderr, "advp_campaign: cannot load %s\n",
                   o.model_path.c_str());
      return nullptr;
    }
    return loaded;
  }
  Rng rng(7);
  auto model = std::make_unique<models::DistNet>(models::DistNetConfig{}, rng);
  if (o.train_epochs > 0) {
    std::fprintf(stderr, "[campaign] training DistNet for %d epochs...\n",
                 o.train_epochs);
    auto train = data::make_driving_dataset(256, 22);
    models::TrainConfig cfg;
    cfg.epochs = o.train_epochs;
    cfg.lr = 2e-3f;
    models::train_distnet(*model, train, cfg);
    if (!o.model_path.empty())
      models::save_distnet_advp(*model, o.model_path);
  }
  return model;
}

/// Runs [lo, hi) in this process with a heartbeat thread. `shard` < 0
/// means single-process mode (heartbeats to stderr, unlabeled).
camp::CampaignAggregate run_local(const Options& o,
                                  const camp::MatrixSpec& spec,
                                  models::DistNet& model, std::uint64_t lo,
                                  std::uint64_t hi, double* scen_per_s) {
  camp::CampaignConfig cfg;
  cfg.cohort = o.cohort;
  cfg.base_seed = o.seed;

  // Chaos hook (tests): shard ADVP_CAMPAIGN_CHAOS_ABORT_SHARD dies without
  // a final aggregate after ADVP_CAMPAIGN_CHAOS_ABORT_AFTER scenarios.
  const char* chaos_shard_env = std::getenv("ADVP_CAMPAIGN_CHAOS_ABORT_SHARD");
  const char* chaos_after_env = std::getenv("ADVP_CAMPAIGN_CHAOS_ABORT_AFTER");
  if (chaos_shard_env && o.shard == std::atoi(chaos_shard_env)) {
    const std::uint64_t after =
        chaos_after_env ? std::strtoull(chaos_after_env, nullptr, 10) : 0;
    auto killed = std::make_shared<std::atomic<std::uint64_t>>(0);
    cfg.on_result = [after, killed](const camp::ScenarioPoint&,
                                    const sim::AccResult&) {
      if (killed->fetch_add(1) + 1 >= after) {
        std::fflush(nullptr);
        std::_Exit(17);  // simulated node death: no final aggregate line
      }
    };
  }

  camp::CampaignEngine engine(model, data::DrivingSceneGenerator{},
                              sim::AccParams{}, spec, cfg);
  camp::CampaignProgress& progress = engine.progress();

  std::atomic<bool> done{false};
  std::thread heartbeat;
  const auto t0 = Clock::now();
  if (!o.quiet) {
    heartbeat = std::thread([&] {
      FILE* sink = o.shard >= 0 ? stdout : stderr;
      while (!done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
        if (done.load(std::memory_order_relaxed)) break;
        const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
        const std::uint64_t completed =
            progress.completed.load(std::memory_order_relaxed);
        std::fprintf(
            sink,
            "{\"heartbeat\":%d,\"completed\":%llu,\"total\":%llu,"
            "\"scen_per_s\":%.2f,\"queue_depth\":%llu,"
            "\"p95_step_ms\":%.3f}\n",
            o.shard, static_cast<unsigned long long>(completed),
            static_cast<unsigned long long>(
                progress.total.load(std::memory_order_relaxed)),
            dt > 0 ? completed / dt : 0.0,
            static_cast<unsigned long long>(progress.queue_depth()),
            progress.p95_step_ms());
        std::fflush(sink);
      }
    });
  }

  camp::CampaignAggregate agg = engine.run_range(lo, hi);
  done.store(true, std::memory_order_relaxed);
  if (heartbeat.joinable()) heartbeat.join();
  const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
  *scen_per_s = dt > 0 ? static_cast<double>(hi - lo) / dt : 0.0;
  return agg;
}

/// Path of this executable, for re-execing shard workers.
std::string self_path(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

struct ShardProc {
  int index = 0;
  std::uint64_t lo = 0, hi = 0;
  FILE* pipe = nullptr;
  std::string buffer;       // partial line accumulator
  std::string aggregate;    // final aggregate line, when seen
  bool eof = false;
  int exit_status = -1;
};

/// Coordinator: spawn shard workers, stream their heartbeats, merge their
/// final aggregates in shard order.
int run_coordinator(const Options& o, const camp::MatrixSpec& spec,
                    const std::string& bin, std::uint64_t total,
                    camp::CampaignAggregate* merged, double* scen_per_s) {
  std::vector<ShardProc> procs(static_cast<std::size_t>(o.shards));
  const auto t0 = Clock::now();
  for (int k = 0; k < o.shards; ++k) {
    ShardProc& p = procs[static_cast<std::size_t>(k)];
    p.index = k;
    shard_range(total, o.shards, k, &p.lo, &p.hi);
    char cmd[2048];
    std::snprintf(cmd, sizeof(cmd),
                  "%s --shard %d --shards %d --cohort %d --seed %llu "
                  "--scenarios %llu --repeats %llu --lighting %d "
                  "--attacks %s --noise %s%s%s%s",
                  bin.c_str(), k, o.shards, o.cohort,
                  static_cast<unsigned long long>(o.seed),
                  static_cast<unsigned long long>(o.scenarios),
                  static_cast<unsigned long long>(o.repeats), o.lighting,
                  o.attacks.c_str(), o.noise.c_str(),
                  o.model_path.empty() ? "" : " --model ",
                  o.model_path.c_str(), o.quiet ? " --quiet" : "");
    p.pipe = ::popen(cmd, "r");
    if (!p.pipe) {
      std::fprintf(stderr, "[campaign] failed to spawn shard %d\n", k);
      return 1;
    }
    ::fcntl(::fileno(p.pipe), F_SETFL, O_NONBLOCK);
  }

  int open_count = o.shards;
  while (open_count > 0) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> owner;
    for (std::size_t k = 0; k < procs.size(); ++k) {
      if (procs[k].eof) continue;
      fds.push_back({::fileno(procs[k].pipe), POLLIN, 0});
      owner.push_back(k);
    }
    ::poll(fds.data(), fds.size(), 250);
    for (std::size_t f = 0; f < fds.size(); ++f) {
      ShardProc& p = procs[owner[f]];
      char chunk[4096];
      for (;;) {
        const ssize_t n = ::read(fds[f].fd, chunk, sizeof(chunk));
        if (n > 0) {
          p.buffer.append(chunk, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) {  // EOF: shard exited
          p.eof = true;
          p.exit_status = ::pclose(p.pipe);
          p.pipe = nullptr;
          --open_count;
        }
        break;  // n < 0: EAGAIN (no more data now) or error
      }
      // Drain complete lines: heartbeats are relayed, the aggregate kept.
      std::size_t nl;
      while ((nl = p.buffer.find('\n')) != std::string::npos) {
        const std::string line = p.buffer.substr(0, nl);
        p.buffer.erase(0, nl + 1);
        if (line.find("\"advp.campaign/1\"") != std::string::npos)
          p.aggregate = line;
        else if (!line.empty() && !o.quiet)
          std::fprintf(stderr, "[shard %d] %s\n", p.index, line.c_str());
      }
    }
  }

  // Merge in shard order; a missing or unparsable aggregate, one over
  // another regime grid, or a nonzero exit is a dead shard — report its
  // range, never silently merge the survivors.
  bool dead = false;
  camp::CampaignAggregate result(spec);
  for (const ShardProc& p : procs) {
    camp::CampaignAggregate shard_agg;
    if (p.exit_status != 0 || p.aggregate.empty() ||
        !camp::CampaignAggregate::from_json(p.aggregate, &shard_agg) ||
        shard_agg.n_trajectories != result.n_trajectories ||
        shard_agg.n_attacks != result.n_attacks) {
      std::fprintf(stderr,
                   "[campaign] DEAD SHARD %d (exit %d): scenarios "
                   "[%llu, %llu) lost — campaign incomplete\n",
                   p.index, p.exit_status,
                   static_cast<unsigned long long>(p.lo),
                   static_cast<unsigned long long>(p.hi));
      dead = true;
      continue;
    }
    const std::uint64_t expected = p.hi - p.lo;
    if (shard_agg.scenarios != expected) {
      std::fprintf(stderr,
                   "[campaign] SHARD %d LOST SCENARIOS: reported %llu of "
                   "%llu\n",
                   p.index,
                   static_cast<unsigned long long>(shard_agg.scenarios),
                   static_cast<unsigned long long>(expected));
      dead = true;
      continue;
    }
    result.merge(shard_agg);
  }
  if (dead) return 1;
  const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
  *scen_per_s = dt > 0 ? static_cast<double>(total) / dt : 0.0;
  *merged = std::move(result);
  return 0;
}

void print_summary(const camp::CampaignAggregate& a, double scen_per_s) {
  std::fprintf(stderr,
               "[campaign] %llu scenarios (%llu steps) at %.2f scen/s\n"
               "[campaign] collisions %llu (%.2f%%) | hazards %llu (%.2f%%) "
               "| min gap %.2f m | min TTC %s | mean |gap err| %.3f m\n",
               static_cast<unsigned long long>(a.scenarios),
               static_cast<unsigned long long>(a.steps), scen_per_s,
               static_cast<unsigned long long>(a.collisions),
               100.0 * a.collision_rate(),
               static_cast<unsigned long long>(a.hazards),
               100.0 * a.hazard_rate(), a.min_gap,
               a.min_ttc >= sim::kNoTtcEvent
                   ? "none"
                   : (std::to_string(a.min_ttc) + " s").c_str(),
               a.mean_abs_gap_error_m());
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, &o)) {
    usage();
    return 2;
  }
  camp::MatrixSpec spec;
  if (!build_spec(o, &spec)) return 2;
  const std::uint64_t total = effective_total(o, spec);
  if (o.dry_run) {
    std::printf("{\"matrix\":\"%s\",\"size\":%llu,\"scenarios\":%llu}\n",
                spec.dims_string().c_str(),
                static_cast<unsigned long long>(spec.size()),
                static_cast<unsigned long long>(total));
    return 0;
  }
  if (total == 0) {
    std::fprintf(stderr, "advp_campaign: empty campaign\n");
    return 2;
  }

  // Shard worker: run the assigned range, print the final aggregate line.
  if (o.shard >= 0) {
    if (o.shard >= o.shards) {
      std::fprintf(stderr, "advp_campaign: --shard out of range\n");
      return 2;
    }
    auto model = build_model(o);
    if (!model) return 1;
    std::uint64_t lo, hi;
    shard_range(total, o.shards, o.shard, &lo, &hi);
    double scen_per_s = 0.0;
    const camp::CampaignAggregate agg =
        run_local(o, spec, *model, lo, hi, &scen_per_s);
    std::printf("%s\n", agg.to_json().c_str());
    std::fflush(stdout);
    return 0;
  }

  if (!obs::trace_disabled()) obs::enable();
  {
    std::error_code ec;
    std::filesystem::create_directories("out", ec);
  }
  camp::CampaignAggregate merged(spec);
  double scen_per_s = 0.0;
  int rc = 0;
  if (o.shards >= 2) {
    Options shard_opts = o;
    if (o.train_epochs > 0) {
      // Train once, ship the artifact: shards mmap-load the same .advp.
      if (shard_opts.model_path.empty())
        shard_opts.model_path = "out/campaign_model.advp";
      auto model = build_model(shard_opts);  // trains + saves
      if (!model) return 1;
      shard_opts.train_epochs = 0;
    }
    rc = run_coordinator(shard_opts, spec, self_path(argv[0]), total, &merged,
                         &scen_per_s);
  } else {
    auto model = build_model(o);
    if (!model) return 1;
    merged = run_local(o, spec, *model, 0, total, &scen_per_s);
  }
  if (rc != 0) return rc;

  print_summary(merged, scen_per_s);
  if (obs::enabled()) {
    obs::CampaignRecord rec;
    rec.matrix = spec.dims_string();
    rec.scenarios = merged.scenarios;
    rec.shards = static_cast<std::uint64_t>(o.shards);
    rec.cohort = static_cast<std::uint64_t>(o.cohort);
    rec.workers = max_workers();
    rec.scenarios_per_s = scen_per_s;
    obs::record_campaign(rec);
    obs::RunManifest manifest("advp_campaign");
    manifest.set("matrix", spec.dims_string());
    manifest.set("scenarios", merged.scenarios);
    manifest.set("shards", static_cast<std::uint64_t>(o.shards));
    manifest.set("cohort", static_cast<std::uint64_t>(o.cohort));
    manifest.set("seed", o.seed);
    const std::string written =
        manifest.write("out/advp_campaign.manifest.json");
    if (!written.empty())
      std::fprintf(stderr, "[obs] manifest -> %s\n", written.c_str());
  }
  if (!o.out.empty()) {
    FILE* f = std::fopen(o.out.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "advp_campaign: cannot write %s\n", o.out.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", merged.to_json().c_str());
    std::fclose(f);
  } else {
    std::printf("%s\n", merged.to_json().c_str());
  }
  return 0;
}
