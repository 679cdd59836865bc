// e2e_bench: runs one workload of the end-to-end benchmark and prints its
// metrics, ending with one JSON line. Normally started by e2ebench/run.py,
// which builds this binary and passes the scratch directories.
//
//   e2e_bench --workload attack_cells|defense_train|serve_open|campaign
//             --seed N --seconds S --trace 0|1 --tmp DIR --state DIR
//             [--fault 1]
//
// Exit code 0 when every output check passed, 1 when one failed, 2 on a
// usage or set-up error (then no JSON line is printed).
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "core/obs.h"
#include "core/parallel.h"
#include "harness.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 --tmp DIR --state DIR [--fault 1]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") opt.workload = val;
      else if (key == "--seed") opt.seed = std::stoull(val);
      else if (key == "--seconds") opt.seconds = std::stod(val);
      else if (key == "--trace") opt.trace = std::stoi(val) != 0;
      else if (key == "--fault") opt.fault = std::stoi(val) != 0;
      else if (key == "--tmp") opt.tmp_dir = val;
      else if (key == "--state") opt.state_dir = val;
      else return usage(("unknown option " + key).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (opt.tmp_dir.empty() || opt.state_dir.empty())
    return usage("--tmp and --state are required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  e2e::Result (*run)(const e2e::Options&) = nullptr;
  if (opt.workload == "attack_cells") run = e2e::run_attack_cells;
  else if (opt.workload == "defense_train") run = e2e::run_defense_train;
  else if (opt.workload == "serve_open") run = e2e::run_serve_open;
  else if (opt.workload == "campaign") run = e2e::run_campaign;
  else return usage(("unknown workload '" + opt.workload + "'").c_str());

  // End-to-end numbers are measured with the library's tracing off; traced
  // runs switch it on around their own traced phase only.
  advp::obs::enable(false);
  advp::set_max_workers(e2e::kWorkers);
  std::error_code ec;
  std::filesystem::create_directories(opt.tmp_dir, ec);
  std::filesystem::create_directories(opt.state_dir, ec);
  try {
    return e2e::emit(opt, run(opt));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 2;
  }
}
