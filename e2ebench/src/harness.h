// Shared plumbing for the end-to-end benchmark workloads: command-line
// options, the in-memory span recorder used by traced runs, latency
// statistics, and the result record whose JSON line ends every run.
//
// The benchmark measures the library from outside: workloads call only
// public functions of src/ modules and time them with steady_clock. The
// library's own tracing (obs) stays off unless --trace 1, because every
// obs span close takes a process-wide mutex.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
double seconds_since(Clock::time_point t0);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< nominal length of the measured phase
  bool trace = false;     ///< traced run: report per-layer metrics
  bool fault = false;     ///< corrupt one reference (self-test only)
  std::string tmp_dir;    ///< benchmark-owned scratch for .advp inputs
  std::string state_dir;  ///< persists cross-run determinism records
};

// ---- spans -----------------------------------------------------------------

/// One recorded span. `parent` indexes the enclosing span on the same
/// thread (-1 at top level); `op` is the op id current on that thread.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
  int parent = -1;
  int op = -1;
};

/// Process-wide span store. Recording is off unless enabled; while off a
/// SpanScope costs one relaxed atomic load.
namespace spans {
void enable(bool on);
bool enabled();
void clear();
/// Sets the op id stamped on spans this thread opens from now on.
void set_op(int op);
std::vector<Span> snapshot();
}  // namespace spans

/// RAII span around one public call (or a group of them).
class SpanScope {
 public:
  explicit SpanScope(const char* name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int id_ = -1;
};

/// Per-name totals derived from a span snapshot. Self time is a span's
/// duration minus the durations of its direct children.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
SpanTotals span_totals(const std::vector<Span>& all, const std::string& name);
/// Sums span_totals over every name starting with `prefix`.
SpanTotals span_totals_prefix(const std::vector<Span>& all,
                              const std::string& prefix);

// ---- statistics ------------------------------------------------------------

/// Nearest-rank percentile (q in [0,1]) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Number of consecutive windows the open-loop and campaign latencies are
/// cut into: their median is the median of the per-window medians, so a
/// burst of host contention inside one or two windows does not move it.
inline constexpr int kWindows = 5;
/// Median over kWindows consecutive equal slices of `v` (in op order) of
/// stat(slice).
double windowed_median(const std::vector<double>& v,
                       const std::function<double(const std::vector<double>&)>&
                           stat);

/// Peak resident set size (VmHWM) in MiB.
double peak_rss_mb();
/// CPU time used by every thread of this process so far (seconds). Unlike
/// wall time it excludes time the hypervisor stole from the VM.
double process_cpu_s();
/// CPU time the hypervisor stole from this VM so far, summed over CPUs
/// (seconds, from /proc/stat); reported so noisy runs can be recognized.
double host_steal_s();

// ---- results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a workload run produces. `attempted`/`failed` count measured
/// ops; run-level check failures are added to `failed` as well, so a wrong
/// output can never leave `failed` at zero.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> info;  ///< human-readable detail lines

  void fail_op(const std::string& why);
  void fail_run(const std::string& why);
  void add_e2e(const std::string& name, double value, const std::string& unit);
  void add_layer(const std::string& name, double value,
                 const std::string& unit);
  bool correct() const { return attempted > 0 && failed == 0; }
};

/// Times `reps` set-up repetitions of `build` and returns the median wall
/// time in seconds. Before each repetition, untimed, `teardown` destroys
/// the previous one's state, so every repetition builds from scratch and
/// the last one's state is kept. In traced runs each repetition is a
/// "setup" span and the recorded spans are returned through `setup_spans`.
double median_setup_s(const Options& opt, int reps,
                      const std::function<void()>& teardown,
                      const std::function<void()>& build,
                      std::vector<Span>* setup_spans);

/// The measured (untraced) pass's headline numbers.
struct Headline {
  double items_per_s = 0.0;
  double op_p50_ms = 0.0;
  double cpu_ms_per_item = 0.0;
  double setup_s = 0.0;
  double rss_mb = 0.0;  ///< peak_rss_mb() right after the measured phase,
                        ///< before the checks load their reference models
};
/// Untraced runs: adds the end-to-end metrics (cpu_ms_per_item, setup_s,
/// peak_rss_mb) and prints items_per_s and op_p50_ms as detail lines.
/// Traced runs: adds items_per_s and op_p50_ms as per-layer metrics. Wall
/// throughput and latency track the CPU time the hypervisor steals from a
/// shared VM too closely to gate on (see README.md).
void add_headline(Result& r, const Options& opt, const Headline& h);

/// One pass over a closed loop's ops, run back to back.
struct ClosedLoopPass {
  std::vector<double> lat_ms;  ///< per op, in op order
  double cpu_s = 0.0;          ///< process CPU time spent inside the ops
  double wall_s() const;       ///< sum of op latencies
  double op_p50_ms() const;
  /// Items finished per second at the median op latency.
  double items_per_s(double items_per_op) const;
};

/// Runs op(k) for k in [0, n) back to back, each inside an "op" span and
/// stamped with its op id. op returns "" on success or the failed check;
/// an exception fails the op too. With `record`, every op is counted in
/// record->attempted and every failure in record->failed.
ClosedLoopPass run_closed_loop(int n, const std::function<std::string(int)>& op,
                               Result* record);

/// Prints the human-readable report and the final JSON line to stdout.
/// Returns the process exit code (0 when every check passed).
int emit(const Options& opt, const Result& r);

/// Machine/build metadata line: nproc, CPU, GEMM backend, flags, workers.
std::string meta_line();

// ---- workloads -------------------------------------------------------------

/// A workload's input models: a DistNet and a TinyYolo built from the seed
/// (untrained) and handed to the library as .advp files in opt.tmp_dir.
struct ModelFiles {
  std::string distnet;
  std::string detector;
};
/// Writes the input models. `calibrate_detector` records int8 activation
/// ranges on a few rendered scenes first (int8 tenants require them).
ModelFiles write_models(const Options& opt, bool calibrate_detector);

/// Worker count every workload pins the pool to.
inline constexpr std::size_t kWorkers = 2;

Result run_attack_cells(const Options& opt);
Result run_defense_train(const Options& opt);
Result run_serve_open(const Options& opt);
Result run_campaign(const Options& opt);

/// Shared per-layer metrics from the library's obs counters, normalized by
/// `ops` measured ops over `measured_s` seconds. Call after a traced phase
/// that started with obs::reset().
void add_counter_metrics(Result& r, double ops, double measured_s);
/// Shared span-derived per-layer metrics of a measured phase (models/
/// attacks/defenses/eval/data); zero where the workload makes no such call.
void add_span_metrics(Result& r, const std::vector<Span>& all, double ops);
/// Set-up metrics from the spans of the traced set-up repetitions (each
/// wrapped in a "setup" span): corpus rendering per repetition and
/// adversarial-set generation per generated item.
void add_setup_metrics(Result& r, const std::vector<Span>& setup,
                       double advgen_items);

/// A measured phase re-run with library obs and benchmark spans on.
struct TracedPhase {
  double seconds = 0.0;
  std::vector<Span> spans;
};
/// Resets obs counters and spans, runs `phase` (which returns its measured
/// seconds) traced, and turns tracing off again.
TracedPhase run_traced(const std::function<double()>& phase);

}  // namespace e2e
