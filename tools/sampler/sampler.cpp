// A flat SIGPROF sampling profiler, loaded into any process with LD_PRELOAD.
//
//   export ADVP_SAMPLER_OUT=/tmp/prof/run
//   LD_PRELOAD=build/tools/libadvp_sampler.so <program> <args...>
//   python3 tools/sampler/report.py /tmp/prof/run.*
//
// While ADVP_SAMPLER_OUT is set, every process that loads the library arms
// ITIMER_PROF and records the interrupted program counter on each SIGPROF
// (process CPU time, all threads). At normal exit it writes
// `<ADVP_SAMPLER_OUT>.<pid>`: a header, the process's /proc/self/maps and
// one "<pc> <count>" line per distinct sampled address. One file per pid
// keeps wrappers and child processes, which inherit LD_PRELOAD, from
// overwriting each other's output. The timer asks for one sample per
// millisecond of CPU, but the kernel delivers at most one per scheduler
// tick, so expect about one per 4 ms of CPU.
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 20;  // 8 MiB of PCs
constexpr long kIntervalUs = 1000;

std::uintptr_t* g_pcs = nullptr;
std::atomic<std::size_t> g_count{0};
std::atomic<bool> g_active{false};
pid_t g_pid = 0;
char g_out[4096];

void on_sigprof(int, siginfo_t*, void* uc) {
  if (!g_active.load(std::memory_order_relaxed)) return;
  const auto* ctx = static_cast<const ucontext_t*>(uc);
#if defined(__x86_64__)
  const auto pc = static_cast<std::uintptr_t>(ctx->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<std::uintptr_t>(ctx->uc_mcontext.pc);
#else
  const std::uintptr_t pc = 0;
  (void)ctx;
#endif
  const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) g_pcs[i] = pc;
}

void set_timer(long us) {
  itimerval t{};
  t.it_interval.tv_sec = us / 1000000;
  t.it_interval.tv_usec = us % 1000000;
  t.it_value = t.it_interval;
  setitimer(ITIMER_PROF, &t, nullptr);
}

// Copies /proc/self/maps into `out`.
void copy_maps(std::FILE* out) {
  std::FILE* maps = std::fopen("/proc/self/maps", "r");
  if (!maps) return;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, maps)) > 0)
    std::fwrite(buf, 1, n, out);
  std::fclose(maps);
}

__attribute__((constructor)) void sampler_start() {
  const char* out = std::getenv("ADVP_SAMPLER_OUT");
  if (!out || !*out || std::strlen(out) >= sizeof g_out) return;
  std::strcpy(g_out, out);
  void* mem = mmap(nullptr, kMaxSamples * sizeof(std::uintptr_t),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return;
  g_pcs = static_cast<std::uintptr_t*>(mem);
  g_pid = getpid();
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) return;
  g_active.store(true);
  set_timer(kIntervalUs);
}

__attribute__((destructor)) void sampler_stop() {
  // A forked child inherits the buffer but not the timer: only the process
  // that armed it reports.
  if (!g_active.exchange(false) || getpid() != g_pid) return;
  set_timer(0);
  const std::size_t taken = g_count.load();
  const std::size_t kept = std::min(taken, kMaxSamples);
  std::sort(g_pcs, g_pcs + kept);
  char path[sizeof g_out + 32];
  std::snprintf(path, sizeof path, "%s.%d", g_out, static_cast<int>(g_pid));
  std::FILE* f = std::fopen(path, "w");
  if (!f) return;
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[len > 0 ? len : 0] = '\0';
  std::fprintf(f,
               "# advp-sampler 1\npid %d\nexe %s\ninterval_us %ld\n"
               "samples %zu\ndropped %zu\nmaps\n",
               static_cast<int>(g_pid), exe, kIntervalUs, kept,
               taken - kept);
  copy_maps(f);
  std::fprintf(f, "end maps\npcs\n");
  for (std::size_t i = 0; i < kept;) {
    std::size_t j = i;
    while (j < kept && g_pcs[j] == g_pcs[i]) ++j;
    std::fprintf(f, "%zx %zu\n", static_cast<std::size_t>(g_pcs[i]), j - i);
    i = j;
  }
  std::fclose(f);
}

}  // namespace
