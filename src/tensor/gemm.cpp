#include "tensor/gemm.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>

#include "core/check.h"
#include "core/obs.h"
#include "core/parallel.h"
#include "core/scratch.h"
#include "tensor/vmath.h"

#if defined(ADVP_SIMD) && defined(__AVX512F__)
#define ADVP_GEMM_AVX512 1
#include <immintrin.h>
#elif defined(ADVP_SIMD) && defined(__AVX2__) && defined(__FMA__)
#define ADVP_GEMM_AVX2 1
#include <immintrin.h>
#endif

namespace advp {

namespace {

// Micro-tile: MR rows x NR columns of C held in registers (NR = two SIMD
// vectors of the widest enabled ISA). The portable kernel is templated on
// the same geometry, so packed panels are laid out identically whichever
// kernel runs. Cache blocking: Kc-deep panels keep a B micro-panel
// (Kc x NR floats) in L1 and an Mc x Kc A block in L2. Mc must be a
// multiple of MR.
#ifdef ADVP_GEMM_AVX512
constexpr int kMr = 8;
constexpr int kNr = 32;
#else
constexpr int kMr = 6;
constexpr int kNr = 16;
#endif
constexpr int kMc = 96;
constexpr int kKc = 256;
// Widest per-worker column stripe: bounds the packed-B buffer (Kc * Nc
// floats = 1 MiB) and gives the parallel path enough stripes to share.
constexpr int kNc = 1024;

// Below this many multiply-accumulates the packing setup costs more than
// it saves; run the plain loop (identical per-element operation order).
constexpr std::size_t kNaiveMacLimit = 4096;
// A product fans out to the worker pool only when each column stripe
// carries at least this many multiply-accumulates (about 0.2 ms of one
// core at 20 GFLOP/s): a pool hand-off costs tens of microseconds of CPU,
// more than splitting a smaller product saves.
constexpr std::size_t kMinStripeMacs = std::size_t{1} << 21;

std::atomic<bool> g_force_portable{false};

// Pack-cache control: a process-wide weight generation (bumped by optimizer
// steps / parameter loads) plus the ADVP_PACK_CACHE kill-switch and its
// test-hook override.
std::atomic<std::uint64_t> g_weight_generation{1};
std::atomic<int> g_force_pack_cache{-1};

bool pack_cache_env_default() {
  static const bool on = [] {
    const char* e = std::getenv("ADVP_PACK_CACHE");
    return !(e && e[0] == '0' && e[1] == '\0');
  }();
  return on;
}

inline int round_up(int v, int to) { return (v + to - 1) / to * to; }

// Runs body(j0, nw) over column stripes [j0, j0 + nw) covering n columns.
// A product of `macs` multiply-accumulates splits into
// min(max_workers(), macs / kMinStripeMacs) kNr-aligned stripes on the
// pool; when that is 1, or the caller is already inside a parallel region,
// kNc-wide stripes run in order on the caller. Stripe geometry is a pure
// scheduling choice: each element's k-accumulation is the same wherever
// the boundaries fall.
template <class Body>
void for_each_stripe(int n, std::size_t macs, const Body& body) {
  const std::size_t split =
      in_parallel_region() ? 1
                           : std::min(max_workers(), macs / kMinStripeMacs);
  int width = kNc;
  if (split > 1) {
    const int per = (n + static_cast<int>(split) - 1) / static_cast<int>(split);
    width = std::clamp(round_up(per, kNr), kNr, kNc);
  }
  const std::size_t stripes =
      (static_cast<std::size_t>(n) + width - 1) / width;
  auto run = [&](std::size_t s) {
    const int j0 = static_cast<int>(s) * width;
    body(j0, std::min(width, n - j0));
  };
  if (split > 1)
    parallel_for(0, stripes, 1, run);
  else
    for (std::size_t s = 0; s < stripes; ++s) run(s);
}

// op(A)(i, kk) / op(B)(kk, j) under the trans flags.
inline float a_at(const float* a, int lda, bool trans_a, int i, int kk) {
  return trans_a ? a[static_cast<std::size_t>(kk) * lda + i]
                 : a[static_cast<std::size_t>(i) * lda + kk];
}
inline float b_at(const float* b, int ldb, bool trans_b, int kk, int j) {
  return trans_b ? b[static_cast<std::size_t>(j) * ldb + kk]
                 : b[static_cast<std::size_t>(kk) * ldb + j];
}

// Plain i-k-j loop for tiny products. One FMA per (element, k) in
// ascending k order — the same operation sequence as the blocked path, so
// the two tiers agree bit-for-bit and the threshold is purely a
// performance knob.
void naive_gemm(int m, int n, int k, const float* a, int lda, bool trans_a,
                const float* b, int ldb, bool trans_b, float* c, int ldc,
                bool accumulate) {
  for (int i = 0; i < m; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * ldc;
    if (!accumulate) std::fill(crow, crow + n, 0.f);
    for (int kk = 0; kk < k; ++kk) {
      const float av = a_at(a, lda, trans_a, i, kk);
      if (!trans_b) {
        const float* brow = b + static_cast<std::size_t>(kk) * ldb;
        for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
      } else {
        for (int j = 0; j < n; ++j)
          crow[j] += av * b[static_cast<std::size_t>(j) * ldb + kk];
      }
    }
  }
}

// ---- packing ---------------------------------------------------------------

// Stages op(A) into row panels of kMr rows spanning the full k range:
// panel p holds rows [p*kMr, p*kMr + kMr), element (r, kk) at
// panel[kk*kMr + r]. Rows past m are zero (they only feed discarded
// accumulator lanes).
void pack_a(const float* a, int lda, bool trans_a, int m, int k, float* ap) {
  for (int ip = 0; ip < m; ip += kMr) {
    const int mr = std::min(kMr, m - ip);
    float* panel = ap + static_cast<std::size_t>(ip / kMr) * kMr * k;
    for (int kk = 0; kk < k; ++kk) {
      float* dst = panel + static_cast<std::size_t>(kk) * kMr;
      for (int r = 0; r < kMr; ++r)
        dst[r] = r < mr ? a_at(a, lda, trans_a, ip + r, kk) : 0.f;
    }
  }
  ADVP_OBS_COUNT(kGemmPackBytes,
                 static_cast<std::uint64_t>(round_up(m, kMr)) * k *
                     sizeof(float));
}

// Stages op(B) rows [pc, pc+kc) x columns [j0, j0+nw) into column panels
// of kNr: panel jp holds element (kk, j) at panel[kk*kNr + j]. Columns
// past n are zero.
void pack_b(const float* b, int ldb, bool trans_b, int pc, int kc, int j0,
            int nw, float* bp) {
  for (int jp = 0; jp < nw; jp += kNr) {
    const int nr = std::min(kNr, nw - jp);
    float* panel = bp + static_cast<std::size_t>(jp / kNr) * kc * kNr;
    if (!trans_b) {
      for (int kk = 0; kk < kc; ++kk) {
        const float* src =
            b + static_cast<std::size_t>(pc + kk) * ldb + j0 + jp;
        float* dst = panel + static_cast<std::size_t>(kk) * kNr;
        for (int j = 0; j < nr; ++j) dst[j] = src[j];
        for (int j = nr; j < kNr; ++j) dst[j] = 0.f;
      }
    } else {
      for (int kk = 0; kk < kc; ++kk) {
        float* dst = panel + static_cast<std::size_t>(kk) * kNr;
        for (int j = 0; j < kNr; ++j)
          dst[j] = j < nr
                       ? b[static_cast<std::size_t>(j0 + jp + j) * ldb +
                           pc + kk]
                       : 0.f;
      }
    }
  }
  ADVP_OBS_COUNT(kGemmPackBytes,
                 static_cast<std::uint64_t>(kc) * round_up(nw, kNr) *
                     sizeof(float));
}

// ---- implicit im2col (fused conv lowering) ---------------------------------
//
// Staging the im2col column matrix and then packing it with pack_b moves
// every activation element through memory twice. The implicit path, the
// one conv lowering, gathers op(B) elements straight out of NCHW image
// storage inside the packer: row p of op(B) decomposes to a patch tap
// (c, ky, kx), column j to an output pixel (item, oy, ox), and the value
// is x[item][c][oy*stride+ky-pad][ox*stride+kx-pad] with zeros outside the
// image — exactly the element a staged lowering holds at (p, j). Because
// the packer emits the same element multiset in the same panel order, and
// nothing downstream of packing changes, the result is bit-identical to
// gemm() on the staged column matrix on every tier. The weight gradient
// reads the same matrix transposed (PackSource::transposed): its packer
// gathers tap rows the same way and transposes them into the panels.
//
// The gather runs off a run table that each pack call builds once from the
// conv geometry. A run is a maximal span of the stripe's columns that stays
// on one output row of one item and inside one kNr-wide panel, so it is at
// most kNr lanes wide and its source pixels for any tap sit on one input
// row. The table records each run's source row and destination offset, and
// for each kx the lanes whose input column lands inside the image (the
// [lo, hi) bounds, solved once per pack call instead of once per tap row
// and panel). Packing a tap row (c, ky, kx) is then one pass over the
// runs: one row-validity test and one copy of at most kNr floats per run,
// zeros outside the in-image lanes. On AVX-512 that copy is two masked
// expand-loads (which read only the in-image floats) and two masked
// stores; elsewhere, and for stride > 1, a plain lane loop. No pointer
// outside the input tensor is ever formed.

// Patch-row decomposition of op(B) row p under a conv geometry.
struct PatchTap {
  int c, ky, kx;
};
inline PatchTap patch_tap(const PackSource& ps, int p) {
  const int kxk = ps.kernel * ps.kernel;
  return {p / kxk, (p / ps.kernel) % ps.kernel, p % ps.kernel};
}
// Advances a tap to op(B) row p+1 without re-dividing (taps walk kx
// fastest, then ky, then c — the im2col row order).
inline void next_tap(const PackSource& ps, PatchTap& t) {
  if (++t.kx == ps.kernel) {
    t.kx = 0;
    if (++t.ky == ps.kernel) {
      t.ky = 0;
      ++t.c;
    }
  }
}

// Lanes [lo, hi) of a run as a bit mask (lo <= hi <= kNr <= 32).
inline std::uint32_t lane_mask(int lo, int hi) {
  return static_cast<std::uint32_t>((std::uint64_t{1} << hi) -
                                    (std::uint64_t{1} << lo));
}

// One run of a stripe's columns. `src` is the float offset of its source
// row at channel 0 and ky = 0 from ps.base (item plane plus iy0 * w; it
// may be negative and is only used once a tap's row is known to be in the
// image), `iy0` that row's image y (oy*stride - pad), `dst` the run's
// offset in the destination row, and `store` the lanes it writes: its own
// columns, plus the zero tail of the stripe's partial last panel.
struct GatherRun {
  std::ptrdiff_t src;
  int iy0;
  int dst;
  std::uint32_t store;
};
// Per (kx, run): the lanes whose input column lies inside the image, and
// the input column of the first of them (0 when there is none, so the
// source pointer stays on the row).
struct RunLanes {
  std::uint32_t in_image;
  int sx;
};
struct RunTable {
  const GatherRun* runs;
  const RunLanes* lanes;  // kx-major: lanes[kx * lane_stride + run]
  int count;
  int lane_stride;
};

// Builds the run table for stripe columns [j0, j0+nw) in the thread's
// arena. Column j - j0 lands at (col / kNr) * panel_stride + col % kNr of
// the destination row: panel_stride = kc*kNr writes packed panel rows,
// kNr a dense row of round_up(nw, kNr) floats.
RunTable build_run_table(const PackSource& ps, int j0, int nw,
                         int panel_stride, ScratchArena& arena) {
  // Runs end at panel and output-row boundaries only.
  const int max_runs = (nw + kNr - 1) / kNr + (nw - 1) / ps.out_w + 1;
  auto* runs = static_cast<GatherRun*>(
      arena.alloc_bytes(sizeof(GatherRun) * max_runs));
  auto* lanes = static_cast<RunLanes*>(arena.alloc_bytes(
      sizeof(RunLanes) * static_cast<std::size_t>(max_runs) * ps.kernel));
  const int pixels = ps.out_h * ps.out_w;
  int item = j0 / pixels;
  const int pix = j0 - item * pixels;
  int oy = pix / ps.out_w;
  int ox = pix - oy * ps.out_w;
  int count = 0;
  for (int col = 0; col < nw; ++count) {
    const int in_panel = col % kNr;
    const int len = std::min({kNr - in_panel, nw - col, ps.out_w - ox});
    GatherRun& run = runs[count];
    run.iy0 = oy * ps.stride - ps.pad;
    run.src = static_cast<std::ptrdiff_t>(item) *
                  static_cast<std::ptrdiff_t>(ps.item_stride) +
              static_cast<std::ptrdiff_t>(run.iy0) * ps.w;
    run.dst = col / kNr * panel_stride + in_panel;
    run.store = lane_mask(0, col + len == nw ? kNr - in_panel : len);
    for (int kx = 0; kx < ps.kernel; ++kx) {
      // First input column this run touches: ix(i) = ix0 + i*stride.
      const int ix0 = ox * ps.stride + kx - ps.pad;
      int lo = ix0 >= 0 ? 0 : (-ix0 + ps.stride - 1) / ps.stride;
      int hi = ix0 < ps.w ? (ps.w - 1 - ix0) / ps.stride + 1 : 0;
      lo = std::min(lo, len);
      hi = std::clamp(hi, lo, len);
      lanes[static_cast<std::size_t>(kx) * max_runs + count] = {
          lane_mask(lo, hi), lo < hi ? ix0 + lo * ps.stride : 0};
    }
    col += len;
    ox += len;
    if (ox == ps.out_w) {
      ox = 0;
      if (++oy == ps.out_h) {
        oy = 0;
        ++item;
      }
    }
  }
  return {runs, lanes, count, max_runs};
}

// Writes the `store` lanes of dst: lane i takes the next in-image source
// float (stride apart, starting at src) when bit i of in_image is set, and
// zero otherwise.
inline void copy_run(const float* src, std::uint32_t in_image,
                     std::uint32_t store, int stride, float* dst) {
#ifdef ADVP_GEMM_AVX512
  if (stride == 1) {
    // kNr == 32 as two 16-lane halves; the expand-loads read exactly the
    // popcount(in_image) in-image floats.
    const __m512 v0 =
        _mm512_maskz_expandloadu_ps(static_cast<__mmask16>(in_image), src);
    const __m512 v1 = _mm512_maskz_expandloadu_ps(
        static_cast<__mmask16>(in_image >> 16),
        src + std::popcount(in_image & 0xffffu));
    _mm512_mask_storeu_ps(dst, static_cast<__mmask16>(store), v0);
    _mm512_mask_storeu_ps(dst + 16, static_cast<__mmask16>(store >> 16), v1);
    return;
  }
#endif
  const int lo = in_image ? std::countr_zero(in_image) : 0;
  const int hi = in_image ? 32 - std::countl_zero(in_image) : 0;
  const int end = 32 - std::countl_zero(store);
  for (int i = 0; i < lo; ++i) dst[i] = 0.f;
  for (int i = lo; i < hi; ++i) dst[i] = src[(i - lo) * stride];
  for (int i = hi; i < end; ++i) dst[i] = 0.f;
}

// Gathers op(B) row (tap t) over the table's columns into dst.
inline void gather_tap_row(const PackSource& ps, const RunTable& rt,
                           const PatchTap& t, float* dst) {
  const float* plane = ps.base + static_cast<std::size_t>(t.c) * ps.h * ps.w;
  const RunLanes* lanes =
      rt.lanes + static_cast<std::size_t>(t.kx) * rt.lane_stride;
  const std::ptrdiff_t ky_off = static_cast<std::ptrdiff_t>(t.ky) * ps.w;
  for (int r = 0; r < rt.count; ++r) {
    const GatherRun& run = rt.runs[r];
    // One unsigned compare tests 0 <= iy < h; a padding row copies no lane.
    const bool row_in = static_cast<unsigned>(run.iy0 + t.ky) <
                        static_cast<unsigned>(ps.h);
    const RunLanes& ln = lanes[r];
    copy_run(plane + (row_in ? run.src + ky_off + ln.sx : 0),
             row_in ? ln.in_image : 0u, run.store, ps.stride, dst + run.dst);
  }
}

// Implicit twin of pack_b: stages op(B) rows [pc, pc+kc) x columns
// [j0, j0+nw) into kNr-column panels, gathering each panel row from the
// image instead of a staged column matrix. Identical panel bytes (the
// partial last panel's zero columns included), and the staged lowering's
// pass over the column matrix never happens.
void pack_b_implicit(const PackSource& ps, int pc, int kc, int j0, int nw,
                     float* bp) {
  ScratchArena& arena = ScratchArena::local();
  ScratchArena::Frame frame(arena);
  const RunTable rt = build_run_table(ps, j0, nw, kc * kNr, arena);
  PatchTap t = patch_tap(ps, pc);
  for (int kk = 0; kk < kc; ++kk, next_tap(ps, t))
    gather_tap_row(ps, rt, t, bp + static_cast<std::size_t>(kk) * kNr);
  ADVP_OBS_COUNT(kGemmPackBytes,
                 static_cast<std::uint64_t>(kc) * round_up(nw, kNr) *
                     sizeof(float));
}

#ifdef ADVP_GEMM_AVX512
// permutex2var indices of transpose stage b for the low (hi false) or high
// row of a pair: lane c of the low row keeps its own lane when c lacks bit
// b and takes the high row's lane c - b (index 16 + c - b) when it has it;
// the high row takes the low row's lane c + b or keeps its own.
constexpr std::array<std::int32_t, 16> transpose_indices(int b, bool hi) {
  std::array<std::int32_t, 16> idx{};
  for (int c = 0; c < 16; ++c)
    idx[c] = (c & b) ? (hi ? 16 + c : 16 + c - b) : (hi ? c + b : c);
  return idx;
}

// Stage B swaps bit B of the row index with bit B of the column index
// across each row pair (i, i + B).
template <int B>
inline void transpose_stage(__m512 (&r)[16]) {
  static constexpr auto kLo = transpose_indices(B, false);
  static constexpr auto kHi = transpose_indices(B, true);
  const __m512i lo = _mm512_loadu_si512(kLo.data());
  const __m512i hi = _mm512_loadu_si512(kHi.data());
  for (int g = 0; g < 16; g += 2 * B)
    for (int i = g; i < g + B; ++i) {
      const __m512 low = r[i], high = r[i + B];
      r[i] = _mm512_permutex2var_ps(low, lo, high);
      r[i + B] = _mm512_permutex2var_ps(low, hi, high);
    }
}

// Writes the first `rows` rows of the transpose of the 16x16 block at src
// (row stride lds) to dst (row stride ldd): dst[c*ldd + r] = src[r*lds + c].
// After the four stages every element sits at its transposed position.
inline void transpose16(const float* src, std::size_t lds, float* dst,
                        std::size_t ldd, int rows) {
  __m512 r[16];
  for (int i = 0; i < 16; ++i) r[i] = _mm512_loadu_ps(src + i * lds);
  transpose_stage<8>(r);
  transpose_stage<4>(r);
  transpose_stage<2>(r);
  transpose_stage<1>(r);
  for (int c = 0; c < rows; ++c) _mm512_storeu_ps(dst + c * ldd, r[c]);
}
#endif

// Transposes a [kNr x ld] tile (one tap per row, pixels along the row)
// into a kc-row panel: panel[kk*kNr + j] = tile[j*ld + kk] for kk < kc.
// ld is a multiple of kNr, so the 16x16 blocks never read past a row.
inline void transpose_tile(const float* tile, std::size_t ld, int kc,
                           float* panel) {
#ifdef ADVP_GEMM_AVX512
  for (int kk = 0; kk < kc; kk += 16)
    for (int j = 0; j < kNr; j += 16)
      transpose16(tile + j * ld + kk, ld,
                  panel + static_cast<std::size_t>(kk) * kNr + j, kNr,
                  std::min(16, kc - kk));
#else
  for (int kk = 0; kk < kc; ++kk)
    for (int j = 0; j < kNr; ++j)
      panel[static_cast<std::size_t>(kk) * kNr + j] = tile[j * ld + kk];
#endif
}

// Transposed twin of pack_b_implicit: op(B) rows [pc, pc+kc) are output
// pixels and columns [j0, j0+nw) patch taps. The run table covers the
// pixel range once; each panel gathers its taps' pixel rows into an L1
// tile, one tap per row, and transposes the tile into the panel (taps past
// n are zero rows). Identical panel bytes to pack_b reading the staged
// column matrix with trans_b.
void pack_b_transposed(const PackSource& ps, int pc, int kc, int j0, int nw,
                       float* bp) {
  ScratchArena& arena = ScratchArena::local();
  ScratchArena::Frame frame(arena);
  const RunTable rt = build_run_table(ps, pc, kc, kNr, arena);
  const std::size_t ld = static_cast<std::size_t>(round_up(kc, kNr));
  float* tile = arena.alloc_floats(kNr * ld);
  PatchTap t = patch_tap(ps, j0);
  for (int jp = 0; jp < nw; jp += kNr) {
    const int nr = std::min(kNr, nw - jp);
    for (int j = 0; j < nr; ++j, next_tap(ps, t))
      gather_tap_row(ps, rt, t, tile + j * ld);
    std::fill(tile + nr * ld, tile + kNr * ld, 0.f);
    transpose_tile(tile, ld, kc,
                   bp + static_cast<std::size_t>(jp / kNr) * kc * kNr);
  }
  ADVP_OBS_COUNT(kGemmPackBytes,
                 static_cast<std::uint64_t>(kc) * round_up(nw, kNr) *
                     sizeof(float));
}

// Gathers the dense [rows x cols] column matrix (taps x pixels), row
// stride round_up(cols, kNr) with zero tails, for the tiny-product naive
// fallback (same bits: naive_gemm on this buffer reads exactly the
// elements a staged lowering holds).
void gather_dense(const PackSource& ps, int rows, int cols, float* dst) {
  ScratchArena& arena = ScratchArena::local();
  ScratchArena::Frame frame(arena);
  const RunTable rt = build_run_table(ps, 0, cols, kNr, arena);
  const std::size_t ld = static_cast<std::size_t>(round_up(cols, kNr));
  PatchTap t = patch_tap(ps, 0);
  for (int p = 0; p < rows; ++p, next_tap(ps, t))
    gather_tap_row(ps, rt, t, dst + static_cast<std::size_t>(p) * ld);
}

// ---- micro-kernels ---------------------------------------------------------
//
// Both kernels compute a full kMr x kNr tile: load C (or zero), then for
// each kk ascending issue one FMA per accumulator. `ap` advances kMr
// floats per k step, `bp` kNr floats per k step.

void micro_portable(int kc, const float* ap, const float* bp, float* c,
                    int ldc, bool zero_init) {
  float acc[kMr][kNr];
  for (int r = 0; r < kMr; ++r)
    for (int j = 0; j < kNr; ++j)
      acc[r][j] = zero_init ? 0.f : c[static_cast<std::size_t>(r) * ldc + j];
  for (int kk = 0; kk < kc; ++kk) {
    const float* brow = bp + static_cast<std::size_t>(kk) * kNr;
    const float* arow = ap + static_cast<std::size_t>(kk) * kMr;
    for (int r = 0; r < kMr; ++r) {
      const float av = arow[r];
      for (int j = 0; j < kNr; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (int r = 0; r < kMr; ++r)
    for (int j = 0; j < kNr; ++j)
      c[static_cast<std::size_t>(r) * ldc + j] = acc[r][j];
}

#ifdef ADVP_GEMM_AVX512
void micro_avx512(int kc, const float* ap, const float* bp, float* c,
                  int ldc, bool zero_init) {
  __m512 acc[kMr][2];
  for (int r = 0; r < kMr; ++r) {
    if (zero_init) {
      acc[r][0] = _mm512_setzero_ps();
      acc[r][1] = _mm512_setzero_ps();
    } else {
      acc[r][0] = _mm512_loadu_ps(c + static_cast<std::size_t>(r) * ldc);
      acc[r][1] =
          _mm512_loadu_ps(c + static_cast<std::size_t>(r) * ldc + 16);
    }
  }
  for (int kk = 0; kk < kc; ++kk) {
    const float* brow = bp + static_cast<std::size_t>(kk) * kNr;
    const float* arow = ap + static_cast<std::size_t>(kk) * kMr;
    const __m512 b0 = _mm512_loadu_ps(brow);
    const __m512 b1 = _mm512_loadu_ps(brow + 16);
    for (int r = 0; r < kMr; ++r) {
      const __m512 av = _mm512_set1_ps(arow[r]);
      acc[r][0] = _mm512_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < kMr; ++r) {
    _mm512_storeu_ps(c + static_cast<std::size_t>(r) * ldc, acc[r][0]);
    _mm512_storeu_ps(c + static_cast<std::size_t>(r) * ldc + 16, acc[r][1]);
  }
}
#endif

#ifdef ADVP_GEMM_AVX2
void micro_avx2(int kc, const float* ap, const float* bp, float* c, int ldc,
                bool zero_init) {
  __m256 acc[kMr][2];
  for (int r = 0; r < kMr; ++r) {
    if (zero_init) {
      acc[r][0] = _mm256_setzero_ps();
      acc[r][1] = _mm256_setzero_ps();
    } else {
      acc[r][0] = _mm256_loadu_ps(c + static_cast<std::size_t>(r) * ldc);
      acc[r][1] = _mm256_loadu_ps(c + static_cast<std::size_t>(r) * ldc + 8);
    }
  }
  for (int kk = 0; kk < kc; ++kk) {
    const float* brow = bp + static_cast<std::size_t>(kk) * kNr;
    const float* arow = ap + static_cast<std::size_t>(kk) * kMr;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    for (int r = 0; r < kMr; ++r) {
      const __m256 av = _mm256_broadcast_ss(arow + r);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < kMr; ++r) {
    _mm256_storeu_ps(c + static_cast<std::size_t>(r) * ldc, acc[r][0]);
    _mm256_storeu_ps(c + static_cast<std::size_t>(r) * ldc + 8, acc[r][1]);
  }
}
#endif

// Applies the fused epilogue to the C region [row0, row0+mr) x
// [col0, col0+nr). Each element is touched exactly once, immediately after
// its final Kc panel stored the completed sum (the tile is still
// cache-hot): add bias, fold eval batch-norm, activate. The expressions
// mirror the unfused bias-scatter, BatchNorm2d::forward, and activation
// layers verbatim, so fused output is bit-identical to the separate passes.
//
// The configuration is lifted to template parameters so the inner loop
// compiles to straight-line (vectorizable) code per combination — runtime
// per-element branches cost ~10x on the bias+ReLU path.
template <bool kBias, bool kPerCol, bool kBn, Act kAct>
void epilogue_tile(const GemmEpilogue& ep, float* c, int ldc, int row0,
                   int col0, int mr, int nr) {
  for (int r = 0; r < mr; ++r) {
    const int row = row0 + r;
    float* crow = c + static_cast<std::size_t>(r) * ldc;
    const float row_bias = (kBias && !kPerCol) ? ep.bias[row] : 0.f;
    const float bm = kBn ? ep.bn_mean[row] : 0.f;
    const float is = kBn ? ep.bn_inv_std[row] : 0.f;
    const float g = kBn ? ep.bn_gamma[row] : 0.f;
    const float bt = kBn ? ep.bn_beta[row] : 0.f;
    const float slope = ep.slope;
    for (int j = 0; j < nr; ++j) {
      float v = crow[j];
      if constexpr (kBias)
        v = v + (kPerCol ? ep.bias[col0 + j] : row_bias);
      if constexpr (kBn) {
        const float xh = (v - bm) * is;
        v = g * xh + bt;
      }
      if constexpr (kAct == Act::kReluLeaky) v = v > 0.f ? v : slope * v;
      crow[j] = v;
    }
    // The SiLU epilogue runs the same silu() kernel the SiLU layer and the
    // plan's SiLU op run, so fused and unfused outputs share their bits.
    if constexpr (kAct == Act::kSilu)
      silu(crow, crow, static_cast<std::size_t>(nr));
  }
}

using EpilogueFn = void (*)(const GemmEpilogue&, float*, int, int, int, int,
                            int);

template <bool kBias, bool kPerCol, bool kBn>
EpilogueFn pick_epilogue_act(Act act) {
  switch (act) {
    case Act::kReluLeaky:
      return &epilogue_tile<kBias, kPerCol, kBn, Act::kReluLeaky>;
    case Act::kSilu:
      return &epilogue_tile<kBias, kPerCol, kBn, Act::kSilu>;
    case Act::kNone:
      break;
  }
  return &epilogue_tile<kBias, kPerCol, kBn, Act::kNone>;
}

// Resolves the specialized tile function once per gemm() call.
EpilogueFn pick_epilogue(const GemmEpilogue& ep) {
  const bool bn = ep.bn_mean != nullptr;
  if (ep.bias) {
    if (ep.bias_per_col)
      return bn ? pick_epilogue_act<true, true, true>(ep.act)
                : pick_epilogue_act<true, true, false>(ep.act);
    return bn ? pick_epilogue_act<true, false, true>(ep.act)
              : pick_epilogue_act<true, false, false>(ep.act);
  }
  return bn ? pick_epilogue_act<false, false, true>(ep.act)
            : pick_epilogue_act<false, false, false>(ep.act);
}

void apply_epilogue(const GemmEpilogue& ep, float* c, int ldc, int row0,
                    int col0, int mr, int nr) {
  pick_epilogue(ep)(ep, c, ldc, row0, col0, mr, nr);
}

// Bytes of non-float packed storage expressed in the AlignedBuffer's float
// granularity, rounded up.
inline std::size_t floats_for_bytes(std::size_t bytes) {
  return (bytes + sizeof(float) - 1) / sizeof(float);
}

using MicroFn = void (*)(int, const float*, const float*, float*, int, bool);

MicroFn pick_micro() {
#if defined(ADVP_GEMM_AVX512)
  if (!g_force_portable.load(std::memory_order_relaxed)) return micro_avx512;
#elif defined(ADVP_GEMM_AVX2)
  if (!g_force_portable.load(std::memory_order_relaxed)) return micro_avx2;
#endif
  return micro_portable;
}

// Runs the micro-kernel on a possibly partial C tile. Edge tiles detour
// through a stack buffer padded with zeros; padded lanes only ever see
// zero A rows / zero B columns, so the valid region's bits are unaffected.
void micro_edge(MicroFn micro, int kc, const float* ap, const float* bp,
                float* c, int ldc, bool zero_init, int mr, int nr) {
  if (mr == kMr && nr == kNr) {
    micro(kc, ap, bp, c, ldc, zero_init);
    return;
  }
  float tile[kMr * kNr];
  if (zero_init) {
    std::fill(tile, tile + kMr * kNr, 0.f);
  } else {
    for (int r = 0; r < kMr; ++r)
      for (int j = 0; j < kNr; ++j)
        tile[r * kNr + j] =
            (r < mr && j < nr) ? c[static_cast<std::size_t>(r) * ldc + j]
                               : 0.f;
  }
  micro(kc, ap, bp, tile, kNr, false);
  for (int r = 0; r < mr; ++r)
    for (int j = 0; j < nr; ++j)
      c[static_cast<std::size_t>(r) * ldc + j] = tile[r * kNr + j];
}

// ---- int8 tier -------------------------------------------------------------
//
// Weights are quantized symmetrically per output channel at pack time (the
// scales live next to the packed panels in the cache slot); the activation
// operand is quantized per tensor with the calibrated scale the caller
// passes (GemmExtra::act_scale). Panels interleave k in
// quads of bytes, with the activation operand's bytes biased by +128 into
// the unsigned range at pack time: the AVX-512 kernel then runs the VNNI
// byte dot product (vpdpbusd — four u8*s8 MACs per lane per instruction,
// 4x the per-instruction MAC rate of fp32 FMA; the four int16
// intermediates are exact since |u*s| <= 255*127 < 2^15). The +128 bias
// is removed after the k loop by subtracting a per-output-channel
// compensation term 128 * sum_k(w_q), computed once when the weights are
// quantized and cached next to their scales. |biased acc| <= 255*127*k,
// so int32 accumulation is exact up to k = 66000 (checked). Integer
// addition is associative and the portable kernel computes the identical
// biased sum, so every backend and blocking produces identical
// accumulators; the only float ops are the per-element quantize (shared
// helper) and the dequant at write-back, both fixed-order — int8 results
// are bit-identical everywhere. Builds without AVX-512 VNNI fall back to
// the portable kernel (same bits; the speed contract is gated on VNNI
// hardware in bench/micro_gemm).

// quantize = clamp to [-127, 127] in the float domain, then round to
// nearest even. The float-domain clamp means the integer conversion can
// never overflow, so the scalar path (lrintf under the default rounding
// mode) and the SIMD path (cvtps_epi32, also RNE) produce the same integer
// for every input — quantization is backend-independent.
inline std::int8_t quantize8(float v, float inv_scale) {
  float s = v * inv_scale;
  s = s > 127.f ? 127.f : s;
  s = s < -127.f ? -127.f : s;
  return static_cast<std::int8_t>(std::lrintf(s));
}

// Vectorized quantization of a contiguous run under one scale.
void quantize_run(const float* src, std::size_t count, float inv,
                  std::int8_t* dst) {
  std::size_t i = 0;
#ifdef ADVP_GEMM_AVX512
  const __m512 vinv = _mm512_set1_ps(inv);
  const __m512 lo = _mm512_set1_ps(-127.f);
  const __m512 hi = _mm512_set1_ps(127.f);
  for (; i + 16 <= count; i += 16) {
    __m512 s = _mm512_mul_ps(_mm512_loadu_ps(src + i), vinv);
    s = _mm512_max_ps(_mm512_min_ps(s, hi), lo);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm512_cvtepi32_epi8(_mm512_cvtps_epi32(s)));
  }
#endif
  for (; i < count; ++i) dst[i] = quantize8(src[i], inv);
}

// Per-row (op(A)) / per-column (op(B)) symmetric scales: absmax / 127.
// An all-zero channel gets scale 0 (its quantized values and outputs are
// exactly zero, matching the fp32 product).
void weight_scales_a(const float* a, int lda, bool trans_a, int m, int k,
                     float* scales) {
  for (int i = 0; i < m; ++i) {
    float amax = 0.f;
    for (int kk = 0; kk < k; ++kk) {
      const float v = std::fabs(a_at(a, lda, trans_a, i, kk));
      if (v > amax) amax = v;
    }
    scales[i] = amax / 127.f;
  }
}

void weight_scales_b(const float* b, int ldb, bool trans_b, int k, int n,
                     float* scales) {
  for (int j = 0; j < n; ++j) {
    float amax = 0.f;
    for (int kk = 0; kk < k; ++kk) {
      const float v = std::fabs(b_at(b, ldb, trans_b, kk, j));
      if (v > amax) amax = v;
    }
    scales[j] = amax / 127.f;
  }
}

// Quantization runs through a dense int8 staging copy of the operand, in
// whichever orientation keeps the source rows contiguous — so the hot
// layouts (non-transposed activations, per-channel weights whose channels
// are contiguous) quantize fully vectorized, and the panel interleave that
// follows is pure integer work.
//   A staging: st[i*k + kk] when !trans_a, st[kk*m + i] when trans_a.
//   B staging: st[kk*n + j] when !trans_b, st[j*k + kk] when trans_b.

void stage_a_int8(const float* a, int lda, bool trans_a, int m, int k,
                  const float* inv_row, float inv_uniform, std::int8_t* st) {
  if (!trans_a) {
    for (int i = 0; i < m; ++i)
      quantize_run(a + static_cast<std::size_t>(i) * lda, k,
                   inv_row ? inv_row[i] : inv_uniform,
                   st + static_cast<std::size_t>(i) * k);
  } else if (!inv_row) {
    for (int kk = 0; kk < k; ++kk)
      quantize_run(a + static_cast<std::size_t>(kk) * lda, m, inv_uniform,
                   st + static_cast<std::size_t>(kk) * m);
  } else {
    for (int kk = 0; kk < k; ++kk) {
      const float* srow = a + static_cast<std::size_t>(kk) * lda;
      std::int8_t* drow = st + static_cast<std::size_t>(kk) * m;
      for (int i = 0; i < m; ++i) drow[i] = quantize8(srow[i], inv_row[i]);
    }
  }
}

inline std::int8_t staged_a(const std::int8_t* st, bool trans_a, int m,
                            int k, int i, int kk) {
  return trans_a ? st[static_cast<std::size_t>(kk) * m + i]
                 : st[static_cast<std::size_t>(i) * k + kk];
}

void stage_b_int8(const float* b, int ldb, bool trans_b, int k, int n,
                  const float* inv_col, float inv_uniform, std::int8_t* st) {
  if (trans_b) {
    for (int j = 0; j < n; ++j)
      quantize_run(b + static_cast<std::size_t>(j) * ldb, k,
                   inv_col ? inv_col[j] : inv_uniform,
                   st + static_cast<std::size_t>(j) * k);
  } else if (!inv_col) {
    for (int kk = 0; kk < k; ++kk)
      quantize_run(b + static_cast<std::size_t>(kk) * ldb, n, inv_uniform,
                   st + static_cast<std::size_t>(kk) * n);
  } else {
    for (int kk = 0; kk < k; ++kk) {
      const float* srow = b + static_cast<std::size_t>(kk) * ldb;
      std::int8_t* drow = st + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) drow[j] = quantize8(srow[j], inv_col[j]);
    }
  }
}

inline std::int8_t staged_b(const std::int8_t* st, bool trans_b, int k,
                            int n, int kk, int j) {
  return trans_b ? st[static_cast<std::size_t>(j) * k + kk]
                 : st[static_cast<std::size_t>(kk) * n + j];
}

// int8 A panels span the full (quad-padded) k range: element (r, kk) of
// row-panel p lives at panel[(kk/4)*kMr*4 + r*4 + (kk&3)], so the kernel
// broadcasts a row's four k-lane bytes with one 32-bit load. When A holds
// the activations (weights_in_a == false) the bytes carry the +128 bias
// (see tier comment). Padding bytes are 0 in either role; a padded lane
// always meets the other operand's zero padding, so it contributes
// nothing to any stored output.
void pack_a_int8(const std::int8_t* st, bool trans_a, int m, int k,
                 bool biased, std::int8_t* ap) {
  const int kpad = round_up(k, 4);
  const std::uint8_t flip = biased ? 0x80u : 0u;
  for (int ip = 0; ip < m; ip += kMr) {
    const int mr = std::min(kMr, m - ip);
    std::int8_t* panel =
        ap + static_cast<std::size_t>(ip / kMr) * kMr * kpad;
    for (int kq = 0; kq < kpad / 4; ++kq) {
      std::int8_t* dst = panel + static_cast<std::size_t>(kq) * kMr * 4;
      for (int r = 0; r < kMr; ++r)
        for (int t = 0; t < 4; ++t) {
          const int kk = 4 * kq + t;
          dst[r * 4 + t] =
              (r < mr && kk < k)
                  ? static_cast<std::int8_t>(
                        static_cast<std::uint8_t>(
                            staged_a(st, trans_a, m, k, ip + r, kk)) ^
                        flip)
                  : std::int8_t{0};
        }
    }
  }
  ADVP_OBS_COUNT(kGemmPackBytes,
                 static_cast<std::uint64_t>(round_up(m, kMr)) * kpad);
}

// Byte-transposes four kNr-byte k rows (each XORed with `flip`) into kNr
// 4-byte column quads — the int8 B panel's hot layout. Shared by the
// staged packer (rows point into the int8 staging image) and the implicit
// packer (rows quantized straight off the image gather).
inline void interleave_quad(const std::int8_t* s0, const std::int8_t* s1,
                            const std::int8_t* s2, const std::int8_t* s3,
                            std::uint8_t flip, std::int8_t* dst) {
#ifdef ADVP_GEMM_AVX512
  // kNr == 32: transpose four 32-byte k rows into 32 column quads.
  // unpacklo/hi_epi8 pairs rows (0,1) and (2,3) per 128-bit lane,
  // unpacklo/hi_epi16 merges the pairs into 4-byte column quads, and
  // the cross-lane permutes restore ascending column order.
  const __m256i bias = _mm256_set1_epi8(static_cast<char>(flip));
  const __m256i r0 = _mm256_xor_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s0)), bias);
  const __m256i r1 = _mm256_xor_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s1)), bias);
  const __m256i r2 = _mm256_xor_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s2)), bias);
  const __m256i r3 = _mm256_xor_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s3)), bias);
  const __m256i t0 = _mm256_unpacklo_epi8(r0, r1);
  const __m256i t1 = _mm256_unpackhi_epi8(r0, r1);
  const __m256i t2 = _mm256_unpacklo_epi8(r2, r3);
  const __m256i t3 = _mm256_unpackhi_epi8(r2, r3);
  const __m256i q0 = _mm256_unpacklo_epi16(t0, t2);
  const __m256i q1 = _mm256_unpackhi_epi16(t0, t2);
  const __m256i q2 = _mm256_unpacklo_epi16(t1, t3);
  const __m256i q3 = _mm256_unpackhi_epi16(t1, t3);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                      _mm256_permute2x128_si256(q0, q1, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 32),
                      _mm256_permute2x128_si256(q2, q3, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 64),
                      _mm256_permute2x128_si256(q0, q1, 0x31));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 96),
                      _mm256_permute2x128_si256(q2, q3, 0x31));
#elif defined(ADVP_GEMM_AVX2)
  // kNr == 16: transpose four 16-byte k rows into 16 column quads.
  const __m128i bias = _mm_set1_epi8(static_cast<char>(flip));
  const __m128i r0 = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(s0)), bias);
  const __m128i r1 = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(s1)), bias);
  const __m128i r2 = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(s2)), bias);
  const __m128i r3 = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(s3)), bias);
  const __m128i t0 = _mm_unpacklo_epi8(r0, r1);
  const __m128i t1 = _mm_unpackhi_epi8(r0, r1);
  const __m128i t2 = _mm_unpacklo_epi8(r2, r3);
  const __m128i t3 = _mm_unpackhi_epi8(r2, r3);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                   _mm_unpacklo_epi16(t0, t2));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16),
                   _mm_unpackhi_epi16(t0, t2));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 32),
                   _mm_unpacklo_epi16(t1, t3));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 48),
                   _mm_unpackhi_epi16(t1, t3));
#else
  for (int j = 0; j < kNr; ++j)
    for (int t = 0; t < 4; ++t)
      dst[j * 4 + t] = static_cast<std::int8_t>(
          static_cast<std::uint8_t>((t == 0   ? s0
                                     : t == 1 ? s1
                                     : t == 2 ? s2
                                              : s3)[j]) ^
          flip);
#endif
}

// int8 B panels also span the full k range (the int8 path has no Kc loop —
// see gemm_int8): element (kk, j) of column-panel jp lives at
// panel[(kk/4)*kNr*4 + (j - jp)*4 + (kk&3)]. Bytes carry the +128 bias
// when B holds the activations. The hot layout (!trans_b, full panel,
// four staged k rows in range) byte-transposes the rows into column quads
// with SIMD unpacks.
void pack_b_int8(const std::int8_t* st, bool trans_b, int k, int n, int j0,
                 int nw, bool biased, std::int8_t* bp) {
  const int kpad = round_up(k, 4);
  const std::uint8_t flip = biased ? 0x80u : 0u;
  for (int jp = 0; jp < nw; jp += kNr) {
    const int nr = std::min(kNr, nw - jp);
    std::int8_t* panel =
        bp + static_cast<std::size_t>(jp / kNr) * kpad * kNr;
    for (int kq = 0; kq < kpad / 4; ++kq) {
      std::int8_t* dst = panel + static_cast<std::size_t>(kq) * kNr * 4;
      const int k0 = 4 * kq;
      if (!trans_b && nr == kNr && k0 + 3 < k) {
        const std::int8_t* s0 =
            st + static_cast<std::size_t>(k0) * n + j0 + jp;
        const std::int8_t* s1 = s0 + n;
        const std::int8_t* s2 = s1 + n;
        const std::int8_t* s3 = s2 + n;
        interleave_quad(s0, s1, s2, s3, flip, dst);
        continue;
      }
      for (int j = 0; j < kNr; ++j)
        for (int t = 0; t < 4; ++t) {
          const int kk = k0 + t;
          dst[j * 4 + t] =
              (j < nr && kk < k)
                  ? static_cast<std::int8_t>(
                        static_cast<std::uint8_t>(staged_b(
                            st, trans_b, k, n, kk, j0 + jp + j)) ^
                        flip)
                  : std::int8_t{0};
        }
    }
  }
  ADVP_OBS_COUNT(kGemmPackBytes,
                 static_cast<std::uint64_t>(kpad) * round_up(nw, kNr));
}

// Implicit twin of the activation stage-then-pack (weights_in_a == true):
// gather each k row of the stripe in fp32, quantize it per panel under the
// per-tensor scale with the same backend-independent quantize_run
// stage_b_int8 uses, and interleave k quads with the +128 bias on in-range
// bytes. In-image padding zeros quantize to 0 and flip to 0x80 exactly
// like staged column-matrix zeros; panel padding (columns past nw, k rows
// past k) stays raw 0 so it meets the weight operand's zero padding —
// byte-identical panels, and the dense fp32 column matrix plus its int8
// staging copy never exist.
void pack_b_int8_implicit(const PackSource& ps, int k, int j0, int nw,
                          float inv, std::int8_t* bp) {
  const int kpad = round_up(k, 4);
  const std::size_t nw_pad = static_cast<std::size_t>(round_up(nw, kNr));
  ScratchArena& arena = ScratchArena::local();
  ScratchArena::Frame frame(arena);
  const RunTable rt = build_run_table(ps, j0, nw, kNr, arena);
  float* rows = arena.alloc_floats(4 * nw_pad);  // one quad of k rows
  PatchTap tap = patch_tap(ps, 0);
  for (int kq = 0; kq < kpad / 4; ++kq) {
    const int quad_rows = std::min(4, k - 4 * kq);
    for (int t = 0; t < quad_rows; ++t, next_tap(ps, tap))
      gather_tap_row(ps, rt, tap, rows + t * nw_pad);
    std::int8_t* dst = bp + static_cast<std::size_t>(kq) * kNr * 4;
    for (int jp = 0; jp < nw; jp += kNr) {
      const int nr = std::min(kNr, nw - jp);
      std::int8_t q[4][kNr];
      for (int t = 0; t < quad_rows; ++t)
        quantize_run(rows + t * nw_pad + jp, static_cast<std::size_t>(nr),
                     inv, q[t]);
      if (nr == kNr && quad_rows == 4) {
        // Full panel, all four k rows in range: every byte takes the
        // +128 bias, so the staged packer's SIMD transpose applies as-is.
        interleave_quad(q[0], q[1], q[2], q[3], 0x80u, dst);
      } else {
        for (int j = 0; j < kNr; ++j)
          for (int t = 0; t < 4; ++t)
            dst[j * 4 + t] =
                (j < nr && t < quad_rows)
                    ? static_cast<std::int8_t>(
                          static_cast<std::uint8_t>(q[t][j]) ^ 0x80u)
                    : std::int8_t{0};
      }
      dst += static_cast<std::size_t>(kpad) * kNr;  // same quad, next panel
    }
  }
  ADVP_OBS_COUNT(kGemmPackBytes,
                 static_cast<std::uint64_t>(kpad) * round_up(nw, kNr));
}

// The one writer of a weight operand's canonical packed image at tier `p`:
// what a cache slot holds after a miss, what gemm_int8 stages for a weight
// without a slot, and what export_packed_weights hands to save_advp. fp32
// op(A) is the full-k row-panel pack; fp32 op(B) packs each Kc block across
// the full width, the block at row pc starting at float offset npad*pc
// (stripe boundaries are kNr-aligned, so any stripe geometry indexes its
// panels in the same image). int8 quantizes per output channel into
// `scales`, writes the +128-bias compensation 128 * sum_k(w_q) into `comp`
// and packs the staged bytes unbiased.
void write_weight_image(const PackedWeightSpec& spec, GemmPrecision p,
                        void* dst, float* scales, std::int32_t* comp) {
  if (p == GemmPrecision::kFp32) {
    float* out = static_cast<float*>(dst);
    if (spec.is_a) {
      pack_a(spec.src, spec.ld, spec.trans, spec.d0, spec.d1, out);
      return;
    }
    const int npad = round_up(spec.d1, kNr);
    for (int pc = 0; pc < spec.d0; pc += kKc)
      pack_b(spec.src, spec.ld, spec.trans, pc, std::min(kKc, spec.d0 - pc),
             0, spec.d1, out + static_cast<std::size_t>(npad) * pc);
    return;
  }
  const int ch = packed_weight_channels(spec);
  const int k = spec.is_a ? spec.d1 : spec.d0;
  ScratchArena& arena = ScratchArena::local();
  ScratchArena::Frame frame(arena);
  if (spec.is_a)
    weight_scales_a(spec.src, spec.ld, spec.trans, ch, k, scales);
  else
    weight_scales_b(spec.src, spec.ld, spec.trans, k, ch, scales);
  float* inv = arena.alloc_floats(ch);
  for (int c = 0; c < ch; ++c) inv[c] = scales[c] > 0.f ? 1.f / scales[c] : 0.f;
  std::int8_t* st = static_cast<std::int8_t*>(
      arena.alloc_bytes(static_cast<std::size_t>(ch) * k));
  std::int8_t* out = static_cast<std::int8_t*>(dst);
  if (spec.is_a)
    stage_a_int8(spec.src, spec.ld, spec.trans, ch, k, inv, 0.f, st);
  else
    stage_b_int8(spec.src, spec.ld, spec.trans, k, ch, inv, 0.f, st);
  for (int c = 0; c < ch; ++c) {
    std::int32_t sum = 0;
    for (int kk = 0; kk < k; ++kk)
      sum += spec.is_a ? staged_a(st, spec.trans, ch, k, c, kk)
                       : staged_b(st, spec.trans, k, ch, kk, c);
    comp[c] = 128 * sum;
  }
  if (spec.is_a)
    pack_a_int8(st, spec.trans, ch, k, /*biased=*/false, out);
  else
    pack_b_int8(st, spec.trans, k, ch, 0, ch, /*biased=*/false, out);
}

// The slot's packed image of weight operand `spec` at tier `p`. A hit needs
// the same operand key, weight generation and tier, so switching a layer's
// tier (or recalibrating, which bumps the generation) always repacks — a
// slot never serves panels quantized for another tier. A miss detaches an
// adopted external image (the slot must never write through, or keep
// serving, a stale mapping) and writes the image into the slot's own
// buffer, int8 scales and comp beside it.
const void* slot_image(GemmCacheSlot* slot, const PackedWeightSpec& spec,
                       GemmPrecision p) {
  const std::uint64_t gen = weight_generation();
  const std::size_t floats = floats_for_bytes(packed_weights_bytes(spec, p));
  const std::size_t capacity =
      slot->external ? slot->external_floats : slot->packed.size_floats();
  if (slot->src == spec.src && slot->d0 == spec.d0 && slot->d1 == spec.d1 &&
      slot->ld == spec.ld && slot->trans == spec.trans &&
      slot->generation == gen && slot->precision == p && capacity >= floats) {
    ADVP_OBS_COUNT(kPackCacheHits, 1);
    return slot->panel_data();
  }
  slot->external = nullptr;
  slot->external_floats = 0;
  slot->packed.resize_floats(floats);
  slot->src = spec.src;
  slot->d0 = spec.d0;
  slot->d1 = spec.d1;
  slot->ld = spec.ld;
  slot->trans = spec.trans;
  slot->generation = gen;
  slot->precision = p;
  ADVP_OBS_COUNT(kPackCacheMisses, 1);
  if (p == GemmPrecision::kInt8) {
    const std::size_t ch =
        static_cast<std::size_t>(packed_weight_channels(spec));
    slot->scales.assign(ch, 0.f);
    slot->comp.assign(ch, 0);
  }
  write_weight_image(spec, p, slot->packed.data(), slot->scales.data(),
                     slot->comp.data());
  return slot->panel_data();
}

// int8 micro-kernels: full-k accumulation of a kMr x kNr tile of the
// *biased* integer sum (the activation operand's bytes carry +128) into an
// int32 scratch tile; the caller subtracts the per-channel compensation
// and dequantizes into C. kASigned says which operand is the signed
// (weight) side: true = A signed / B biased-unsigned, false = the reverse.
// Both backends compute the identical integer.

template <bool kASigned>
void micro_int8_portable(int kquads, const std::int8_t* ap,
                         const std::int8_t* bp, std::int32_t* acc) {
  std::fill(acc, acc + kMr * kNr, 0);
  for (int kq = 0; kq < kquads; ++kq) {
    const std::int8_t* arow = ap + static_cast<std::size_t>(kq) * kMr * 4;
    const std::int8_t* brow = bp + static_cast<std::size_t>(kq) * kNr * 4;
    for (int r = 0; r < kMr; ++r) {
      std::int32_t av[4];
      for (int t = 0; t < 4; ++t)
        av[t] = kASigned ? static_cast<std::int32_t>(arow[r * 4 + t])
                         : static_cast<std::int32_t>(
                               static_cast<std::uint8_t>(arow[r * 4 + t]));
      std::int32_t* accrow = acc + r * kNr;
      for (int j = 0; j < kNr; ++j) {
        const std::int8_t* bq = brow + j * 4;
        std::int32_t sum = 0;
        for (int t = 0; t < 4; ++t) {
          const std::int32_t bv =
              kASigned ? static_cast<std::int32_t>(
                             static_cast<std::uint8_t>(bq[t]))
                       : static_cast<std::int32_t>(bq[t]);
          sum += av[t] * bv;
        }
        accrow[j] += sum;
      }
    }
  }
}

#if defined(ADVP_GEMM_AVX512) && defined(__AVX512VNNI__)
template <bool kASigned>
void micro_int8_avx512(int kquads, const std::int8_t* ap,
                       const std::int8_t* bp, std::int32_t* acc) {
  __m512i vacc[kMr][2];
  for (int r = 0; r < kMr; ++r) {
    vacc[r][0] = _mm512_setzero_si512();
    vacc[r][1] = _mm512_setzero_si512();
  }
  const std::int32_t* aquads = reinterpret_cast<const std::int32_t*>(ap);
  for (int kq = 0; kq < kquads; ++kq) {
    const std::int32_t* arow = aquads + static_cast<std::size_t>(kq) * kMr;
    const std::int8_t* brow = bp + static_cast<std::size_t>(kq) * kNr * 4;
    // 32 column quads, one dword per column: b0 covers columns 0..15, b1
    // columns 16..31.
    const __m512i b0 = _mm512_loadu_si512(brow);
    const __m512i b1 = _mm512_loadu_si512(brow + 64);
    for (int r = 0; r < kMr; ++r) {
      // One 32-bit broadcast feeds vpdpbusd with the row's four k bytes;
      // the intrinsic's first multiplicand is the unsigned (biased
      // activation) operand, the second the signed weights.
      const __m512i av = _mm512_set1_epi32(arow[r]);
      if (kASigned) {
        vacc[r][0] = _mm512_dpbusd_epi32(vacc[r][0], b0, av);
        vacc[r][1] = _mm512_dpbusd_epi32(vacc[r][1], b1, av);
      } else {
        vacc[r][0] = _mm512_dpbusd_epi32(vacc[r][0], av, b0);
        vacc[r][1] = _mm512_dpbusd_epi32(vacc[r][1], av, b1);
      }
    }
  }
  for (int r = 0; r < kMr; ++r) {
    _mm512_storeu_si512(acc + r * kNr, vacc[r][0]);
    _mm512_storeu_si512(acc + r * kNr + 16, vacc[r][1]);
  }
}
#endif

using Int8MicroFn = void (*)(int, const std::int8_t*, const std::int8_t*,
                             std::int32_t*);

Int8MicroFn pick_micro_int8(bool a_signed) {
#if defined(ADVP_GEMM_AVX512) && defined(__AVX512VNNI__)
  if (!g_force_portable.load(std::memory_order_relaxed))
    return a_signed ? micro_int8_avx512<true> : micro_int8_avx512<false>;
#endif
  return a_signed ? micro_int8_portable<true> : micro_int8_portable<false>;
}

// int8 orchestration. Unlike fp32 there is no Kc loop: C holds
// dequantized floats, so partial integer sums cannot round-trip through it.
// Panels span the full k range and each tile is accumulated to completion
// in one micro-kernel call, then dequantized (acc * w_scale[channel] *
// act_scale) and run through the ordinary epilogue.
void gemm_int8(int m, int n, int k, const float* a, int lda, bool trans_a,
               const float* b, int ldb, bool trans_b, float* c, int ldc,
               const GemmExtra& extra) {
  ADVP_CHECK_MSG(k <= 66000,
                 "gemm: int8 k too large for exact int32 accumulation");
  const int kpad = round_up(k, 4);
  const int kquads = kpad / 4;
  const bool wa = extra.weights_in_a;
  const GemmEpilogue* ep = extra.epilogue;
  Int8MicroFn micro = pick_micro_int8(/*a_signed=*/wa);

  ScratchArena& main_arena = ScratchArena::local();
  ScratchArena::Frame top(main_arena);

  // Activation per-tensor scale: calibrated, fixed for the whole call (and
  // checked > 0 in gemm()), so every output bit is independent of worker
  // count and stripe geometry.
  const float act_scale = extra.act_scale;
  const float act_inv = 1.f / act_scale;

  // Only the weight operand uses its cache slot (activations change every
  // call); the slot stores the quantized panels plus the per-channel
  // scales, so warm inference re-quantizes nothing.
  const bool cache_on = pack_cache_enabled();
  GemmCacheSlot* ac = cache_on && wa ? extra.a_cache : nullptr;
  GemmCacheSlot* bc = cache_on && !wa ? extra.b_cache : nullptr;

  // ---- op(A) panels (weights when wa, activations otherwise) ----
  // Panels are int8 k-quads (see pack_a_int8): 0.25x the fp32 pack bytes.
  const std::size_t a_bytes =
      static_cast<std::size_t>(round_up(m, kMr)) * kpad;
  const std::int8_t* ap;
  const float* w_scales = nullptr;
  const std::int32_t* w_comp = nullptr;
  if (wa) {
    const PackedWeightSpec spec{true, a, m, k, lda, trans_a};
    if (ac) {
      ap = static_cast<const std::int8_t*>(
          slot_image(ac, spec, GemmPrecision::kInt8));
      w_scales = ac->scales.data();
      w_comp = ac->comp.data();
    } else {
      float* scales = main_arena.alloc_floats(m);
      std::int32_t* comp = static_cast<std::int32_t*>(main_arena.alloc_bytes(
          static_cast<std::size_t>(m) * sizeof(std::int32_t)));
      std::int8_t* buf =
          static_cast<std::int8_t*>(main_arena.alloc_bytes(a_bytes));
      write_weight_image(spec, GemmPrecision::kInt8, buf, scales, comp);
      ap = buf;
      w_scales = scales;
      w_comp = comp;
    }
  } else {
    std::int8_t* buf =
        static_cast<std::int8_t*>(main_arena.alloc_bytes(a_bytes));
    std::int8_t* st = static_cast<std::int8_t*>(
        main_arena.alloc_bytes(static_cast<std::size_t>(m) * k));
    stage_a_int8(a, lda, trans_a, m, k, nullptr, act_inv, st);
    pack_a_int8(st, trans_a, m, k, /*biased=*/true, buf);
    ap = buf;
  }

  // ---- op(B) panels ----
  // Weights-in-B: canonical full-k column panels (panel jp at byte offset
  // (jp/kNr)*kpad*kNr — stripe boundaries are kNr-aligned, so any stripe
  // geometry indexes the same cached buffer). Activations-in-B: quantized
  // into staging once, serially, up front; each stripe then only
  // interleaves its columns (integer work) inside run_stripe.
  const int npad = round_up(n, kNr);
  const std::int8_t* b_full = nullptr;
  const std::int8_t* b_stage = nullptr;
  if (!wa) {
    const PackedWeightSpec spec{false, b, k, n, ldb, trans_b};
    if (bc) {
      b_full = static_cast<const std::int8_t*>(
          slot_image(bc, spec, GemmPrecision::kInt8));
      w_scales = bc->scales.data();
      w_comp = bc->comp.data();
    } else {
      float* scales = main_arena.alloc_floats(n);
      std::int32_t* comp = static_cast<std::int32_t*>(main_arena.alloc_bytes(
          static_cast<std::size_t>(n) * sizeof(std::int32_t)));
      std::int8_t* buf = static_cast<std::int8_t*>(main_arena.alloc_bytes(
          static_cast<std::size_t>(npad) * kpad));
      write_weight_image(spec, GemmPrecision::kInt8, buf, scales, comp);
      b_full = buf;
      w_scales = scales;
      w_comp = comp;
    }
  } else if (!extra.b_pack) {
    std::int8_t* st = static_cast<std::int8_t*>(
        main_arena.alloc_bytes(static_cast<std::size_t>(k) * n));
    stage_b_int8(b, ldb, trans_b, k, n, nullptr, act_inv, st);
    b_stage = st;
  }
  // With an implicit op(B) the activation staging copy is skipped entirely;
  // each stripe quantizes straight out of the image inside run_stripe.

  const std::size_t macs =
      static_cast<std::size_t>(m) * n * static_cast<std::size_t>(k);
  for_each_stripe(n, macs, [&](int j0, int nw) {
    const int nw_pad = round_up(nw, kNr);
    ScratchArena& arena = ScratchArena::local();
    ScratchArena::Frame frame(arena);
    const std::int8_t* bp;
    if (b_full) {
      bp = b_full + static_cast<std::size_t>(j0 / kNr) * kpad * kNr;
    } else {
      std::int8_t* buf = static_cast<std::int8_t*>(arena.alloc_bytes(
          static_cast<std::size_t>(kpad) * nw_pad));
      if (extra.b_pack)
        pack_b_int8_implicit(*extra.b_pack, k, j0, nw, act_inv, buf);
      else
        pack_b_int8(b_stage, trans_b, k, n, j0, nw, /*biased=*/wa, buf);
      bp = buf;
    }
    alignas(64) std::int32_t acc[kMr * kNr];
    for (int jp = 0; jp < nw; jp += kNr) {
      const std::int8_t* bpanel =
          bp + static_cast<std::size_t>(jp / kNr) * kpad * kNr;
      const int nr = std::min(kNr, nw - jp);
      // Per-column dequant factors and bias compensation for this panel
      // (weights-in-B).
      float col_dq[kNr];
      std::int32_t col_comp[kNr];
      if (!wa)
        for (int j = 0; j < nr; ++j) {
          col_dq[j] = w_scales[j0 + jp + j] * act_scale;
          col_comp[j] = w_comp[j0 + jp + j];
        }
      for (int row = 0; row < m; row += kMr) {
        const std::int8_t* apanel =
            ap + static_cast<std::size_t>(row / kMr) * kMr * kpad;
        const int mr = std::min(kMr, m - row);
        micro(kquads, apanel, bpanel, acc);
        float* cptr = c + static_cast<std::size_t>(row) * ldc + j0 + jp;
        for (int r = 0; r < mr; ++r) {
          float* crow = cptr + static_cast<std::size_t>(r) * ldc;
          const std::int32_t* accrow = acc + r * kNr;
          if (wa) {
            const float s_row = w_scales[row + r] * act_scale;
            const std::int32_t comp_r = w_comp[row + r];
            for (int j = 0; j < nr; ++j)
              crow[j] = static_cast<float>(accrow[j] - comp_r) * s_row;
          } else {
            for (int j = 0; j < nr; ++j)
              crow[j] =
                  static_cast<float>(accrow[j] - col_comp[j]) * col_dq[j];
          }
        }
        if (ep) apply_epilogue(*ep, cptr, ldc, row, j0 + jp, mr, nr);
      }
    }
  });
}

}  // namespace

const char* precision_name(GemmPrecision p) {
  switch (p) {
    case GemmPrecision::kInt8:
      return "int8";
    case GemmPrecision::kFp32:
      break;
  }
  return "fp32";
}

void gemm(int m, int n, int k, const float* a, int lda, bool trans_a,
          const float* b, int ldb, bool trans_b, float* c, int ldc,
          bool accumulate, const GemmExtra& extra) {
  ADVP_CHECK_MSG(m >= 0 && n >= 0 && k >= 0, "gemm: negative dimension");
  ADVP_CHECK_MSG(extra.precision != GemmPrecision::kInt8 ||
                     extra.act_scale > 0.f,
                 "gemm: int8 needs a calibrated activation scale "
                 "(act_scale > 0); run nn::calibrate() on the model first");
  const GemmEpilogue* ep = extra.epilogue;
  ADVP_CHECK_MSG(!(ep && accumulate),
                 "gemm: epilogue requires accumulate=false");
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate)
      for (int i = 0; i < m; ++i)
        std::fill(c + static_cast<std::size_t>(i) * ldc,
                  c + static_cast<std::size_t>(i) * ldc + n, 0.f);
    if (ep) apply_epilogue(*ep, c, ldc, 0, 0, m, n);
    return;
  }
  const std::size_t macs =
      static_cast<std::size_t>(m) * n * static_cast<std::size_t>(k);
  ADVP_OBS_COUNT(kMatmulFlops, 2 * static_cast<std::uint64_t>(macs));
  if (const PackSource* ps = extra.b_pack) {
    ADVP_CHECK_MSG(!trans_b, "gemm: b_pack requires trans_b == false");
    ADVP_CHECK_MSG(!extra.b_cache, "gemm: b_pack excludes b_cache");
    ADVP_CHECK_MSG((ps->transposed ? n : k) ==
                       ps->c_in * ps->kernel * ps->kernel,
                   "gemm: b_pack patch size does not match "
                       << (ps->transposed ? "n" : "k"));
    ADVP_CHECK_MSG((ps->transposed ? k : n) ==
                       ps->items * ps->out_h * ps->out_w,
                   "gemm: b_pack output pixels do not match "
                       << (ps->transposed ? "k" : "n"));
    ADVP_CHECK_MSG(
        !ps->transposed || extra.precision == GemmPrecision::kFp32,
        "gemm: a transposed b_pack is fp32 only");
    ADVP_CHECK_MSG(
        extra.precision != GemmPrecision::kInt8 || extra.weights_in_a,
        "gemm: int8 b_pack requires weights_in_a");
  }
  if (extra.precision != GemmPrecision::kFp32) {
    ADVP_CHECK_MSG(!accumulate, "gemm: int8 requires accumulate=false");
    gemm_int8(m, n, k, a, lda, trans_a, b, ldb, trans_b, c, ldc, extra);
    return;
  }
  if (macs <= kNaiveMacLimit || n < 8) {
    if (const PackSource* ps = extra.b_pack) {
      // Tiny products gather the dense [taps x pixels] column matrix and
      // run the plain loop on it (transposed for a transposed source) —
      // the identical element set the staged caller would pass, so the
      // naive path stays bit-exact with or without b_pack.
      ScratchArena& arena = ScratchArena::local();
      ScratchArena::Frame frame(arena);
      const int taps = ps->transposed ? n : k;
      const int pixels = ps->transposed ? k : n;
      const int ldb_dense = round_up(pixels, kNr);
      float* bbuf =
          arena.alloc_floats(static_cast<std::size_t>(taps) * ldb_dense);
      gather_dense(*ps, taps, pixels, bbuf);
      naive_gemm(m, n, k, a, lda, trans_a, bbuf, ldb_dense, ps->transposed,
                 c, ldc, accumulate);
    } else {
      naive_gemm(m, n, k, a, lda, trans_a, b, ldb, trans_b, c, ldc,
                 accumulate);
    }
    if (ep) apply_epilogue(*ep, c, ldc, 0, 0, m, n);
    return;
  }

  MicroFn micro = pick_micro();

  const bool cache_on = pack_cache_enabled();
  GemmCacheSlot* ac = cache_on ? extra.a_cache : nullptr;
  GemmCacheSlot* bc = cache_on ? extra.b_cache : nullptr;

  const std::size_t a_floats =
      static_cast<std::size_t>(round_up(m, kMr)) * k;
  ScratchArena& main_arena = ScratchArena::local();
  ScratchArena::Frame a_frame(main_arena);
  const float* ap;
  if (ac) {
    ap = static_cast<const float*>(
        slot_image(ac, {true, a, m, k, lda, trans_a}, GemmPrecision::kFp32));
  } else {
    float* buf = main_arena.alloc_floats(a_floats);
    pack_a(a, lda, trans_a, m, k, buf);
    ap = buf;
  }

  // Cached B is the canonical full-width image (see write_weight_image):
  // the Kc block starting at row pc begins at float offset npad*pc.
  const int npad = round_up(n, kNr);
  const float* b_cached =
      bc ? static_cast<const float*>(slot_image(
               bc, {false, b, k, n, ldb, trans_b}, GemmPrecision::kFp32))
         : nullptr;

  // Column stripes: each owns disjoint columns of C and packs its own B
  // panels into its thread's arena.
  for_each_stripe(n, macs, [&](int j0, int nw) {
    const int nw_pad = round_up(nw, kNr);
    ScratchArena& arena = ScratchArena::local();
    ScratchArena::Frame frame(arena);
    float* bp_scratch =
        b_cached ? nullptr
                 : arena.alloc_floats(
                       static_cast<std::size_t>(std::min(kKc, k)) * nw_pad);
    for (int pc = 0; pc < k; pc += kKc) {
      const int kc = std::min(kKc, k - pc);
      const float* bp;
      if (b_cached) {
        bp = b_cached + static_cast<std::size_t>(npad) * pc +
             static_cast<std::size_t>(j0 / kNr) * kc * kNr;
      } else {
        if (extra.b_pack && extra.b_pack->transposed)
          pack_b_transposed(*extra.b_pack, pc, kc, j0, nw, bp_scratch);
        else if (extra.b_pack)
          pack_b_implicit(*extra.b_pack, pc, kc, j0, nw, bp_scratch);
        else
          pack_b(b, ldb, trans_b, pc, kc, j0, nw, bp_scratch);
        bp = bp_scratch;
      }
      // First k panel initializes C (unless accumulating); later panels
      // load the running sums back into registers, preserving the
      // ascending-k accumulation order per element. The epilogue runs on a
      // tile only after its last panel completes the sum.
      const bool zero_first = pc == 0 && !accumulate;
      const bool last_panel = pc + kc == k;
      for (int ic = 0; ic < m; ic += kMc) {
        const int mc = std::min(kMc, m - ic);
        for (int jp = 0; jp < nw; jp += kNr) {
          const float* bpanel =
              bp + static_cast<std::size_t>(jp / kNr) * kc * kNr;
          const int nr = std::min(kNr, nw - jp);
          for (int ir = 0; ir < mc; ir += kMr) {
            const int row = ic + ir;  // kMc is a multiple of kMr
            const float* apanel =
                ap + static_cast<std::size_t>(row / kMr) * kMr * k +
                static_cast<std::size_t>(pc) * kMr;
            const int mr = std::min(kMr, m - row);
            float* cptr = c + static_cast<std::size_t>(row) * ldc + j0 + jp;
            micro_edge(micro, kc, apanel, bpanel, cptr, ldc, zero_first, mr,
                       nr);
            if (last_panel && ep)
              apply_epilogue(*ep, cptr, ldc, row, j0 + jp, mr, nr);
          }
        }
      }
    }
  });
}

void transpose_blocked(const float* src, int m, int n, float* dst) {
  constexpr int kTile = 32;  // 32x32 float tile: 4 KiB in, 4 KiB out
  for (int ii = 0; ii < m; ii += kTile) {
    const int ie = std::min(ii + kTile, m);
    for (int jj = 0; jj < n; jj += kTile) {
      const int je = std::min(jj + kTile, n);
      for (int i = ii; i < ie; ++i) {
        const float* srow = src + static_cast<std::size_t>(i) * n;
        for (int j = jj; j < je; ++j)
          dst[static_cast<std::size_t>(j) * m + i] = srow[j];
      }
    }
  }
}

std::uint64_t weight_generation() {
  return g_weight_generation.load(std::memory_order_relaxed);
}

void bump_weight_generation() {
  g_weight_generation.fetch_add(1, std::memory_order_relaxed);
}

bool pack_cache_enabled() {
  const int f = g_force_pack_cache.load(std::memory_order_relaxed);
  return f < 0 ? pack_cache_env_default() : f != 0;
}

int gemm_panel_mr() { return kMr; }
int gemm_panel_nr() { return kNr; }

std::size_t packed_weights_bytes(const PackedWeightSpec& spec,
                                 GemmPrecision p) {
  if (spec.d0 <= 0 || spec.d1 <= 0) return 0;
  if (spec.is_a) {
    const std::size_t rows =
        static_cast<std::size_t>(round_up(spec.d0, kMr));
    switch (p) {
      case GemmPrecision::kFp32:
        return rows * spec.d1 * sizeof(float);
      case GemmPrecision::kInt8:
        return rows * static_cast<std::size_t>(round_up(spec.d1, 4));
    }
  } else {
    const std::size_t cols =
        static_cast<std::size_t>(round_up(spec.d1, kNr));
    switch (p) {
      case GemmPrecision::kFp32:
        return cols * spec.d0 * sizeof(float);
      case GemmPrecision::kInt8:
        return cols * static_cast<std::size_t>(round_up(spec.d0, 4));
    }
  }
  return 0;
}

int packed_weight_channels(const PackedWeightSpec& spec) {
  return spec.is_a ? spec.d0 : spec.d1;
}

void export_packed_weights(const PackedWeightSpec& spec, GemmPrecision p,
                           void* dst, float* scales, std::int32_t* comp) {
  ADVP_CHECK_MSG(spec.src && dst && spec.d0 > 0 && spec.d1 > 0,
                 "export_packed_weights: null or degenerate spec");
  ADVP_CHECK_MSG(p == GemmPrecision::kFp32 || (scales && comp),
                 "export_packed_weights: int8 export needs scale/comp "
                 "destinations");
  write_weight_image(spec, p, dst, scales, comp);
}

bool adopt_packed_weights(GemmCacheSlot* slot, const PackedWeightSpec& spec,
                          GemmPrecision p, const void* panels,
                          std::size_t bytes, const float* scales,
                          const std::int32_t* comp) {
  if (!slot || !panels || !spec.src || spec.d0 <= 0 || spec.d1 <= 0)
    return false;
  // With the cache kill-switch on, gemm() ignores slots entirely — there
  // is no warm path to wire the image into.
  if (!pack_cache_enabled()) return false;
  if (bytes != packed_weights_bytes(spec, p) || bytes == 0) return false;
  if (p == GemmPrecision::kInt8 && (!scales || !comp)) return false;
  slot->external = static_cast<const float*>(panels);
  slot->external_floats = floats_for_bytes(bytes);
  slot->src = spec.src;
  slot->d0 = spec.d0;
  slot->d1 = spec.d1;
  slot->ld = spec.ld;
  slot->trans = spec.trans;
  slot->generation = weight_generation();
  slot->precision = p;
  if (p == GemmPrecision::kInt8) {
    const std::size_t ch =
        static_cast<std::size_t>(packed_weight_channels(spec));
    slot->scales.assign(scales, scales + ch);
    slot->comp.assign(comp, comp + ch);
  } else {
    slot->scales.clear();
    slot->comp.clear();
  }
  return true;
}

const char* gemm_backend() {
#if defined(ADVP_GEMM_AVX512)
  if (!g_force_portable.load(std::memory_order_relaxed)) return "avx512";
#elif defined(ADVP_GEMM_AVX2)
  if (!g_force_portable.load(std::memory_order_relaxed)) return "avx2";
#endif
  return "portable";
}

namespace gemm_detail {
void force_portable(bool on) {
  g_force_portable.store(on, std::memory_order_relaxed);
}
bool forcing_portable() {
  return g_force_portable.load(std::memory_order_relaxed);
}
void force_pack_cache(int mode) {
  g_force_pack_cache.store(mode < 0 ? -1 : (mode != 0 ? 1 : 0),
                           std::memory_order_relaxed);
}
}  // namespace gemm_detail

}  // namespace advp
