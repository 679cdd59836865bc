// Blocked, packed single-precision GEMM — the kernel layer under matmul
// and conv2d.
//
// C[m x n] = op(A)[m x k] * op(B)[k x n] (row-major, explicit leading
// dimensions, optional accumulation into C). The implementation packs A
// into MR-row panels and B into NR-column panels sized to the cache
// hierarchy (Mc/Kc blocking), then runs a register-blocked micro-kernel:
// an intrinsics kernel (AVX-512 when available, else AVX2+FMA) when the
// build enables ADVP_SIMD on x86, and a plain-C kernel the compiler
// auto-vectorizes otherwise.
//
// Determinism contract (the library's headline guarantee): for every
// output element, the k-accumulation is one multiply-add per k, in
// ascending k order, starting from C's prior value (or zero). The
// multiply-add is fused where the build targets FMA (a Release build's
// -march=native on any FMA-capable x86 host). Elsewhere the kernel and the
// naive loop both round the product and then the sum, so they still agree
// bit for bit with each other. The micro-kernel loads C into its
// accumulator registers before each Kc panel, so panel blocking never
// re-associates the sum — results are bit-identical to the
// straightforward i-k-j loop, for any worker count, any blocking geometry,
// and with the intrinsics path on or off.
//
// Transposed operands are handled inside the packing routines (reads are
// re-strided while staging panels), so callers never materialize a
// transposed copy for the sake of a product.
//
// Scratch memory (packed panels, edge tiles) comes from the thread-local
// ScratchArena: the steady state performs zero heap allocations.
//
// Inference fast path (opt-in per call via GemmExtra):
//  - GemmCacheSlot: a caller-owned cache of one operand's packed panels,
//    keyed on (source pointer, geometry, transpose flag, global weight
//    generation). Layers hand their weight operand's slot to gemm(); while
//    the weights are untouched the pack step is skipped entirely.
//    Optimizer steps / weight loads bump the generation, so training
//    correctness is untouched.
//  - GemmEpilogue: bias add, optional eval-BatchNorm fold, and an optional
//    activation applied to each C tile right after its final Kc panel is
//    accumulated — one pass while the tile is cache-hot, replacing the
//    separate bias-scatter and activation sweeps. The per-element float
//    operation sequence is exactly the unfused one (accumulate, then
//    bias, then normalize, then activate), so results stay bit-identical.
//
// Quantized inference tier (opt-in per call via GemmExtra):
//  - kInt8: the weight operand (the one whose GemmCacheSlot the caller
//    provides; see GemmExtra::weights_in_a) is quantized symmetrically per
//    output channel at pack time, the activation operand per tensor with
//    the scale a calibration pass recorded (act_scale > 0, required).
//    Accumulation is exact int32 over the full k range; dequantization
//    (acc * w_scale[channel] * act_scale) happens at C write-back, followed
//    by the ordinary fused epilogue. Integer accumulation is associative,
//    so int8 results are bit-identical across backends, worker counts, and
//    blocking geometry by construction.
// Quantized packed panels live in the same generation-counted cache slots
// as fp32 packs (the slot key includes the precision), so warm inference
// re-quantizes nothing. int8 calls require accumulate == false.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/scratch.h"

namespace advp {

/// Activation applied by a fused GEMM epilogue.
enum class Act : int {
  kNone = 0,
  kReluLeaky,  ///< v > 0 ? v : slope * v (slope 0 == plain ReLU)
  kSilu,       ///< v * sigmoid(v)
};

/// Optional fused epilogue: applied to every C element exactly once, after
/// its full k-accumulation, in the order bias -> batch-norm fold ->
/// activation (mirroring the unfused conv-scatter + BatchNorm2d + act
/// layer sequence bit-for-bit). Incompatible with accumulate=true.
struct GemmEpilogue {
  const float* bias = nullptr;  ///< length m (per row) or n (bias_per_col)
  bool bias_per_col = false;
  // Eval-mode BatchNorm fold, all per-row (length m); mean/inv_std/gamma/
  // beta must all be set together or all be null.
  const float* bn_mean = nullptr;
  const float* bn_inv_std = nullptr;
  const float* bn_gamma = nullptr;
  const float* bn_beta = nullptr;
  Act act = Act::kNone;
  float slope = 0.f;  ///< negative slope for kReluLeaky
};

/// Numeric tier a gemm() call runs at. fp32 is the default and the only
/// tier usable for gradients; int8 is an inference-only quantized tier
/// selected per call through GemmExtra (see file header). The values are
/// the `.advp` section-table tier ids; 1 belonged to a retired tier.
enum class GemmPrecision : int {
  kFp32 = 0,  ///< fp32 storage, fp32 FMA accumulation (bit-exact seed path)
  kInt8 = 2,  ///< int8 packed panels, int32 accumulation, fp32 dequant
};

/// @brief Human-readable tier name: "fp32" or "int8".
const char* precision_name(GemmPrecision p);

/// One cached packed operand. Owned by the caller (typically a layer, so
/// the slot dies with the weights it shadows — a slot must never outlive
/// or be shared beyond its source buffer's owner). A slot is valid for the
/// A or the B operand role it was filled in, not both; gemm() revalidates
/// on (src, dims, ld, trans, precision, weight generation) and repacks on
/// mismatch — switching precision on the same slot forces a repack.
/// Not thread-safe: a slot must not be passed to concurrent gemm() calls.
struct GemmCacheSlot {
  AlignedBuffer packed;
  const float* src = nullptr;
  int d0 = 0, d1 = 0, ld = 0;  ///< logical op() dims: m,k for A; k,n for B
  bool trans = false;
  std::uint64_t generation = 0;
  GemmPrecision precision = GemmPrecision::kFp32;
  /// kInt8 only: per-output-channel symmetric weight scales, computed at
  /// pack time (length d0 for a weights-in-A slot, d1 for weights-in-B).
  std::vector<float> scales;
  /// kInt8 only: per-output-channel compensation terms (128 * sum of the
  /// channel's quantized weights) that remove the +128 bias the kernel
  /// applies to activation bytes so it can run the unsigned-by-signed
  /// VNNI byte dot product. Same length as scales.
  std::vector<std::int32_t> comp;

  /// Externally owned packed panels adopted from a `.advp` model mapping
  /// (see adopt_packed_weights). While set, gemm() serves panels straight
  /// from this read-only image and `packed` stays untouched; any key
  /// mismatch (weight mutation, geometry change, tier switch) drops the
  /// pointer and repacks into the owned buffer — an adopted image is never
  /// written through or read after the slot stops matching.
  const float* external = nullptr;
  std::size_t external_floats = 0;  ///< capacity of `external`, float units

  /// @brief Packed panels a cache hit serves: the adopted external image
  /// when one is installed, else the slot-owned buffer.
  const float* panel_data() const {
    return external ? external : packed.data();
  }

  /// Forces a repack on next use (also detaches any adopted image).
  void invalidate() {
    src = nullptr;
    external = nullptr;
    external_floats = 0;
  }
};

/// Implicit-im2col descriptor: the conv geometry gemm() needs to gather
/// op(B) patch elements straight out of NCHW image storage while packing
/// B panels, instead of reading a dense [k x n] im2col column matrix a
/// caller staged. Element (kk, j) of op(B) decomposes exactly like the
/// staged lowering: kk -> (c, ky, kx) within the patch, j -> (item, oy,
/// ox) within the batch of output pixels, value = x[item][c]
/// [oy*stride + ky - pad][ox*stride + kx - pad] (zero outside the image).
/// Because the packer gathers the same element multiset in the same panel
/// order, and the k-accumulation order is untouched, results are
/// bit-identical on every tier to a gemm() fed the staged column matrix,
/// which is how the tests check it.
struct PackSource {
  const float* base = nullptr;  ///< item 0's [c_in, h, w] plane
  std::size_t item_stride = 0;  ///< floats between consecutive items' planes
  int items = 1;                ///< batch items stacked into one wide op(B)
  int c_in = 0;                 ///< input channels
  int h = 0, w = 0;             ///< input spatial dims
  int kernel = 0;               ///< square kernel size
  int stride = 1;
  int pad = 0;
  int out_h = 0, out_w = 0;  ///< conv output dims (out_h*out_w cols per item)
  /// op(B) is the transposed column matrix: element (kk, j) is output
  /// pixel kk of patch tap j, so k counts pixels and n taps — the cols^T
  /// operand of a conv weight gradient. Bit-identical to a gemm() with
  /// trans_b reading the staged matrix. fp32 only.
  bool transposed = false;
};

/// Optional extensions to a gemm() call.
struct GemmExtra {
  GemmCacheSlot* a_cache = nullptr;  ///< pack-once cache for op(A)
  GemmCacheSlot* b_cache = nullptr;  ///< pack-once cache for op(B)
  const GemmEpilogue* epilogue = nullptr;
  /// Numeric tier for this call. kInt8 requires accumulate=false.
  GemmPrecision precision = GemmPrecision::kFp32;
  /// kInt8 only: which operand holds the weights (per-output-channel
  /// quantization runs over op(A) rows when true, op(B) columns when
  /// false). The other operand is the activation, quantized per tensor.
  bool weights_in_a = true;
  /// kInt8 only: per-tensor activation quantization scale (range / 127
  /// from a calibration pass). A fixed scale keeps every output bit
  /// independent of the other items, worker count and stripe geometry.
  /// Must be > 0 at kInt8: gemm() throws CheckError otherwise.
  float act_scale = 0.f;
  /// Implicit-im2col source for op(B) (see PackSource). When set, `b` is
  /// ignored (pass nullptr) and the pack step gathers patch elements
  /// straight from the NCHW image. Requires trans_b == false semantics,
  /// no b_cache, k == c_in*kernel*kernel and n == items*out_h*out_w (the
  /// other way round for a transposed source, which is fp32 only), and —
  /// at kInt8 — weights_in_a. Results are bit-identical to
  /// staging the column matrix first.
  const PackSource* b_pack = nullptr;
};

/// @brief C = op(A) * op(B), optionally accumulating into C.
/// @param m,n,k Logical GEMM dimensions: op(A) is m x k, op(B) is k x n.
/// @param a Row-major storage of A. With trans_a == false, element (i,kk)
///   of op(A) is a[i*lda + kk]; with trans_a == true it is a[kk*lda + i].
/// @param b Row-major storage of B. With trans_b == false, element (kk,j)
///   of op(B) is b[kk*ldb + j]; with trans_b == true it is b[j*ldb + kk].
/// @param c Row-major output, element (i,j) at c[i*ldc + j].
/// @param accumulate When false C is overwritten; when true the product is
///   added onto C's existing values (k-order still ascending per element).
/// @param extra Optional pack caches and fused epilogue (see GemmExtra).
/// @throws advp::CheckError at kInt8 without an act_scale > 0.
void gemm(int m, int n, int k, const float* a, int lda, bool trans_a,
          const float* b, int ldb, bool trans_b, float* c, int ldc,
          bool accumulate = false, const GemmExtra& extra = {});

// ---- pack-once weight cache control ----------------------------------------

/// @brief Global generation stamp for learnable weights. GemmCacheSlot
/// entries are only valid while their recorded generation matches.
std::uint64_t weight_generation();

/// @brief Invalidates every pack-cache slot in the process (one relaxed
/// atomic increment). Called by optimizer steps, parameter loads, and
/// parameter copies — any in-place weight mutation.
void bump_weight_generation();

// ---- packed-weight export / adoption (.advp model format) ------------------
//
// The model serializer (nn/serialize) persists weight operands in the
// exact panel layout the warm cache uses, so a load is a pointer fixup
// instead of a repack/requantize. Three pieces: the build's panel
// geometry (recorded in the file and checked on load), a byte-exact
// export of the canonical cached layout, and slot adoption of an
// externally owned image.

/// @brief MR — row height of op(A) micro-panels in this build's packed
/// layout (8 with AVX-512, 6 otherwise). Recorded in `.advp` headers so a
/// loader can tell whether on-disk panels match the running build.
int gemm_panel_mr();

/// @brief NR — column width of op(B) micro-panels (32 with AVX-512, 16
/// otherwise). See gemm_panel_mr().
int gemm_panel_nr();

/// Identifies one weight operand in the gemm() role its layer runs it as
/// — the exact key the layer's GemmCacheSlot is validated against. Conv2d
/// forward weights are op(A) (d0 = Cout rows, d1 = Cin*K*K columns, not
/// transposed); Linear forward weights are op(B) read transposed
/// (d0 = in, d1 = out, ld = in).
struct PackedWeightSpec {
  bool is_a = true;           ///< operand role: op(A) when true, op(B) else
  const float* src = nullptr; ///< row-major fp32 source (the live weights)
  int d0 = 0;                 ///< logical op() dims: m,k for A; k,n for B
  int d1 = 0;
  int ld = 0;                 ///< leading dimension of the raw storage
  bool trans = false;         ///< operand is read transposed while packing
};

/// @brief Size in bytes of the canonical packed image for `spec` at tier
/// `p`: full-k row panels for op(A) (d0 rounded up to MR), per-Kc-block
/// column panels for fp32 op(B) (d1 rounded up to NR), full
/// quad-padded k for int8. Matches what a warm GemmCacheSlot holds.
std::size_t packed_weights_bytes(const PackedWeightSpec& spec,
                                 GemmPrecision p);

/// @brief Output-channel count of a weight operand (d0 for op(A), d1 for
/// op(B)) — the length of the int8 per-channel scales/comp arrays.
int packed_weight_channels(const PackedWeightSpec& spec);

/// @brief Writes the canonical packed panels for `spec` at tier `p` into
/// `dst` (packed_weights_bytes(spec, p) bytes, 64-byte aligned). The
/// bytes are identical to what gemm() would stage into a cache slot on a
/// miss, so an exported image can later be adopted verbatim. For kInt8,
/// `scales` and `comp` (packed_weight_channels entries each) receive the
/// per-channel quantization scales and +128-bias compensation terms and
/// must be non-null; both are ignored for fp32.
/// @throws advp::CheckError on a null/degenerate spec or missing int8
///   scale/comp destinations.
void export_packed_weights(const PackedWeightSpec& spec, GemmPrecision p,
                           void* dst, float* scales = nullptr,
                           std::int32_t* comp = nullptr);

/// @brief Points `slot` at an externally owned packed image (an mmap'd
/// `.advp` section) for `spec` at tier `p`, stamped with the current
/// weight generation — the next matching gemm() call is a cache hit with
/// zero pack/quantize work. The image must stay readable until the slot
/// is invalidated, repacked (any weight-generation bump), or destroyed;
/// after a mismatch the slot never touches the pointer again. For kInt8
/// the per-channel `scales`/`comp` arrays are copied into the slot.
/// @return false — leaving the slot unchanged — when `bytes` does not
///   match packed_weights_bytes(spec, p) or a required argument is null.
bool adopt_packed_weights(GemmCacheSlot* slot, const PackedWeightSpec& spec,
                          GemmPrecision p, const void* panels,
                          std::size_t bytes, const float* scales = nullptr,
                          const std::int32_t* comp = nullptr);

/// @brief Cache-blocked out-of-place transpose: dst[j*m + i] = src[i*n + j]
/// for an m x n row-major src.
void transpose_blocked(const float* src, int m, int n, float* dst);

/// @brief Name of the micro-kernel the next gemm() call will run:
/// "avx512", "avx2", or "portable". Reflects both the build configuration
/// and the force_portable() test hook.
const char* gemm_backend();

namespace gemm_detail {
/// @brief Test hook: forces the portable micro-kernel even in ADVP_SIMD
/// builds, so one binary can assert the two paths agree bit-for-bit.
void force_portable(bool on);
bool forcing_portable();
}  // namespace gemm_detail

}  // namespace advp
