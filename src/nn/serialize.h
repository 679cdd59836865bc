// Model serialization: the legacy raw-parameter stream and the versioned
// `.advp` binary model container.
//
// Legacy stream (save_params/load_params): magic + version + a flat list
// of (rank, shape, fp32 payload) records, in parameter-list order. Cheap
// and append-free, but a load leaves every GEMM pack cache cold — the
// first forward re-packs (and re-quantizes) every weight operand.
//
// `.advp` container (save_advp/load_advp): a single-file model artifact
// holding the raw fp32 parameters, the activation calibration ranges, and
// the weight operands of every Conv2d/Linear **pre-packed in the GEMM
// panel layout** for both inference tiers (fp32, and calibrated int8 with
// per-channel scales and compensation terms). Files written before the
// bf16 tier was retired also carry tier-1 panels; readers skip them.
// Loading is an mmap (or one read) plus pointer fixup into the layers'
// GemmCacheSlots: the first forward performs zero weight pack/quantize
// work, and the mapped pages are read-only and shared across serving
// processes. The byte-level layout is specified in docs/model_format.md;
// parsing is strict (magic, version, section bounds, content hash) with
// clean error returns on truncation or corruption — a failed load never
// leaves a half-written model behind, because every check runs before the
// first parameter byte is copied.
//
// Packed panels are geometry-dependent (the micro-kernel's MR x NR tile
// is a build property). The file records the writer's geometry; a loader
// built with a different geometry falls back to the raw fp32 payloads and
// lazy repacking — results stay bit-identical either way, only warm-up
// cost differs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "nn/module.h"
#include "tensor/gemm.h"

namespace advp::nn {

/// Writes parameters (in list order) to a stream.
void save_params(const std::vector<Param*>& params, std::ostream& os);
/// Reads parameters back; shapes must match exactly, and the stream must
/// end at the last payload byte — trailing bytes mean the data was
/// written for a different model whose leading parameters happen to
/// shape-match, and are rejected like any other corruption.
void load_params(const std::vector<Param*>& params, std::istream& is);

void save_params(Module& m, std::ostream& os);
void load_params(Module& m, std::istream& is);

/// Convenience file wrappers. load returns false if the file is absent,
/// malformed, truncated, or carries trailing bytes (so callers can fall
/// back to training).
void save_params_file(const std::vector<Param*>& params,
                      const std::string& path);
bool load_params_file(const std::vector<Param*>& params,
                      const std::string& path);

/// FNV-1a hash over parameter data — cheap fingerprint for tests and cache
/// validation. This is also the `.advp` content-hash algorithm: a file's
/// header hash equals param_fingerprint of the loaded model.
std::uint64_t param_fingerprint(const std::vector<Param*>& params);

// ---- .advp container -------------------------------------------------------

/// Container version this library writes and the highest it can read.
inline constexpr std::uint32_t kAdvpVersion = 1;

/// Section kinds of the `.advp` layer table (docs/model_format.md §5).
/// Readers must skip sections with kinds they do not recognize.
enum class AdvpSection : std::uint32_t {
  kPackedPanels = 1,  ///< packed GEMM panels of one layer at one tier
  kQuantScales = 2,   ///< int8 per-output-channel weight scales (f32)
  kQuantComp = 3,     ///< int8 per-channel +128-bias compensation (i32)
  kCalibration = 4,   ///< activation ranges, one f32 per packable layer
  kMeta = 5,          ///< key\0value\0 string blob (model config echo)
};

/// Why a `.advp` load or parse failed (kOk on success).
enum class AdvpStatus : int {
  kOk = 0,
  kAbsent,         ///< file does not exist / cannot be opened
  kBadMagic,       ///< first bytes are not "ADVP"
  kBadVersion,     ///< written by a newer library (version > kAdvpVersion)
  kTruncated,      ///< file shorter than its header claims
  kMalformed,      ///< structural violation: bounds, alignment, trailing
                   ///< bytes, inconsistent table entries
  kHashMismatch,   ///< payload bytes do not match the header content hash
  kModelMismatch,  ///< parameter count/shapes or calibration layer count
                   ///< do not match the destination model
};

/// @brief Stable name of a status value ("ok", "bad_magic", ...).
const char* advp_status_name(AdvpStatus s);

/// Options for save_advp.
struct AdvpSaveOptions {
  /// Write pre-packed panel sections for both tiers. Off produces a
  /// raw-parameters-plus-calibration file (smaller, always portable, but
  /// loads cold).
  bool include_packed = true;
  /// Key/value strings stored in the meta section — the model zoo echoes
  /// the architecture config here so make_*_from_advp can rebuild the
  /// model without out-of-band information.
  std::vector<std::pair<std::string, std::string>> meta;
};

/// Options for load_advp. The load itself always maps the file (reading it
/// onto the heap where mapping fails) and verifies the content hash over
/// the raw parameter payloads before anything is copied into the model.
struct AdvpLoadOptions {
  /// Adopt the file's pre-packed panels into the layers' cache slots
  /// (when present, geometry-compatible, and the pack cache is enabled).
  bool adopt_packed = true;
  /// Tier whose panels to adopt: a GemmPrecision cast to int (0 fp32,
  /// 2 int8; any other id adopts nothing), or negative (default) to
  /// resolve the ambient tier (PrecisionScope::active()) at load time.
  int adopt_tier = -1;
};

/// Outcome of load_advp / verify_advp / read_advp_info.
struct AdvpLoadResult {
  AdvpStatus status = AdvpStatus::kOk;
  std::string error;  ///< human-readable detail, "" on success
  std::uint64_t content_hash = 0;  ///< header hash (valid once parsed)
  /// True when the file's packed panels now back the model's cache slots
  /// (zero pack/quantize work until the weights are mutated).
  bool packed_adopted = false;
  /// Tier whose panels were adopted; meaningful when packed_adopted.
  GemmPrecision adopted_tier = GemmPrecision::kFp32;

  bool ok() const { return status == AdvpStatus::kOk; }
};

/// One parameter record from a `.advp` layer table.
struct AdvpParamInfo {
  std::string name;
  std::vector<int> shape;
  std::uint64_t numel = 0;
  std::uint64_t data_offset = 0;
};

/// One section-table entry (geometry fields are zero for non-panel kinds).
struct AdvpSectionInfo {
  std::uint32_t kind = 0;   ///< AdvpSection value (may be unknown — skip)
  std::uint32_t tier = 0;   ///< GemmPrecision value for per-tier kinds
  std::uint32_t layer = 0;  ///< packable-layer index (walk order)
  std::uint32_t role = 0;   ///< 1 = weights run as op(A), 0 = op(B)
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  int d0 = 0, d1 = 0, ld = 0;
  bool trans = false;
};

/// Everything read_advp_info parses out of a file without needing a model.
struct AdvpInfo {
  std::uint32_t version = 0;
  std::uint32_t flags = 0;
  std::uint32_t panel_mr = 0, panel_nr = 0;
  std::uint64_t content_hash = 0;
  std::uint64_t file_bytes = 0;
  std::vector<AdvpParamInfo> params;
  std::vector<AdvpSectionInfo> sections;
  std::vector<std::pair<std::string, std::string>> meta;
};

/// @brief Serializes the modules' parameters, calibration ranges, and
/// (optionally) pre-packed weight panels for all tiers into `path` as a
/// `.advp` container. Written atomically (temp file + rename), so readers
/// never observe a half-written artifact.
/// @param roots Module roots in the model's canonical order (e.g.
///   {&backbone, &head}); parameters and packable layers are walked in
///   this order and must match the roots handed to load_advp.
/// @return The content hash written to the header (equals
///   param_fingerprint of the parameters).
/// @throws advp::CheckError when the file cannot be created or renamed.
std::uint64_t save_advp(const std::vector<Module*>& roots,
                        const std::string& path,
                        const AdvpSaveOptions& opts = {});

/// @brief Loads a `.advp` container into the model rooted at `roots`:
/// validates the header, tables, bounds, and content hash; copies the
/// fp32 parameters; restores calibration ranges; and (by default) adopts
/// the file's packed panels into the layers' cache slots so the first
/// forward does zero weight pack/quantize work. All validation runs
/// before the first parameter byte is copied — on any non-kOk status the
/// model is untouched. When panels are adopted the file mapping is
/// retained process-wide (see advp_release_mappings); the mapped pages
/// are read-only and shared across processes loading the same file.
AdvpLoadResult load_advp(const std::vector<Module*>& roots,
                         const std::string& path,
                         const AdvpLoadOptions& opts = {});

/// @brief Parses header, tables, and meta without a destination model
/// (the `advp_model inspect` backend). On success fills `*info`.
AdvpLoadResult read_advp_info(const std::string& path, AdvpInfo* info);

/// @brief Full integrity check without a model: structural parse plus a
/// content-hash recomputation over the parameter payloads.
AdvpLoadResult verify_advp(const std::string& path);

/// @brief Total bytes of `.advp` file mappings currently retained because
/// a load adopted their packed panels.
std::size_t advp_mapped_bytes();

/// @brief Drops every retained mapping and bumps the weight generation so
/// no cache slot keeps serving freed pages. Safe at any quiescent point
/// (no forwards in flight); subsequent forwards repack lazily from the
/// raw weights.
void advp_release_mappings();

}  // namespace advp::nn
