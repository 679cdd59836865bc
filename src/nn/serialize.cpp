#include "nn/serialize.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>

#include "core/check.h"
#include "core/obs.h"
#include "nn/layers.h"
#include "nn/precision.h"
#include "tensor/gemm.h"

#if defined(__unix__) || defined(__APPLE__)
#define ADVP_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace advp::nn {

// The byte-level container layout below is specified in
// docs/model_format.md; struct field order IS the on-disk order.
static_assert(std::endian::native == std::endian::little,
              ".advp containers are little-endian; a big-endian build "
              "needs a byte-swapping reader");

namespace {

// ---- legacy raw-parameter stream -------------------------------------------

constexpr std::uint32_t kMagic = 0x41445650;  // legacy stream magic
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool read_pod(std::istream& is, T* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(T));
  return static_cast<bool>(is);
}

// ---- .advp on-disk structures ----------------------------------------------

// First four file bytes are the ASCII string "ADVP" ('A' at offset 0).
constexpr std::uint32_t kAdvpMagic = 0x50564441;
constexpr std::uint64_t kAlign = 64;  // payload alignment (and mmap SIMD)
constexpr std::uint32_t kFlagHasPacked = 1u << 0;

struct AdvpHeader {
  std::uint32_t magic = kAdvpMagic;
  std::uint32_t version = kAdvpVersion;
  std::uint32_t header_bytes = 64;
  std::uint32_t flags = 0;
  std::uint32_t param_count = 0;
  std::uint32_t section_count = 0;
  std::uint64_t content_hash = 0;
  std::uint32_t panel_mr = 0;
  std::uint32_t panel_nr = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t param_table_off = 0;
  std::uint64_t section_table_off = 0;
};
static_assert(sizeof(AdvpHeader) == 64 &&
              std::is_trivially_copyable_v<AdvpHeader>);

struct ParamEntry {
  std::uint64_t name_off = 0;  // NUL-terminated name in the string pool
  std::uint64_t data_off = 0;  // fp32 payload, kAlign-aligned
  std::uint64_t numel = 0;
  std::uint32_t rank = 0;  // 1..4
  std::int32_t shape[4] = {0, 0, 0, 0};
  std::uint32_t reserved = 0;
};
static_assert(sizeof(ParamEntry) == 48 &&
              std::is_trivially_copyable_v<ParamEntry>);

struct SectionEntry {
  std::uint32_t kind = 0;   // AdvpSection
  std::uint32_t tier = 0;   // GemmPrecision for per-tier kinds
  std::uint32_t layer = 0;  // packable-layer index, walk order
  std::uint32_t role = 0;   // 1 = weights run as op(A), 0 = op(B)
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::int32_t d0 = 0;
  std::int32_t d1 = 0;
  std::int32_t ld = 0;
  std::uint32_t trans = 0;
  std::uint32_t reserved[4] = {0, 0, 0, 0};
};
static_assert(sizeof(SectionEntry) == 64 &&
              std::is_trivially_copyable_v<SectionEntry>);

constexpr std::uint64_t align_up(std::uint64_t v) {
  return (v + (kAlign - 1)) & ~(kAlign - 1);
}

// ---- read-only file image (mmap with heap fallback) ------------------------

// A loaded `.advp` image. When packed panels are adopted the image must
// outlive every cache slot pointing into it, so load_advp parks the
// shared_ptr in a process-wide registry (see advp_release_mappings).
class Mapping {
 public:
  static std::shared_ptr<Mapping> open(const std::string& path,
                                       bool use_mmap) {
#ifdef ADVP_HAVE_MMAP
    if (use_mmap) {
      const int fd = ::open(path.c_str(), O_RDONLY);
      if (fd < 0) return nullptr;
      struct stat st {};
      if (::fstat(fd, &st) != 0) {
        ::close(fd);
        return nullptr;
      }
      const std::size_t size = static_cast<std::size_t>(st.st_size);
      void* p = size ? ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0)
                     : nullptr;
      ::close(fd);
      if (!size || p != MAP_FAILED) {
        auto m = std::make_shared<Mapping>();
        m->data_ = static_cast<const unsigned char*>(p);
        m->size_ = size;
        m->mmapped_ = true;
        return m;
      }
      // A file that cannot be mapped is read onto the heap below.
    }
#else
    (void)use_mmap;
#endif
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is.good()) return nullptr;
    const std::streamoff size = is.tellg();
    auto m = std::make_shared<Mapping>();
    m->heap_.resize(static_cast<std::size_t>(size));
    is.seekg(0);
    is.read(reinterpret_cast<char*>(m->heap_.data()),
            static_cast<std::streamsize>(m->heap_.size()));
    if (!is.good() && size != 0) return nullptr;
    m->data_ = m->heap_.data();
    m->size_ = m->heap_.size();
    return m;
  }

  Mapping() = default;
  ~Mapping() {
#ifdef ADVP_HAVE_MMAP
    if (mmapped_ && data_)
      ::munmap(const_cast<unsigned char*>(data_), size_);
#endif
  }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;

  const unsigned char* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mmapped_ = false;
  std::vector<unsigned char> heap_;
};

std::mutex g_map_mu;
std::vector<std::shared_ptr<Mapping>> g_retained;

void retain_mapping(std::shared_ptr<Mapping> m) {
  std::lock_guard<std::mutex> lock(g_map_mu);
  g_retained.push_back(std::move(m));
}

// ---- packable-layer walk ---------------------------------------------------

// One Conv2d/Linear whose forward weight operand the container stores in
// packed form. Walk order (Sequential children in order, depth-first over
// the roots) defines the `layer` index in section entries and the
// calibration array — identical to nn::collect_calibration's order.
struct Packable {
  Conv2d* conv = nullptr;
  Linear* linear = nullptr;

  PackedWeightSpec spec() const {
    return conv ? conv->forward_pack_spec() : linear->forward_pack_spec();
  }
  GemmCacheSlot& slot() const {
    return conv ? conv->forward_pack_slot() : linear->forward_pack_slot();
  }
  float range() const {
    return conv ? conv->calibration_range() : linear->calibration_range();
  }
  void set_range(float r) const {
    if (conv)
      conv->set_calibration_range(r);
    else
      linear->set_calibration_range(r);
  }
};

void collect_packable(Module& m, std::vector<Packable>& out) {
  if (auto* seq = dynamic_cast<Sequential*>(&m)) {
    for (std::size_t i = 0; i < seq->size(); ++i)
      collect_packable(seq->child(i), out);
    return;
  }
  if (auto* conv = dynamic_cast<Conv2d*>(&m)) {
    out.push_back({conv, nullptr});
    return;
  }
  if (auto* lin = dynamic_cast<Linear*>(&m)) out.push_back({nullptr, lin});
}

std::vector<Param*> collect_root_params(const std::vector<Module*>& roots) {
  std::vector<Param*> out;
  for (Module* r : roots) {
    ADVP_CHECK_MSG(r, "advp: null module root");
    const auto p = r->params();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

std::vector<Packable> collect_root_packable(
    const std::vector<Module*>& roots) {
  std::vector<Packable> out;
  for (Module* r : roots) {
    ADVP_CHECK_MSG(r, "advp: null module root");
    collect_packable(*r, out);
  }
  return out;
}

// ---- parsing ---------------------------------------------------------------

struct ParsedFile {
  std::shared_ptr<Mapping> map;
  AdvpHeader header;
  std::vector<ParamEntry> params;
  std::vector<SectionEntry> sections;
};

AdvpLoadResult fail(AdvpStatus status, std::string message) {
  AdvpLoadResult r;
  r.status = status;
  r.error = std::move(message);
  return r;
}

// FNV-1a (same constants as param_fingerprint) over the raw fp32 payloads
// in parameter-table order — so the file hash equals the in-memory
// fingerprint of the model it loads into.
std::uint64_t hash_payloads(const ParsedFile& pf) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const ParamEntry& e : pf.params) {
    const unsigned char* bytes = pf.map->data() + e.data_off;
    const std::size_t n =
        static_cast<std::size_t>(e.numel) * sizeof(float);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// Strict structural parse: every return path other than kOk happens before
// the caller touches a model. Bounds arithmetic is overflow-safe: counts
// and offsets are checked against file size before any multiply can wrap.
AdvpLoadResult parse_file(const std::string& path, bool use_mmap,
                          ParsedFile* out) {
  out->map = Mapping::open(path, use_mmap);
  if (!out->map) return fail(AdvpStatus::kAbsent, "cannot open " + path);
  const unsigned char* base = out->map->data();
  const std::uint64_t size = out->map->size();

  if (size < sizeof(AdvpHeader))
    return fail(AdvpStatus::kTruncated, "file smaller than the 64-byte header");
  AdvpHeader& h = out->header;
  std::memcpy(&h, base, sizeof(h));
  if (h.magic != kAdvpMagic)
    return fail(AdvpStatus::kBadMagic, "missing ADVP magic");
  if (h.version == 0 || h.version > kAdvpVersion)
    return fail(AdvpStatus::kBadVersion,
                "container version " + std::to_string(h.version) +
                    " (this library reads up to " +
                    std::to_string(kAdvpVersion) + ")");
  if (h.header_bytes != sizeof(AdvpHeader))
    return fail(AdvpStatus::kMalformed, "unexpected header size");
  if (h.file_bytes > size)
    return fail(AdvpStatus::kTruncated,
                "header claims " + std::to_string(h.file_bytes) +
                    " bytes, file has " + std::to_string(size));
  if (h.file_bytes < size)
    return fail(AdvpStatus::kMalformed, "trailing bytes after file end");

  // Tables. Counts are u32 and entries are fixed-size, so the products
  // cannot overflow u64.
  const std::uint64_t ptab_bytes =
      std::uint64_t{h.param_count} * sizeof(ParamEntry);
  const std::uint64_t stab_bytes =
      std::uint64_t{h.section_count} * sizeof(SectionEntry);
  if (h.param_table_off < h.header_bytes ||
      h.param_table_off + ptab_bytes > size ||
      h.section_table_off < h.header_bytes ||
      h.section_table_off + stab_bytes > size)
    return fail(AdvpStatus::kMalformed, "table outside file bounds");

  out->params.resize(h.param_count);
  if (ptab_bytes)
    std::memcpy(out->params.data(), base + h.param_table_off, ptab_bytes);
  out->sections.resize(h.section_count);
  if (stab_bytes)
    std::memcpy(out->sections.data(), base + h.section_table_off,
                stab_bytes);

  for (std::size_t i = 0; i < out->params.size(); ++i) {
    const ParamEntry& e = out->params[i];
    if (e.rank < 1 || e.rank > 4)
      return fail(AdvpStatus::kMalformed,
                  "parameter " + std::to_string(i) + ": bad rank");
    std::uint64_t numel = 1;
    for (std::uint32_t d = 0; d < e.rank; ++d) {
      if (e.shape[d] <= 0)
        return fail(AdvpStatus::kMalformed,
                    "parameter " + std::to_string(i) + ": bad shape");
      numel *= static_cast<std::uint64_t>(e.shape[d]);
    }
    if (numel != e.numel || e.numel > (std::uint64_t{1} << 40))
      return fail(AdvpStatus::kMalformed,
                  "parameter " + std::to_string(i) + ": numel mismatch");
    if (e.data_off % kAlign != 0 || e.data_off < h.header_bytes ||
        e.data_off + e.numel * sizeof(float) > size)
      return fail(AdvpStatus::kMalformed,
                  "parameter " + std::to_string(i) + ": payload out of "
                  "bounds or misaligned");
    if (e.name_off >= size ||
        !std::memchr(base + e.name_off, 0,
                     static_cast<std::size_t>(size - e.name_off)))
      return fail(AdvpStatus::kMalformed,
                  "parameter " + std::to_string(i) + ": unterminated name");
  }

  for (std::size_t i = 0; i < out->sections.size(); ++i) {
    const SectionEntry& e = out->sections[i];
    if (e.offset % kAlign != 0 || e.offset < h.header_bytes ||
        e.bytes > size || e.offset + e.bytes > size)
      return fail(AdvpStatus::kMalformed,
                  "section " + std::to_string(i) + ": out of bounds");
  }
  return {};
}

const SectionEntry* find_section(const ParsedFile& pf, AdvpSection kind,
                                 std::uint32_t tier = 0,
                                 std::uint32_t layer = 0) {
  for (const SectionEntry& e : pf.sections)
    if (e.kind == static_cast<std::uint32_t>(kind) && e.tier == tier &&
        e.layer == layer)
      return &e;
  return nullptr;
}

std::vector<std::pair<std::string, std::string>> parse_meta(
    const unsigned char* p, std::size_t n) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t i = 0;
  while (i < n) {
    const auto* ke = static_cast<const unsigned char*>(
        std::memchr(p + i, 0, n - i));
    if (!ke) break;
    std::string key(reinterpret_cast<const char*>(p + i),
                    static_cast<std::size_t>(ke - (p + i)));
    i = static_cast<std::size_t>(ke - p) + 1;
    if (i >= n) break;
    const auto* ve = static_cast<const unsigned char*>(
        std::memchr(p + i, 0, n - i));
    if (!ve) break;
    std::string value(reinterpret_cast<const char*>(p + i),
                      static_cast<std::size_t>(ve - (p + i)));
    i = static_cast<std::size_t>(ve - p) + 1;
    out.emplace_back(std::move(key), std::move(value));
  }
  return out;
}

void record_artifact(const std::string& path, std::uint32_t version,
                     std::uint64_t hash, bool adopted) {
  if (!obs::enabled()) return;
  obs::ModelArtifact a;
  a.path = path;
  a.format_version = version;
  a.content_hash = hash;
  a.packed_adopted = adopted;
  obs::record_model_artifact(std::move(a));
}

}  // namespace

void save_params(const std::vector<Param*>& params, std::ostream& os) {
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::uint32_t>(params.size()));
  for (Param* p : params) {
    write_pod(os, static_cast<std::uint32_t>(p->value.rank()));
    for (int d : p->value.shape()) write_pod(os, static_cast<std::int32_t>(d));
    os.write(reinterpret_cast<const char*>(p->value.data()),
             static_cast<std::streamsize>(p->value.numel() * sizeof(float)));
  }
}

void load_params(const std::vector<Param*>& params, std::istream& is) {
  std::uint32_t magic = 0, version = 0, count = 0;
  ADVP_CHECK_MSG(read_pod(is, &magic) && magic == kMagic,
                 "load_params: bad magic");
  ADVP_CHECK_MSG(read_pod(is, &version) && version == kVersion,
                 "load_params: bad version");
  ADVP_CHECK_MSG(read_pod(is, &count) && count == params.size(),
                 "load_params: parameter count mismatch");
  for (Param* p : params) {
    std::uint32_t rank = 0;
    ADVP_CHECK(read_pod(is, &rank) &&
               rank == static_cast<std::uint32_t>(p->value.rank()));
    for (int d : p->value.shape()) {
      std::int32_t got = 0;
      ADVP_CHECK_MSG(read_pod(is, &got) && got == d,
                     "load_params: shape mismatch for " << p->name);
    }
    is.read(reinterpret_cast<char*>(p->value.data()),
            static_cast<std::streamsize>(p->value.numel() * sizeof(float)));
    ADVP_CHECK_MSG(static_cast<bool>(is), "load_params: truncated stream");
  }
  // A well-formed stream ends exactly at the last payload byte. Trailing
  // bytes mean the data was written for a different (larger) model whose
  // leading parameters happen to shape-match — loading the prefix and
  // silently dropping the rest would be a short read reported as success.
  ADVP_CHECK_MSG(is.peek() == std::char_traits<char>::eof(),
                 "load_params: trailing bytes after the last parameter");
  // Values were overwritten in place behind the layers' backs.
  bump_weight_generation();
}

void save_params(Module& m, std::ostream& os) { save_params(m.params(), os); }
void load_params(Module& m, std::istream& is) { load_params(m.params(), is); }

void save_params_file(const std::vector<Param*>& params,
                      const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  ADVP_CHECK_MSG(os.good(), "save_params_file: cannot open " << path);
  save_params(params, os);
}

bool load_params_file(const std::vector<Param*>& params,
                      const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return false;
  try {
    load_params(params, is);
  } catch (const CheckError&) {
    return false;
  }
  record_artifact(path, /*version=*/0, param_fingerprint(params),
                  /*adopted=*/false);
  return true;
}

std::uint64_t param_fingerprint(const std::vector<Param*>& params) {
  std::uint64_t h = 1469598103934665603ULL;
  for (Param* p : params) {
    const auto* bytes =
        reinterpret_cast<const unsigned char*>(p->value.data());
    const std::size_t n = p->value.numel() * sizeof(float);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// ---- .advp container -------------------------------------------------------

const char* advp_status_name(AdvpStatus s) {
  switch (s) {
    case AdvpStatus::kOk:
      return "ok";
    case AdvpStatus::kAbsent:
      return "absent";
    case AdvpStatus::kBadMagic:
      return "bad_magic";
    case AdvpStatus::kBadVersion:
      return "bad_version";
    case AdvpStatus::kTruncated:
      return "truncated";
    case AdvpStatus::kMalformed:
      return "malformed";
    case AdvpStatus::kHashMismatch:
      return "hash_mismatch";
    case AdvpStatus::kModelMismatch:
      return "model_mismatch";
  }
  return "unknown";
}

std::uint64_t save_advp(const std::vector<Module*>& roots,
                        const std::string& path,
                        const AdvpSaveOptions& opts) {
  const std::vector<Param*> params = collect_root_params(roots);
  const std::vector<Packable> layers = collect_root_packable(roots);
  for (Param* p : params)
    ADVP_CHECK_MSG(p->value.rank() >= 1 && p->value.rank() <= 4,
                   "save_advp: unsupported rank for " << p->name);

  // String pool and meta blob.
  std::string names;
  std::vector<std::uint64_t> name_rel(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    name_rel[i] = names.size();
    names += params[i]->name;
    names += '\0';
  }
  std::string meta;
  for (const auto& [key, value] : opts.meta) {
    meta += key;
    meta += '\0';
    meta += value;
    meta += '\0';
  }

  // Section plan, in table order. For each packable layer with packed
  // output: fp32 panels, then int8 panels + scales + comp — the int8
  // triple adjacent by construction (the emitter relies on it). Tier 1 is
  // retired: older files carry its panels and readers skip them.
  std::vector<SectionEntry> sections;
  auto plan = [&](AdvpSection kind, std::uint32_t tier, std::uint32_t layer,
                  std::uint64_t bytes, const PackedWeightSpec* spec) {
    SectionEntry e;
    e.kind = static_cast<std::uint32_t>(kind);
    e.tier = tier;
    e.layer = layer;
    e.bytes = bytes;
    if (spec) {
      e.role = spec->is_a ? 1 : 0;
      e.d0 = spec->d0;
      e.d1 = spec->d1;
      e.ld = spec->ld;
      e.trans = spec->trans ? 1 : 0;
    }
    sections.push_back(e);
  };
  if (!meta.empty()) plan(AdvpSection::kMeta, 0, 0, meta.size(), nullptr);
  if (!layers.empty())
    plan(AdvpSection::kCalibration, 0, 0, layers.size() * sizeof(float),
         nullptr);
  if (opts.include_packed) {
    for (std::size_t l = 0; l < layers.size(); ++l) {
      const PackedWeightSpec spec = layers[l].spec();
      const std::uint32_t li = static_cast<std::uint32_t>(l);
      const std::uint64_t ch_bytes =
          static_cast<std::uint64_t>(packed_weight_channels(spec)) * 4;
      for (GemmPrecision tier : {GemmPrecision::kFp32, GemmPrecision::kInt8})
        plan(AdvpSection::kPackedPanels, static_cast<std::uint32_t>(tier), li,
             packed_weights_bytes(spec, tier), &spec);
      plan(AdvpSection::kQuantScales,
           static_cast<std::uint32_t>(GemmPrecision::kInt8), li, ch_bytes,
           &spec);
      plan(AdvpSection::kQuantComp,
           static_cast<std::uint32_t>(GemmPrecision::kInt8), li, ch_bytes,
           &spec);
    }
  }

  // Layout: header, tables, string pool, then kAlign-aligned payloads —
  // parameters first, sections after.
  AdvpHeader h;
  h.flags = opts.include_packed && !layers.empty() ? kFlagHasPacked : 0;
  h.param_count = static_cast<std::uint32_t>(params.size());
  h.section_count = static_cast<std::uint32_t>(sections.size());
  h.content_hash = param_fingerprint(params);
  h.panel_mr = static_cast<std::uint32_t>(gemm_panel_mr());
  h.panel_nr = static_cast<std::uint32_t>(gemm_panel_nr());

  std::uint64_t off = sizeof(AdvpHeader);
  h.param_table_off = off;
  off += params.size() * sizeof(ParamEntry);
  h.section_table_off = off;
  off += sections.size() * sizeof(SectionEntry);
  const std::uint64_t names_off = off;
  off += names.size();

  std::vector<ParamEntry> ptab(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& t = params[i]->value;
    ParamEntry& e = ptab[i];
    e.name_off = names_off + name_rel[i];
    e.numel = t.numel();
    e.rank = static_cast<std::uint32_t>(t.rank());
    for (int d = 0; d < t.rank(); ++d) e.shape[d] = t.dim(d);
    off = align_up(off);
    e.data_off = off;
    off += e.numel * sizeof(float);
  }
  for (SectionEntry& e : sections) {
    off = align_up(off);
    e.offset = off;
    off += e.bytes;
  }
  h.file_bytes = off;

  // Emit into one buffer (zero-initialized: alignment gaps stay zero).
  std::vector<unsigned char> buf(static_cast<std::size_t>(h.file_bytes), 0);
  std::memcpy(buf.data(), &h, sizeof(h));
  if (!ptab.empty())
    std::memcpy(buf.data() + h.param_table_off, ptab.data(),
                ptab.size() * sizeof(ParamEntry));
  if (!sections.empty())
    std::memcpy(buf.data() + h.section_table_off, sections.data(),
                sections.size() * sizeof(SectionEntry));
  if (!names.empty())
    std::memcpy(buf.data() + names_off, names.data(), names.size());
  for (std::size_t i = 0; i < params.size(); ++i)
    std::memcpy(buf.data() + ptab[i].data_off, params[i]->value.data(),
                static_cast<std::size_t>(ptab[i].numel) * sizeof(float));

  for (std::size_t s = 0; s < sections.size(); ++s) {
    const SectionEntry& e = sections[s];
    unsigned char* dst = buf.data() + e.offset;
    switch (static_cast<AdvpSection>(e.kind)) {
      case AdvpSection::kMeta:
        std::memcpy(dst, meta.data(), meta.size());
        break;
      case AdvpSection::kCalibration:
        for (std::size_t l = 0; l < layers.size(); ++l) {
          const float r = layers[l].range();
          std::memcpy(dst + l * sizeof(float), &r, sizeof(float));
        }
        break;
      case AdvpSection::kPackedPanels: {
        const PackedWeightSpec spec = layers[e.layer].spec();
        const auto tier = static_cast<GemmPrecision>(e.tier);
        if (tier == GemmPrecision::kInt8) {
          // scales/comp entries follow the int8 panel entry (see plan).
          unsigned char* sc = buf.data() + sections[s + 1].offset;
          unsigned char* cp = buf.data() + sections[s + 2].offset;
          export_packed_weights(spec, tier, dst,
                                reinterpret_cast<float*>(sc),
                                reinterpret_cast<std::int32_t*>(cp));
        } else {
          export_packed_weights(spec, tier, dst);
        }
        break;
      }
      case AdvpSection::kQuantScales:
      case AdvpSection::kQuantComp:
        break;  // filled alongside their int8 panel section
    }
  }

  // Atomic publish: readers either see the previous file or the complete
  // new one, never a partial write.
  namespace fs = std::filesystem;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    ADVP_CHECK_MSG(os.good(), "save_advp: cannot open " << tmp);
    os.write(reinterpret_cast<const char*>(buf.data()),
             static_cast<std::streamsize>(buf.size()));
    ADVP_CHECK_MSG(os.good(), "save_advp: short write to " << tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  ADVP_CHECK_MSG(!ec, "save_advp: cannot rename " << tmp << " -> " << path
                                                  << ": " << ec.message());
  record_artifact(path, kAdvpVersion, h.content_hash, /*adopted=*/false);
  return h.content_hash;
}

AdvpLoadResult load_advp(const std::vector<Module*>& roots,
                         const std::string& path,
                         const AdvpLoadOptions& opts) {
  ParsedFile pf;
  AdvpLoadResult r = parse_file(path, /*use_mmap=*/true, &pf);
  if (!r.ok()) return r;
  r.content_hash = pf.header.content_hash;
  const unsigned char* base = pf.map->data();

  // Model-shape validation — everything that could reject runs before the
  // first parameter byte is copied, so a failed load leaves the model
  // exactly as it was.
  const std::vector<Param*> params = collect_root_params(roots);
  const std::vector<Packable> layers = collect_root_packable(roots);
  if (pf.params.size() != params.size())
    return fail(AdvpStatus::kModelMismatch,
                "file has " + std::to_string(pf.params.size()) +
                    " parameters, model has " +
                    std::to_string(params.size()));
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& t = params[i]->value;
    const ParamEntry& e = pf.params[i];
    bool match = e.rank == static_cast<std::uint32_t>(t.rank()) &&
                 e.numel == t.numel();
    for (int d = 0; match && d < t.rank(); ++d)
      match = e.shape[d] == t.dim(d);
    if (!match)
      return fail(AdvpStatus::kModelMismatch,
                  "shape mismatch for parameter " + params[i]->name);
  }
  const SectionEntry* cal = find_section(pf, AdvpSection::kCalibration);
  if (cal && cal->bytes != layers.size() * sizeof(float))
    return fail(AdvpStatus::kModelMismatch,
                "calibration section covers a different layer count");

  if (hash_payloads(pf) != pf.header.content_hash)
    return fail(AdvpStatus::kHashMismatch,
                "parameter payloads do not match the header content hash");

  // Commit: raw fp32 parameters, then calibration ranges.
  for (std::size_t i = 0; i < params.size(); ++i)
    std::memcpy(params[i]->value.data(), base + pf.params[i].data_off,
                static_cast<std::size_t>(pf.params[i].numel) * sizeof(float));
  bump_weight_generation();
  if (cal)
    for (std::size_t l = 0; l < layers.size(); ++l) {
      float range = 0.f;
      std::memcpy(&range, base + cal->offset + l * sizeof(float),
                  sizeof(float));
      layers[l].set_range(range);
    }

  // Packed-panel adoption: only when the file carries panels, the build's
  // panel geometry matches the writer's, and the pack cache is live. A
  // geometry mismatch is not an error — the raw weights just packed above
  // serve the slow (lazy repack) path with bit-identical results.
  const bool geometry_ok =
      pf.header.panel_mr == static_cast<std::uint32_t>(gemm_panel_mr()) &&
      pf.header.panel_nr == static_cast<std::uint32_t>(gemm_panel_nr());
  const GemmPrecision tier =
      opts.adopt_tier >= 0 ? static_cast<GemmPrecision>(opts.adopt_tier)
                           : PrecisionScope::active();
  if (opts.adopt_packed && (pf.header.flags & kFlagHasPacked) &&
      geometry_ok && pack_cache_enabled() && !layers.empty() &&
      (tier == GemmPrecision::kFp32 || tier == GemmPrecision::kInt8)) {
    const auto tier_u = static_cast<std::uint32_t>(tier);
    // All-or-nothing: validate every layer's sections first.
    struct Plan {
      const SectionEntry* panels;
      const SectionEntry* scales;
      const SectionEntry* comp;
    };
    std::vector<Plan> plans(layers.size());
    bool complete = true;
    for (std::size_t l = 0; complete && l < layers.size(); ++l) {
      const PackedWeightSpec spec = layers[l].spec();
      const std::uint32_t li = static_cast<std::uint32_t>(l);
      Plan& p = plans[l];
      p.panels = find_section(pf, AdvpSection::kPackedPanels, tier_u, li);
      complete = p.panels && p.panels->d0 == spec.d0 &&
                 p.panels->d1 == spec.d1 && p.panels->ld == spec.ld &&
                 (p.panels->trans != 0) == spec.trans &&
                 (p.panels->role != 0) == spec.is_a &&
                 p.panels->bytes == packed_weights_bytes(spec, tier);
      if (complete && tier == GemmPrecision::kInt8) {
        const std::uint64_t ch_bytes =
            static_cast<std::uint64_t>(packed_weight_channels(spec)) * 4;
        p.scales = find_section(pf, AdvpSection::kQuantScales, tier_u, li);
        p.comp = find_section(pf, AdvpSection::kQuantComp, tier_u, li);
        complete = p.scales && p.comp && p.scales->bytes == ch_bytes &&
                   p.comp->bytes == ch_bytes;
      }
    }
    if (complete) {
      for (std::size_t l = 0; l < layers.size(); ++l) {
        const PackedWeightSpec spec = layers[l].spec();
        const Plan& p = plans[l];
        const bool ok = adopt_packed_weights(
            &layers[l].slot(), spec, tier, base + p.panels->offset,
            static_cast<std::size_t>(p.panels->bytes),
            p.scales ? reinterpret_cast<const float*>(base + p.scales->offset)
                     : nullptr,
            p.comp ? reinterpret_cast<const std::int32_t*>(base +
                                                           p.comp->offset)
                   : nullptr);
        ADVP_CHECK_MSG(ok, "load_advp: validated adoption failed");
      }
      r.packed_adopted = true;
      r.adopted_tier = tier;
      // Slots now point into the image: keep the mapping alive for the
      // rest of the process (or until advp_release_mappings()).
      retain_mapping(pf.map);
    }
  }
  record_artifact(path, pf.header.version, pf.header.content_hash,
                  r.packed_adopted);
  return r;
}

AdvpLoadResult read_advp_info(const std::string& path, AdvpInfo* info) {
  ADVP_CHECK_MSG(info, "read_advp_info: null info");
  ParsedFile pf;
  AdvpLoadResult r = parse_file(path, /*use_mmap=*/false, &pf);
  if (!r.ok()) return r;
  r.content_hash = pf.header.content_hash;
  const unsigned char* base = pf.map->data();

  info->version = pf.header.version;
  info->flags = pf.header.flags;
  info->panel_mr = pf.header.panel_mr;
  info->panel_nr = pf.header.panel_nr;
  info->content_hash = pf.header.content_hash;
  info->file_bytes = pf.header.file_bytes;
  info->params.clear();
  info->sections.clear();
  info->meta.clear();
  for (const ParamEntry& e : pf.params) {
    AdvpParamInfo p;
    p.name = reinterpret_cast<const char*>(base + e.name_off);
    for (std::uint32_t d = 0; d < e.rank; ++d)
      p.shape.push_back(e.shape[d]);
    p.numel = e.numel;
    p.data_offset = e.data_off;
    info->params.push_back(std::move(p));
  }
  for (const SectionEntry& e : pf.sections) {
    AdvpSectionInfo s;
    s.kind = e.kind;
    s.tier = e.tier;
    s.layer = e.layer;
    s.role = e.role;
    s.offset = e.offset;
    s.bytes = e.bytes;
    s.d0 = e.d0;
    s.d1 = e.d1;
    s.ld = e.ld;
    s.trans = e.trans != 0;
    info->sections.push_back(s);
  }
  if (const SectionEntry* meta = find_section(pf, AdvpSection::kMeta))
    info->meta = parse_meta(base + meta->offset,
                            static_cast<std::size_t>(meta->bytes));
  return r;
}

AdvpLoadResult verify_advp(const std::string& path) {
  ParsedFile pf;
  AdvpLoadResult r = parse_file(path, /*use_mmap=*/false, &pf);
  if (!r.ok()) return r;
  r.content_hash = pf.header.content_hash;
  if (hash_payloads(pf) != pf.header.content_hash)
    return fail(AdvpStatus::kHashMismatch,
                "parameter payloads do not match the header content hash");
  return r;
}

std::size_t advp_mapped_bytes() {
  std::lock_guard<std::mutex> lock(g_map_mu);
  std::size_t total = 0;
  for (const auto& m : g_retained) total += m->size();
  return total;
}

void advp_release_mappings() {
  {
    std::lock_guard<std::mutex> lock(g_map_mu);
    g_retained.clear();
  }
  // Any slot still keyed on a freed image now misses (generation bump) —
  // and a slot miss never dereferences the external pointer, so dropping
  // the pages is safe at any quiescent point.
  bump_weight_generation();
}

}  // namespace advp::nn
