// advp_model — command-line companion for `.advp` model containers.
//
//   advp_model inspect <file.advp>
//       Header, parameter table, section table, and meta echo.
//   advp_model verify <file.advp>
//       Structural parse + content-hash recomputation; exit 0 iff valid.
//   advp_model convert --model tiny_yolo|distnet <in.bin> <out.advp>
//       Upgrades a legacy raw-parameter cache file (default architecture
//       config) to a `.advp` container with pre-packed panels.
//   advp_model hexdump <file.advp>
//       Annotated byte-level dump of the header and tables (the
//       docs/model_format.md walkthrough is generated with this).
//   advp_model make-golden <out.advp>
//       Writes the deterministic golden fixture (seeded miniature
//       TinyYolo, calibrated) used by serialize_format_test; prints the
//       content hash.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/rng.h"
#include "models/zoo.h"
#include "nn/serialize.h"
#include "tensor/tensor.h"

namespace {

using advp::Rng;
using advp::Tensor;
namespace nn = advp::nn;
namespace models = advp::models;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  advp_model inspect <file.advp>\n"
      "  advp_model verify <file.advp>\n"
      "  advp_model convert --model tiny_yolo|distnet <in.bin> <out.advp>\n"
      "  advp_model hexdump <file.advp>\n"
      "  advp_model make-golden <out.advp>\n");
  return 2;
}

const char* section_kind_name(std::uint32_t kind) {
  switch (static_cast<nn::AdvpSection>(kind)) {
    case nn::AdvpSection::kPackedPanels:
      return "packed_panels";
    case nn::AdvpSection::kQuantScales:
      return "quant_scales";
    case nn::AdvpSection::kQuantComp:
      return "quant_comp";
    case nn::AdvpSection::kCalibration:
      return "calibration";
    case nn::AdvpSection::kMeta:
      return "meta";
  }
  return "unknown";
}

const char* tier_name(std::uint32_t tier) {
  switch (tier) {
    case 0:
      return "fp32";
    case 1:  // retired; files written before its removal still list it
      return "bf16";
    case 2:
      return "int8";
  }
  return "?";
}

int cmd_inspect(const std::string& path) {
  nn::AdvpInfo info;
  const nn::AdvpLoadResult r = nn::read_advp_info(path, &info);
  if (!r.ok()) {
    std::fprintf(stderr, "%s: %s: %s\n", path.c_str(),
                 nn::advp_status_name(r.status), r.error.c_str());
    return 1;
  }
  std::printf("%s\n", path.c_str());
  std::printf("  version       %u\n", info.version);
  std::printf("  flags         0x%x%s\n", info.flags,
              (info.flags & 1) ? " (has_packed)" : "");
  std::printf("  panel geometry MR=%u NR=%u\n", info.panel_mr, info.panel_nr);
  std::printf("  content hash  %016" PRIx64 "\n", info.content_hash);
  std::printf("  file bytes    %" PRIu64 "\n", info.file_bytes);
  std::printf("  parameters    %zu\n", info.params.size());
  for (const auto& p : info.params) {
    std::printf("    %-28s [", p.name.c_str());
    for (std::size_t d = 0; d < p.shape.size(); ++d)
      std::printf("%s%d", d ? "," : "", p.shape[d]);
    std::printf("] numel=%" PRIu64 " @0x%" PRIx64 "\n", p.numel,
                p.data_offset);
  }
  std::printf("  sections      %zu\n", info.sections.size());
  for (const auto& s : info.sections) {
    std::printf("    %-14s", section_kind_name(s.kind));
    if (s.kind == 1 || s.kind == 2 || s.kind == 3)
      std::printf(" tier=%s layer=%-2u role=%s d0=%d d1=%d ld=%d trans=%d",
                  tier_name(s.tier), s.layer, s.role ? "A" : "B", s.d0, s.d1,
                  s.ld, s.trans ? 1 : 0);
    std::printf(" bytes=%-8" PRIu64 " @0x%" PRIx64 "\n", s.bytes, s.offset);
  }
  if (!info.meta.empty()) {
    std::printf("  meta\n");
    for (const auto& [k, v] : info.meta)
      std::printf("    %s = %s\n", k.c_str(), v.c_str());
  }
  return 0;
}

int cmd_verify(const std::string& path) {
  const nn::AdvpLoadResult r = nn::verify_advp(path);
  if (!r.ok()) {
    std::fprintf(stderr, "%s: %s: %s\n", path.c_str(),
                 nn::advp_status_name(r.status), r.error.c_str());
    return 1;
  }
  std::printf("%s: ok (content hash %016" PRIx64 ")\n", path.c_str(),
              r.content_hash);
  return 0;
}

int cmd_convert(const std::string& model, const std::string& in,
                const std::string& out) {
  if (model == "tiny_yolo") {
    Rng rng(0);
    models::TinyYolo m(models::TinyYoloConfig{}, rng);
    if (!nn::load_params_file(m.params(), in)) {
      std::fprintf(stderr, "%s: not a valid legacy weight file for the "
                           "default tiny_yolo config\n",
                   in.c_str());
      return 1;
    }
    const std::uint64_t hash = models::save_detector_advp(m, out);
    std::printf("%s -> %s (hash %016" PRIx64 ")\n", in.c_str(), out.c_str(),
                hash);
    return 0;
  }
  if (model == "distnet") {
    Rng rng(0);
    models::DistNet m(models::DistNetConfig{}, rng);
    if (!nn::load_params_file(m.params(), in)) {
      std::fprintf(stderr, "%s: not a valid legacy weight file for the "
                           "default distnet config\n",
                   in.c_str());
      return 1;
    }
    const std::uint64_t hash = models::save_distnet_advp(m, out);
    std::printf("%s -> %s (hash %016" PRIx64 ")\n", in.c_str(), out.c_str(),
                hash);
    return 0;
  }
  std::fprintf(stderr, "unknown --model '%s' (tiny_yolo | distnet)\n",
               model.c_str());
  return 2;
}

void dump_row(const unsigned char* bytes, std::size_t off, std::size_t n,
              const char* note) {
  std::printf("%08zx  ", off);
  for (std::size_t i = 0; i < 16; ++i) {
    if (i < n)
      std::printf("%02x ", bytes[off + i]);
    else
      std::printf("   ");
    if (i == 7) std::printf(" ");
  }
  std::printf(" %s\n", note ? note : "");
}

int cmd_hexdump(const std::string& path) {
  nn::AdvpInfo info;
  const nn::AdvpLoadResult r = nn::read_advp_info(path, &info);
  if (!r.ok()) {
    std::fprintf(stderr, "%s: %s: %s\n", path.c_str(),
                 nn::advp_status_name(r.status), r.error.c_str());
    return 1;
  }
  std::ifstream is(path, std::ios::binary);
  std::vector<unsigned char> bytes((std::istreambuf_iterator<char>(is)),
                                   std::istreambuf_iterator<char>());

  std::printf("%s — %zu bytes\n", path.c_str(), bytes.size());
  std::printf("-- header (64 bytes) --\n");
  dump_row(bytes.data(), 0, 16,
           "magic \"ADVP\" | version | header_bytes | flags");
  dump_row(bytes.data(), 16, 16,
           "param_count | section_count | content_hash");
  dump_row(bytes.data(), 32, 16, "panel_mr | panel_nr | file_bytes");
  dump_row(bytes.data(), 48, 16, "param_table_off | section_table_off");

  std::printf("-- parameter table (%zu x 48 bytes) --\n", info.params.size());
  std::size_t off = 64;
  for (const auto& p : info.params) {
    char note[160];
    std::snprintf(note, sizeof(note), "%s: name_off | data_off | numel",
                  p.name.c_str());
    dump_row(bytes.data(), off, 16, note);
    dump_row(bytes.data(), off + 16, 16, "  rank | shape[4] ...");
    dump_row(bytes.data(), off + 32, 16, "  ... | reserved");
    off += 48;
  }

  std::printf("-- section table (%zu x 64 bytes) --\n", info.sections.size());
  for (const auto& s : info.sections) {
    char note[160];
    std::snprintf(note, sizeof(note),
                  "%s tier=%s layer=%u: kind|tier|layer|role",
                  section_kind_name(s.kind), tier_name(s.tier), s.layer);
    dump_row(bytes.data(), off, 16, note);
    dump_row(bytes.data(), off + 16, 16, "  offset | bytes");
    dump_row(bytes.data(), off + 32, 16, "  d0 | d1 | ld | trans");
    dump_row(bytes.data(), off + 48, 16, "  reserved[4]");
    off += 64;
  }

  if (!info.params.empty()) {
    const auto& p = info.params.front();
    std::printf("-- first 32 payload bytes of %s @0x%" PRIx64 " --\n",
                p.name.c_str(), p.data_offset);
    dump_row(bytes.data(), static_cast<std::size_t>(p.data_offset), 16,
             "fp32 little-endian");
    dump_row(bytes.data(), static_cast<std::size_t>(p.data_offset) + 16, 16,
             "");
  }
  return 0;
}

// The golden fixture: a miniature detector whose weights come entirely
// from the library's hand-rolled (platform-independent) Rng, so the file
// bytes and hash are reproducible on any machine. Keep in sync with
// serialize_format_test.cpp's golden_config().
int cmd_make_golden(const std::string& out) {
  models::TinyYoloConfig cfg;
  cfg.img_size = 16;
  cfg.grid = 2;
  cfg.c1 = 4;
  cfg.c2 = 8;
  cfg.c3 = 8;
  Rng rng(1234);
  models::TinyYolo m(cfg, rng);
  Rng data_rng(99);
  std::vector<Tensor> batches;
  for (int b = 0; b < 2; ++b)
    batches.push_back(Tensor::rand({1, 3, cfg.img_size, cfg.img_size},
                                   data_rng, 0.f, 1.f));
  m.calibrate(batches);
  const std::uint64_t hash = models::save_detector_advp(m, out);
  std::printf("%s (hash %016" PRIx64 ")\n", out.c_str(), hash);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  if (cmd == "inspect") return cmd_inspect(argv[2]);
  if (cmd == "verify") return cmd_verify(argv[2]);
  if (cmd == "hexdump") return cmd_hexdump(argv[2]);
  if (cmd == "make-golden") return cmd_make_golden(argv[2]);
  if (cmd == "convert") {
    if (argc != 6 || std::strcmp(argv[2], "--model") != 0) return usage();
    return cmd_convert(argv[3], argv[4], argv[5]);
  }
  return usage();
}
