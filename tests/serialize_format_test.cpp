// The `.advp` container format: round-trip bit-identity across precision
// tiers and worker counts, strict rejection of corrupt/truncated/foreign
// files (with the destination model left untouched), panel adoption and
// mapping lifetime, the zoo's `.advp`-first weight cache, serving tenants
// registered from a file, the committed golden fixture, and the legacy
// stream's truncation/trailing-bytes regression tests.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <vector>

#include "core/check.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "models/zoo.h"
#include "nn/precision.h"
#include "nn/serialize.h"
#include "serve/serve.h"
#include "tensor/gemm.h"

namespace fs = std::filesystem;

using advp::CheckError;
using advp::GemmPrecision;
using advp::Rng;
using advp::ScopedMaxWorkers;
using advp::Tensor;
namespace nn = advp::nn;
namespace models = advp::models;
namespace serve = advp::serve;

namespace {

// Small but multi-layer: 3 conv blocks + head, every tier exercised fast.
models::TinyYoloConfig small_config() {
  models::TinyYoloConfig cfg;
  cfg.img_size = 16;
  cfg.grid = 2;
  cfg.c1 = 4;
  cfg.c2 = 8;
  cfg.c3 = 8;
  return cfg;
}

// Must match tools/advp_model.cpp cmd_make_golden exactly.
models::TinyYolo golden_model() {
  Rng rng(1234);
  models::TinyYolo m(small_config(), rng);
  Rng data_rng(99);
  std::vector<Tensor> batches;
  for (int b = 0; b < 2; ++b)
    batches.push_back(Tensor::rand({1, 3, 16, 16}, data_rng, 0.f, 1.f));
  m.calibrate(batches);
  return m;
}

models::TinyYolo calibrated_model(std::uint64_t seed) {
  Rng rng(seed);
  models::TinyYolo m(small_config(), rng);
  Rng data_rng(seed + 1);
  std::vector<Tensor> batches;
  for (int b = 0; b < 2; ++b)
    batches.push_back(Tensor::rand({1, 3, 16, 16}, data_rng, 0.f, 1.f));
  m.calibrate(batches);
  return m;
}

Tensor test_frame(std::uint64_t seed = 7) {
  Rng rng(seed);
  return Tensor::rand({1, 3, 16, 16}, rng, 0.f, 1.f);
}

// Prefixed with the running test's name: ctest runs every test case in its
// own process, in parallel, so two cases must never share a file.
std::string temp_file(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "advp_serialize_format";
  fs::create_directories(dir);
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  return (dir / (std::string(test->test_suite_name()) + "." + test->name() +
                 "." + name))
      .string();
}

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::vector<unsigned char>((std::istreambuf_iterator<char>(is)),
                                    std::istreambuf_iterator<char>());
}

void write_file(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

Tensor eval_forward(models::TinyYolo& m, const Tensor& frame,
                    GemmPrecision tier) {
  nn::ThreadPrecisionScope scope(tier);
  nn::InferenceModeScope inference;
  return m.forward_raw(frame, /*train=*/false);
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const char* what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)))
      << what;
}

// ---- legacy stream regressions ---------------------------------------------

TEST(LegacySerialize, TruncationRejectedAtEveryDepth) {
  models::TinyYolo m = calibrated_model(3);
  const std::string path = temp_file("legacy_full.bin");
  nn::save_params_file(m.params(), path);
  const std::vector<unsigned char> full = read_file(path);
  ASSERT_GT(full.size(), 64u);

  for (const double frac : {0.1, 0.5, 0.9, 0.999}) {
    const auto cut = static_cast<std::size_t>(
        static_cast<double>(full.size()) * frac);
    const std::string trunc_path = temp_file("legacy_trunc.bin");
    write_file(trunc_path,
               std::vector<unsigned char>(full.begin(), full.begin() + cut));
    Rng rng(4);
    models::TinyYolo dst(small_config(), rng);
    EXPECT_FALSE(nn::load_params_file(dst.params(), trunc_path))
        << "truncated at " << cut << " of " << full.size();
  }
}

// Regression: a stream holding more data than the model consumes used to
// load "successfully" — a short read of someone else's checkpoint whose
// leading parameters happened to shape-match. Trailing bytes must fail.
TEST(LegacySerialize, TrailingBytesRejected) {
  models::TinyYolo m = calibrated_model(5);
  const std::string path = temp_file("legacy_trailing.bin");
  nn::save_params_file(m.params(), path);
  std::vector<unsigned char> bytes = read_file(path);
  bytes.push_back(0x5a);
  write_file(path, bytes);

  Rng rng(6);
  models::TinyYolo dst(small_config(), rng);
  EXPECT_FALSE(nn::load_params_file(dst.params(), path));

  // The stream API throws (the file API converts to false).
  std::stringstream ss;
  nn::save_params(m.backbone(), ss);
  ss << "x";
  models::TinyYolo dst2(small_config(), rng);
  EXPECT_THROW(nn::load_params(dst2.backbone(), ss), CheckError);
}

// ---- round trip ------------------------------------------------------------

TEST(AdvpFormat, RoundTripBitIdenticalAcrossTiersAndWorkers) {
  models::TinyYolo src = calibrated_model(11);
  const std::string path = temp_file("roundtrip.advp");
  const std::uint64_t hash = models::save_detector_advp(src, path);
  EXPECT_EQ(hash, nn::param_fingerprint(src.params()));

  Rng rng(12);
  models::TinyYolo dst(small_config(), rng);
  const auto r = models::load_detector_advp(dst, path);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.content_hash, hash);
  EXPECT_EQ(nn::param_fingerprint(dst.params()), hash);

  const Tensor frame = test_frame();
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ScopedMaxWorkers scope(workers);
    for (const GemmPrecision tier :
         {GemmPrecision::kFp32, GemmPrecision::kInt8}) {
      Tensor a = eval_forward(src, frame, tier);
      Tensor b = eval_forward(dst, frame, tier);
      expect_bitwise_equal(a, b, "loaded model diverges from source");
    }
  }
}

TEST(AdvpFormat, CalibrationRangesRoundTrip) {
  models::TinyYolo src = calibrated_model(13);
  const std::string path = temp_file("calib.advp");
  models::save_detector_advp(src, path);

  Rng rng(14);
  models::TinyYolo dst(small_config(), rng);
  ASSERT_TRUE(models::load_detector_advp(dst, path).ok());
  EXPECT_EQ(nn::collect_calibration(src.backbone()),
            nn::collect_calibration(dst.backbone()));
  EXPECT_EQ(nn::collect_calibration(src.head()),
            nn::collect_calibration(dst.head()));
  EXPECT_TRUE(nn::has_calibration(dst.backbone()));
}

TEST(AdvpFormat, CollectApplyCalibration) {
  models::TinyYolo a = calibrated_model(15);
  const std::vector<float> ranges = nn::collect_calibration(a.backbone());
  ASSERT_FALSE(ranges.empty());

  Rng rng(16);
  models::TinyYolo b(small_config(), rng);
  EXPECT_TRUE(nn::apply_calibration(b.backbone(), ranges));
  EXPECT_EQ(nn::collect_calibration(b.backbone()), ranges);
  // Wrong count: applies nothing.
  std::vector<float> short_ranges(ranges.begin(), ranges.end() - 1);
  EXPECT_FALSE(nn::apply_calibration(b.backbone(), short_ranges));
  EXPECT_EQ(nn::collect_calibration(b.backbone()), ranges);
}

TEST(AdvpFormat, UnpackedContainerLoads) {
  models::TinyYolo src = calibrated_model(17);
  const std::string path = temp_file("unpacked.advp");
  nn::AdvpSaveOptions opts;
  opts.include_packed = false;
  nn::save_advp({&src.backbone(), &src.head()}, path, opts);

  nn::AdvpInfo info;
  ASSERT_TRUE(nn::read_advp_info(path, &info).ok());
  EXPECT_EQ(info.flags & 1u, 0u);

  Rng rng(18);
  models::TinyYolo dst(small_config(), rng);
  const auto r = models::load_detector_advp(dst, path);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.packed_adopted);
  expect_bitwise_equal(eval_forward(src, test_frame(), GemmPrecision::kFp32),
                       eval_forward(dst, test_frame(), GemmPrecision::kFp32),
                       "unpacked load diverges");
}

// ---- strict rejection ------------------------------------------------------

class AdvpRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    src_ = std::make_unique<models::TinyYolo>(calibrated_model(21));
    path_ = temp_file("reject_base.advp");
    hash_ = models::save_detector_advp(*src_, path_);
    bytes_ = read_file(path_);
    ASSERT_GT(bytes_.size(), 128u);
  }

  // Writes a mutated copy and loads it into a fresh model; expects
  // `status` and an untouched destination.
  void expect_reject(const std::vector<unsigned char>& bytes,
                     nn::AdvpStatus status, const char* what) {
    const std::string path = temp_file("reject_variant.advp");
    write_file(path, bytes);
    Rng rng(22);
    models::TinyYolo dst(small_config(), rng);
    const std::uint64_t before = nn::param_fingerprint(dst.params());
    const auto r = models::load_detector_advp(dst, path);
    EXPECT_EQ(r.status, status)
        << what << ": got " << nn::advp_status_name(r.status) << " ("
        << r.error << ")";
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(nn::param_fingerprint(dst.params()), before)
        << what << ": failed load mutated the model";
  }

  std::unique_ptr<models::TinyYolo> src_;
  std::string path_;
  std::uint64_t hash_ = 0;
  std::vector<unsigned char> bytes_;
};

TEST_F(AdvpRejection, Absent) {
  Rng rng(23);
  models::TinyYolo dst(small_config(), rng);
  const auto r = models::load_detector_advp(dst, temp_file("missing.advp"));
  EXPECT_EQ(r.status, nn::AdvpStatus::kAbsent);
}

TEST_F(AdvpRejection, BadMagic) {
  auto b = bytes_;
  b[0] ^= 0xff;
  expect_reject(b, nn::AdvpStatus::kBadMagic, "flipped magic");
}

TEST_F(AdvpRejection, NewerVersion) {
  auto b = bytes_;
  const std::uint32_t v = 99;
  std::memcpy(b.data() + 4, &v, 4);
  expect_reject(b, nn::AdvpStatus::kBadVersion, "version 99");
}

TEST_F(AdvpRejection, TruncationRejectedAtEveryDepth) {
  for (const std::size_t cut :
       {std::size_t{10}, std::size_t{63}, bytes_.size() / 2,
        bytes_.size() - 1}) {
    expect_reject(
        std::vector<unsigned char>(bytes_.begin(), bytes_.begin() + cut),
        nn::AdvpStatus::kTruncated, "truncated container");
  }
}

TEST_F(AdvpRejection, TrailingBytes) {
  auto b = bytes_;
  b.push_back(0);
  expect_reject(b, nn::AdvpStatus::kMalformed, "trailing byte");
}

TEST_F(AdvpRejection, PayloadCorruptionFailsHash) {
  nn::AdvpInfo info;
  ASSERT_TRUE(nn::read_advp_info(path_, &info).ok());
  ASSERT_FALSE(info.params.empty());
  auto b = bytes_;
  b[static_cast<std::size_t>(info.params[0].data_offset)] ^= 0x01;
  expect_reject(b, nn::AdvpStatus::kHashMismatch, "flipped payload bit");

  // verify_advp sees the same corruption without needing a model.
  const std::string path = temp_file("reject_variant.advp");
  EXPECT_EQ(nn::verify_advp(path).status, nn::AdvpStatus::kHashMismatch);
  EXPECT_EQ(nn::verify_advp(path_).status, nn::AdvpStatus::kOk);
}

TEST_F(AdvpRejection, ModelShapeMismatch) {
  // A structurally different destination: parameter shapes cannot match.
  models::TinyYoloConfig other = small_config();
  other.c1 = 6;
  Rng rng(24);
  models::TinyYolo dst(other, rng);
  const std::uint64_t before = nn::param_fingerprint(dst.params());
  const auto r =
      nn::load_advp({&dst.backbone(), &dst.head()}, path_, {});
  EXPECT_EQ(r.status, nn::AdvpStatus::kModelMismatch);
  EXPECT_EQ(nn::param_fingerprint(dst.params()), before);
}

// ---- adoption & mapping lifetime -------------------------------------------

TEST(AdvpAdoption, AdoptedLoadRetainsMappingAndSurvivesRelease) {
  models::TinyYolo src = calibrated_model(31);
  const std::string path = temp_file("adopt.advp");
  models::save_detector_advp(src, path);

  Rng rng(32);
  models::TinyYolo dst(small_config(), rng);
  const std::size_t mapped_before = nn::advp_mapped_bytes();
  nn::AdvpLoadOptions opts;
  opts.adopt_tier = static_cast<int>(GemmPrecision::kFp32);
  const auto r = models::load_detector_advp(dst, path, opts);
  ASSERT_TRUE(r.ok()) << r.error;
  if (!advp::pack_cache_enabled()) {
    EXPECT_FALSE(r.packed_adopted);
    return;  // kill-switch leg: nothing to adopt into
  }
  ASSERT_TRUE(r.packed_adopted);
  EXPECT_EQ(r.adopted_tier, GemmPrecision::kFp32);
  EXPECT_GT(nn::advp_mapped_bytes(), mapped_before);

  const Tensor frame = test_frame();
  const Tensor adopted = eval_forward(dst, frame, GemmPrecision::kFp32);

  // Dropping the mappings forces lazy repack from the raw weights — the
  // results must not change.
  nn::advp_release_mappings();
  const Tensor repacked = eval_forward(dst, frame, GemmPrecision::kFp32);
  expect_bitwise_equal(adopted, repacked, "release_mappings changed results");
}

TEST(AdvpAdoption, ExplicitTierSelection) {
  models::TinyYolo src = calibrated_model(33);
  const std::string path = temp_file("adopt_tier.advp");
  models::save_detector_advp(src, path);
  if (!advp::pack_cache_enabled()) GTEST_SKIP() << "pack cache disabled";

  for (const GemmPrecision tier :
       {GemmPrecision::kFp32, GemmPrecision::kInt8}) {
    Rng rng(34);
    models::TinyYolo dst(small_config(), rng);
    nn::AdvpLoadOptions opts;
    opts.adopt_tier = static_cast<int>(tier);
    const auto r = models::load_detector_advp(dst, path, opts);
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_TRUE(r.packed_adopted);
    EXPECT_EQ(r.adopted_tier, tier);
    expect_bitwise_equal(eval_forward(src, test_frame(), tier),
                         eval_forward(dst, test_frame(), tier),
                         "adopted forward diverges from source");
  }
}

// ---- zoo cache -------------------------------------------------------------

TEST(AdvpZooCache, AdvpFirstWithLegacyFallbackAndUpgrade) {
  const fs::path dir =
      fs::temp_directory_path() / "advp_serialize_format_cache";
  fs::remove_all(dir);
  const std::string cache_dir = dir.string();

  models::TinyYolo m1 = calibrated_model(41);
  int trained = 0;
  EXPECT_FALSE(
      models::cached_detector(cache_dir, "det", m1, [&] { ++trained; }));
  EXPECT_EQ(trained, 1);
  EXPECT_TRUE(fs::exists(dir / "det.advp"));
  EXPECT_TRUE(fs::exists(dir / "det.bin"));
  const std::uint64_t hash = nn::param_fingerprint(m1.params());

  // .advp hit: weights AND calibration restored, no training.
  models::TinyYolo m2 = calibrated_model(42);
  EXPECT_TRUE(
      models::cached_detector(cache_dir, "det", m2, [&] { ++trained; }));
  EXPECT_EQ(trained, 1);
  EXPECT_EQ(nn::param_fingerprint(m2.params()), hash);
  EXPECT_EQ(nn::collect_calibration(m2.backbone()),
            nn::collect_calibration(m1.backbone()));

  // Legacy fallback: delete the .advp, hit the .bin, regenerate the .advp.
  fs::remove(dir / "det.advp");
  models::TinyYolo m3 = calibrated_model(43);
  EXPECT_TRUE(
      models::cached_detector(cache_dir, "det", m3, [&] { ++trained; }));
  EXPECT_EQ(trained, 1);
  EXPECT_EQ(nn::param_fingerprint(m3.params()), hash);
  EXPECT_TRUE(fs::exists(dir / "det.advp")) << "legacy hit did not upgrade";
}

// ---- construction from meta ------------------------------------------------

TEST(AdvpMeta, MakeDetectorFromFileAlone) {
  models::TinyYolo src = calibrated_model(51);
  const std::string path = temp_file("meta.advp");
  models::save_detector_advp(src, path);

  nn::AdvpLoadResult r;
  auto built = models::make_detector_from_advp(path, &r);
  ASSERT_TRUE(built) << r.error;
  EXPECT_EQ(built->config().img_size, 16);
  EXPECT_EQ(built->config().grid, 2);
  EXPECT_EQ(built->config().c1, 4);
  EXPECT_EQ(nn::param_fingerprint(built->params()),
            nn::param_fingerprint(src.params()));

  // The same file is not a distnet.
  nn::AdvpLoadResult wrong;
  EXPECT_EQ(models::make_distnet_from_advp(path, &wrong), nullptr);
  EXPECT_EQ(wrong.status, nn::AdvpStatus::kModelMismatch);
}

TEST(AdvpMeta, DistNetRoundTrip) {
  models::DistNetConfig cfg;
  cfg.width = 16;
  cfg.height = 8;
  cfg.c1 = 4;
  cfg.c2 = 4;
  cfg.c3 = 4;
  cfg.hidden = 8;
  Rng rng(52);
  models::DistNet src(cfg, rng);
  const std::string path = temp_file("distnet.advp");
  models::save_distnet_advp(src, path);

  nn::AdvpLoadResult r;
  auto built = models::make_distnet_from_advp(path, &r);
  ASSERT_TRUE(built) << r.error;
  EXPECT_EQ(built->config().width, 16);
  EXPECT_EQ(built->config().hidden, 8);
  EXPECT_EQ(nn::param_fingerprint(built->params()),
            nn::param_fingerprint(src.params()));
}

// ---- serving from .advp ----------------------------------------------------

TEST(AdvpServe, TenantFromFileMatchesDirectDetect) {
  models::TinyYolo src = calibrated_model(61);
  const std::string path = temp_file("serve.advp");
  models::save_detector_advp(src, path);

  serve::ModelRegistry registry;
  registry.add_detector_advp("file_fp32", path, GemmPrecision::kFp32);
  registry.add_detector_advp("file_int8", path, GemmPrecision::kInt8);
  serve::ServeConfig cfg;
  cfg.max_batch_size = 4;
  cfg.workers = 2;
  serve::BatchServer server(registry, cfg);

  std::vector<Tensor> frames;
  for (std::uint64_t s = 0; s < 6; ++s) frames.push_back(test_frame(70 + s));

  std::vector<std::future<std::vector<models::Detection>>> fp32_futs,
      int8_futs;
  for (const Tensor& f : frames) {
    fp32_futs.push_back(server.submit_detect("file_fp32", f));
    int8_futs.push_back(server.submit_detect("file_int8", f));
  }
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::vector<models::Detection> served_fp32 = fp32_futs[i].get();
    const std::vector<models::Detection> served_int8 = int8_futs[i].get();
    const auto direct_fp32 = [&] {
      nn::ThreadPrecisionScope scope(GemmPrecision::kFp32);
      return src.detect(frames[i]).at(0);
    }();
    const auto direct_int8 = [&] {
      nn::ThreadPrecisionScope scope(GemmPrecision::kInt8);
      return src.detect(frames[i]).at(0);
    }();
    ASSERT_EQ(served_fp32.size(), direct_fp32.size());
    for (std::size_t d = 0; d < served_fp32.size(); ++d) {
      EXPECT_EQ(served_fp32[d].score, direct_fp32[d].score);
      EXPECT_EQ(served_fp32[d].box.x, direct_fp32[d].box.x);
      EXPECT_EQ(served_fp32[d].box.y, direct_fp32[d].box.y);
      EXPECT_EQ(served_fp32[d].box.w, direct_fp32[d].box.w);
      EXPECT_EQ(served_fp32[d].box.h, direct_fp32[d].box.h);
    }
    ASSERT_EQ(served_int8.size(), direct_int8.size());
    for (std::size_t d = 0; d < served_int8.size(); ++d)
      EXPECT_EQ(served_int8[d].score, direct_int8[d].score);
  }
  server.shutdown();
}

// ---- golden fixture --------------------------------------------------------

int count_panel_sections(const nn::AdvpInfo& info, std::uint32_t tier) {
  int n = 0;
  for (const nn::AdvpSectionInfo& s : info.sections)
    if (s.kind == static_cast<std::uint32_t>(nn::AdvpSection::kPackedPanels) &&
        s.tier == tier)
      ++n;
  return n;
}

// The committed fixture was written by `advp_model make-golden`. Its
// parameter payloads come entirely from the library's hand-rolled Rng, so
// the content hash is a cross-platform constant. The file's *panel*
// sections carry the writer's MR x NR geometry — a build with different
// geometry parses the file and falls back to lazy packing, so this test
// deliberately does NOT assert adoption. The fixture predates the bf16
// tier's retirement: it still lists tier-1 panel sections, which readers
// skip, so it also pins that older files keep loading.
TEST(AdvpGolden, CommittedFixtureParsesVerifiesAndForwardsIdentically) {
  const std::string path = std::string(ADVP_GOLDEN_DIR) + "/tiny.advp";
  constexpr std::uint64_t kGoldenHash = 0x809880dc38aad48dULL;

  const auto v = nn::verify_advp(path);
  ASSERT_TRUE(v.ok()) << nn::advp_status_name(v.status) << ": " << v.error;
  EXPECT_EQ(v.content_hash, kGoldenHash);

  nn::AdvpInfo info;
  ASSERT_TRUE(nn::read_advp_info(path, &info).ok());
  EXPECT_EQ(info.version, 1u);
  EXPECT_EQ(info.params.size(), 20u);
  EXPECT_EQ(count_panel_sections(info, 1), 4);

  models::TinyYolo reference = golden_model();
  EXPECT_EQ(nn::param_fingerprint(reference.params()), kGoldenHash)
      << "the in-process golden recipe drifted from the committed fixture";

  nn::AdvpLoadResult r;
  auto loaded = models::make_detector_from_advp(path, &r);
  ASSERT_TRUE(loaded) << r.error;
  const Tensor frame = test_frame(80);
  for (const GemmPrecision tier :
       {GemmPrecision::kFp32, GemmPrecision::kInt8}) {
    expect_bitwise_equal(eval_forward(reference, frame, tier),
                         eval_forward(*loaded, frame, tier),
                         "golden fixture forward diverges");
  }
}

// The writer stores fp32 and int8 panels only (tier 1 is retired), and a
// load of its output still adopts either tier's panels.
TEST(AdvpGolden, ResavedGoldenModelHasNoTier1AndAdoptsBothTiers) {
  models::TinyYolo reference = golden_model();
  const std::string path = temp_file("resaved.advp");
  models::save_detector_advp(reference, path);

  nn::AdvpInfo info;
  ASSERT_TRUE(nn::read_advp_info(path, &info).ok());
  for (const nn::AdvpSectionInfo& s : info.sections)
    EXPECT_NE(s.tier, 1u) << "section kind " << s.kind << ", layer "
                          << s.layer;
  EXPECT_EQ(count_panel_sections(info, 0), 4);
  EXPECT_EQ(count_panel_sections(info, 2), 4);
  if (!advp::pack_cache_enabled()) GTEST_SKIP() << "pack cache disabled";

  const Tensor frame = test_frame(80);
  for (const GemmPrecision tier :
       {GemmPrecision::kFp32, GemmPrecision::kInt8}) {
    Rng rng(81);
    models::TinyYolo dst(small_config(), rng);
    nn::AdvpLoadOptions opts;
    opts.adopt_tier = static_cast<int>(tier);
    const auto r = models::load_detector_advp(dst, path, opts);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.packed_adopted);
    EXPECT_EQ(r.adopted_tier, tier);
    expect_bitwise_equal(eval_forward(reference, frame, tier),
                         eval_forward(dst, frame, tier),
                         "resaved golden forward diverges");
  }
}

}  // namespace
