// Corruption fuzzing: every persisted artifact of a saved mono and a
// saved sharded store is bit-flipped, truncated, and deleted, and
// EntropyEngine::Open must fail with a typed error (kCorruption or
// kIOError) — never crash, never return a half-valid store. Plus
// backward compatibility: v4-era directories rewritten to the legacy
// (pre-checksum) formats keep loading, unverified but warned.

#include <algorithm>
#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "engine/compaction.h"
#include "engine/engine.h"
#include "engine/ingest.h"
#include "engine/sharded_store.h"
#include "storage/zone_map.h"

namespace entropydb {
namespace {

namespace fs = std::filesystem;

std::shared_ptr<Table> TwoPairTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Code>> rows(n, std::vector<Code>(5));
  for (auto& row : rows) {
    row[0] = static_cast<Code>(rng.Uniform(6));
    row[1] = rng.NextBernoulli(0.85) ? row[0]
                                     : static_cast<Code>(rng.Uniform(6));
    row[2] = static_cast<Code>(rng.Uniform(5));
    row[3] = rng.NextBernoulli(0.85) ? row[2]
                                     : static_cast<Code>(rng.Uniform(5));
    row[4] = static_cast<Code>(rng.Uniform(4));
  }
  return testutil::MakeTable({6, 6, 5, 5, 4}, rows);
}

StoreOptions SmallStoreOptions() {
  StoreOptions opts;
  opts.num_summaries = 2;
  opts.total_budget = 40;
  opts.summary.solver.max_iterations = 120;
  opts.num_stratified_samples = 1;
  opts.uniform_sample = true;
  opts.sample_fraction = 0.05;
  return opts;
}

/// Builds and saves the two pristine fixtures ONCE; every fuzz iteration
/// clones a fixture, mutates one file, and opens the clone.
class CorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    root_ = new std::string(
        (fs::temp_directory_path() / "entropydb_corruption_test").string());
    fs::remove_all(*root_);
    fs::create_directories(*root_);

    auto table = TwoPairTable(1200, 163);
    auto mono = SourceStore::Build(*table, SmallStoreOptions());
    ASSERT_TRUE(mono.ok()) << mono.status().ToString();
    ASSERT_TRUE((*mono)->Save(MonoDir()).ok());

    ShardedOptions sopts;
    sopts.num_shards = 2;
    sopts.store = SmallStoreOptions();
    auto sharded = ShardedStore::Build(*table, sopts);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ASSERT_TRUE((*sharded)->Save(ShardedDir()).ok());

    // The ingest-grown fixture: two sealed batches, so the walk covers
    // the journal and the shard_b* dirs ingest publishes.
    fs::copy(ShardedDir(), AppendedDir(), fs::copy_options::recursive);
    for (uint64_t b = 0; b < 2; ++b) {
      Rng rng(211 + b);
      std::string csv = "A0,A1,A2,A3,A4\n";
      for (size_t i = 0; i < 120; ++i) {
        csv += std::to_string(rng.Uniform(6)) + "," +
               std::to_string(rng.Uniform(6)) + "," +
               std::to_string(rng.Uniform(5)) + "," +
               std::to_string(rng.Uniform(5)) + "," +
               std::to_string(rng.Uniform(4)) + "\n";
      }
      auto report = AppendBatch(AppendedDir(), csv, SmallStoreOptions());
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    }

    // The compacted fixture: the batch shards above folded into a
    // shard_c* replacement, so the walk covers compaction's artifacts.
    fs::copy(AppendedDir(), CompactedDir(), fs::copy_options::recursive);
    CompactionOptions copts;
    copts.store = SmallStoreOptions();
    copts.max_batch_shards = 1;
    auto compacted = RunCompaction(CompactedDir(), copts);
    ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
    ASSERT_TRUE(compacted->ran);
  }

  static void TearDownTestSuite() {
    fs::remove_all(*root_);
    delete root_;
    root_ = nullptr;
  }

  static std::string MonoDir() { return *root_ + "/mono"; }
  static std::string ShardedDir() { return *root_ + "/sharded"; }
  static std::string AppendedDir() { return *root_ + "/appended"; }
  static std::string CompactedDir() { return *root_ + "/compacted"; }
  std::string ScratchDir() const { return *root_ + "/scratch"; }

  /// All regular files under `dir`, as paths relative to it.
  static std::vector<std::string> FilesUnder(const std::string& dir) {
    std::vector<std::string> out;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (e.is_regular_file()) {
        out.push_back(fs::relative(e.path(), dir).string());
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Clones `src` into the scratch dir and returns the clone's path.
  std::string Clone(const std::string& src) const {
    fs::remove_all(ScratchDir());
    fs::copy(src, ScratchDir(), fs::copy_options::recursive);
    return ScratchDir();
  }

  /// Open must fail CLEANLY on a mutated store: a typed corruption or I/O
  /// error, no crash, no store object.
  static void ExpectOpenFailsCleanly(const std::string& dir,
                                     const std::string& what) {
    auto opened = EntropyEngine::Open(dir);
    ASSERT_FALSE(opened.ok()) << what << ": mutated store opened OK";
    const StatusCode code = opened.status().code();
    EXPECT_TRUE(code == StatusCode::kCorruption ||
                code == StatusCode::kIOError)
        << what << ": unexpected status " << opened.status().ToString();
  }

  /// Runs the full mutation battery against every file of a saved store.
  void FuzzEveryFile(const std::string& pristine) {
    for (const std::string& rel : FilesUnder(pristine)) {
      // The ingest journal is the ONE file Open never reads (sealing and
      // recovery own it), so no journal damage may fail an open — torn
      // or lost records surface on the next ingest call, not at load.
      const bool is_wal = fs::path(rel).filename() == kIngestWalName;
      const uint64_t size = fs::file_size(fs::path(pristine) / rel);
      ASSERT_GT(size, 0u) << rel;
      // Bit flips: spread through the payload plus the footer region
      // (tag, hex digits, trailing newline).
      std::vector<uint64_t> offsets = {0,        size / 3, size / 2,
                                       size - 16, size - 8, size - 1};
      for (uint64_t off : offsets) {
        if (off >= size) continue;
        const std::string dir = Clone(pristine);
        const std::string path = (fs::path(dir) / rel).string();
        std::string raw;
        ASSERT_TRUE(Env::Default()->ReadFile(path, &raw).ok());
        raw[off] ^= 0x04;
        ASSERT_TRUE(Env::Default()->WriteFile(path, raw).ok());
        if (is_wal) {
          EXPECT_TRUE(EntropyEngine::Open(dir).ok())
              << rel << " flip@" << off << " failed the open";
        } else {
          ExpectOpenFailsCleanly(dir, rel + " flip@" + std::to_string(off));
        }
      }
      // Truncations: empty, half, and one byte short.
      for (uint64_t keep : {uint64_t{0}, size / 2, size - 1}) {
        const std::string dir = Clone(pristine);
        fs::resize_file(fs::path(dir) / rel, keep);
        if (is_wal) {
          EXPECT_TRUE(EntropyEngine::Open(dir).ok())
              << rel << " trunc@" << keep << " failed the open";
        } else {
          ExpectOpenFailsCleanly(dir, rel + " trunc@" + std::to_string(keep));
        }
      }
      // Deletion. A missing zone map is the ONE tolerated mutation: the
      // map is skip-ahead metadata, so losing the file degrades that
      // shard to full fan-out (with a warning) instead of failing the
      // open — deleting it is a legal manual repair. A PRESENT-but-wrong
      // zone map (the flips and truncations above) must still fail typed:
      // it could prune wrongly, which is a silently wrong answer.
      {
        const std::string dir = Clone(pristine);
        fs::remove(fs::path(dir) / rel);
        if (is_wal || fs::path(rel).filename() == kZoneMapFileName) {
          auto opened = EntropyEngine::Open(dir);
          EXPECT_TRUE(opened.ok())
              << rel << " deleted: tolerated-damage open failed: "
              << opened.status().ToString();
        } else {
          ExpectOpenFailsCleanly(dir, rel + " deleted");
        }
      }
    }
  }

  static std::string* root_;
};

std::string* CorruptionTest::root_ = nullptr;

TEST_F(CorruptionTest, MonoStoreSurvivesMutationFuzz) {
  // Sanity: the pristine fixture opens.
  ASSERT_TRUE(EntropyEngine::Open(MonoDir()).ok());
  FuzzEveryFile(MonoDir());
}

TEST_F(CorruptionTest, ShardedStoreSurvivesMutationFuzz) {
  ASSERT_TRUE(EntropyEngine::Open(ShardedDir()).ok());
  FuzzEveryFile(ShardedDir());
}

TEST_F(CorruptionTest, AppendedStoreSurvivesMutationFuzz) {
  // Ingest-grown stores add artifacts the bulk-save path never writes:
  // the journal and the sealed shard_b* dirs. All of them get the same
  // battery (the journal with inverted expectations — see FuzzEveryFile).
  auto pristine = EntropyEngine::Open(AppendedDir());
  ASSERT_TRUE(pristine.ok());
  EXPECT_EQ((*pristine)->num_shards(), 4u);
  FuzzEveryFile(AppendedDir());
}

TEST_F(CorruptionTest, CompactedStoreSurvivesMutationFuzz) {
  auto pristine = EntropyEngine::Open(CompactedDir());
  ASSERT_TRUE(pristine.ok());
  EXPECT_EQ((*pristine)->sharded()->compaction_gen(), 1u);
  FuzzEveryFile(CompactedDir());
}

TEST_F(CorruptionTest, DeletedZoneMapDegradesToFullFanOutWithWarning) {
  auto fresh = EntropyEngine::Open(ShardedDir());
  ASSERT_TRUE(fresh.ok());

  const std::string dir = Clone(ShardedDir());
  fs::remove(fs::path(dir) / "shard_0" / kZoneMapFileName);

  ::testing::internal::CaptureStderr();
  auto degraded = EntropyEngine::Open(dir);
  const std::string warnings = ::testing::internal::GetCapturedStderr();
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_NE(warnings.find("zone map"), std::string::npos) << warnings;
  EXPECT_NE(warnings.find("full fan-out"), std::string::npos) << warnings;

  // Shard 0 lost its map (never pruned); shard 1 kept its own.
  EXPECT_EQ((*degraded)->sharded()->zone_map(0), nullptr);
  EXPECT_NE((*degraded)->sharded()->zone_map(1), nullptr);

  // Degraded answers are the pristine answers — pruning never changes an
  // estimate, so losing the ability to prune cannot either.
  CountingQuery q(5);
  q.Where(0, AttrPredicate::Point(2)).Where(4, AttrPredicate::Point(1));
  auto a = testutil::CountOf(**fresh, q);
  auto b = testutil::CountOf(**degraded, q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->expectation, b->expectation);
  EXPECT_EQ(a->variance, b->variance);
}

TEST_F(CorruptionTest, VerificationCanBeDisabled) {
  // Flip one payload byte of the MANIFEST (well before the footer). With
  // verification on that is a checksum mismatch; with verify_checksums
  // off the footer is stripped but NOT checked, so the store either opens
  // on the mutated bytes or fails in the parser — never with a checksum
  // mismatch.
  const std::string dir = Clone(MonoDir());
  const std::string manifest = dir + "/MANIFEST";
  std::string raw;
  ASSERT_TRUE(Env::Default()->ReadFile(manifest, &raw).ok());
  raw[raw.size() - 20] ^= 0x04;
  ASSERT_TRUE(Env::Default()->WriteFile(manifest, raw).ok());

  auto verified = EntropyEngine::Open(dir);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kCorruption);
  EXPECT_NE(verified.status().ToString().find("checksum mismatch"),
            std::string::npos)
      << verified.status().ToString();

  SummaryOptions unverified;
  unverified.verify_checksums = false;
  auto opened = EntropyEngine::Open(dir, unverified);
  if (!opened.ok()) {
    EXPECT_EQ(opened.status().ToString().find("checksum mismatch"),
              std::string::npos)
        << "with verification off the failure must come from the parser, "
           "got: "
        << opened.status().ToString();
  }
}

// ---------------------------------------------------------------------
// Pre-checksum formats are gone: artifacts stripped back to them (no
// footer, legacy header) must fail typed, never load unverified.

/// Drops the 16-byte `crc32c <hex>\n` footer if present.
std::string StripFooter(std::string raw) {
  if (raw.size() >= 16 && raw.compare(raw.size() - 16, 7, "crc32c ") == 0) {
    raw.resize(raw.size() - 16);
  }
  return raw;
}

/// Replaces the first line of `raw` with `header`.
std::string ReplaceHeader(const std::string& raw, const std::string& header) {
  const size_t eol = raw.find('\n');
  return header + "\n" + (eol == std::string::npos ? "" : raw.substr(eol + 1));
}

void RewriteFile(const std::string& path,
                 const std::string& legacy_header) {
  std::string raw;
  ASSERT_TRUE(Env::Default()->ReadFile(path, &raw).ok());
  ASSERT_TRUE(Env::Default()
                  ->WriteFile(path, ReplaceHeader(StripFooter(raw),
                                                  legacy_header))
                  .ok());
}

/// Rewrites a saved v4 mono store in place to the legacy (pre-checksum)
/// on-disk formats: v2 manifest, v1 summaries, v2 samples.
void DowngradeMonoDir(const std::string& dir) {
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string path = e.path().string();
    const std::string name = e.path().filename().string();
    if (name == "MANIFEST") {
      RewriteFile(path, "ENTROPYDB_STORE_V2");
    } else if (name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".edb") == 0) {
      RewriteFile(path, "ENTROPYDB_SUMMARY_V1");
    } else if (name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".eds") == 0) {
      RewriteFile(path, "ENTROPYDB_SAMPLE_V2");
    }
  }
}

TEST_F(CorruptionTest, LegacyMonoDirectoryIsRejected) {
  const std::string dir = Clone(MonoDir());
  DowngradeMonoDir(dir);
  auto legacy = EntropyEngine::Open(dir);
  ASSERT_FALSE(legacy.ok());
  EXPECT_TRUE(legacy.status().IsCorruption()) << legacy.status().ToString();

  // Each legacy artifact on its own, inside an otherwise current store:
  // the v1 summary and the v2 sample readers are gone too.
  for (const std::string& suffix : {".edb", ".eds"}) {
    const std::string clone = Clone(MonoDir());
    for (const auto& e : fs::directory_iterator(clone)) {
      const std::string name = e.path().filename().string();
      if (name.size() <= 4 ||
          name.compare(name.size() - 4, 4, suffix) != 0) {
        continue;
      }
      const char* header =
          suffix == ".edb" ? "ENTROPYDB_SUMMARY_V1" : "ENTROPYDB_SAMPLE_V2";
      RewriteFile(e.path().string(), header);
      break;
    }
    auto opened = EntropyEngine::Open(clone);
    ASSERT_FALSE(opened.ok()) << suffix;
    EXPECT_TRUE(opened.status().IsCorruption())
        << suffix << ": " << opened.status().ToString();
  }
}

TEST_F(CorruptionTest, LegacyShardedDirectoryIsRejected) {
  const std::string dir = Clone(ShardedDir());
  // v3 sharded manifest: no kind token, no wal_sealed line, no footer.
  std::string raw;
  ASSERT_TRUE(Env::Default()->ReadFile(dir + "/MANIFEST", &raw).ok());
  raw = StripFooter(raw);
  std::string v3;
  std::istringstream in(raw);
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (first) {
      v3 += "ENTROPYDB_STORE_V3\n";
      first = false;
    } else if (line.compare(0, 11, "wal_sealed ") == 0) {
      continue;
    } else {
      v3 += line + "\n";
    }
  }
  ASSERT_TRUE(Env::Default()->WriteFile(dir + "/MANIFEST", v3).ok());
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_directory()) DowngradeMonoDir(e.path().string());
  }

  auto legacy = EntropyEngine::Open(dir);
  ASSERT_FALSE(legacy.ok());
  EXPECT_TRUE(legacy.status().IsCorruption()) << legacy.status().ToString();
  EXPECT_TRUE(ShardedStore::Load(dir).status().IsCorruption());
}

}  // namespace
}  // namespace entropydb
