// Env: checksummed file round-trips, atomic directory publication, stale
// staging GC, and the FaultInjectionEnv failure modes the crash-safety
// matrix drives.

#include "common/env.h"

#include <filesystem>

#include <gtest/gtest.h>

#include "common/fault_injection_env.h"

namespace entropydb {
namespace {

namespace fs = std::filesystem;

class EnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("entropydb_env_test_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (fs::path(dir_) / name).string();
  }

  std::string dir_;
};

TEST_F(EnvTest, WriteReadRoundTrip) {
  Env* env = Env::Default();
  ASSERT_TRUE(env->WriteFile(Path("f"), "hello\n").ok());
  std::string got;
  ASSERT_TRUE(env->ReadFile(Path("f"), &got).ok());
  EXPECT_EQ(got, "hello\n");
  EXPECT_TRUE(env->FileExists(Path("f")));
  EXPECT_FALSE(env->FileExists(Path("absent")));
  auto size = env->FileSize(Path("f"));
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 6u);
}

TEST_F(EnvTest, ReadMissingFileFails) {
  std::string got;
  Status s = Env::Default()->ReadFile(Path("absent"), &got);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

TEST_F(EnvTest, ChecksummedRoundTrip) {
  Env* env = Env::Default();
  const std::string payload = "line one\nline two\n";
  ASSERT_TRUE(WriteChecksummedFile(env, Path("f"), payload).ok());
  auto got = ReadChecksummedFile(env, Path("f"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, payload);
}

TEST_F(EnvTest, ChecksummedDetectsEveryByteFlip) {
  Env* env = Env::Default();
  ASSERT_TRUE(WriteChecksummedFile(env, Path("f"), "abcdefgh\n").ok());
  std::string raw;
  ASSERT_TRUE(env->ReadFile(Path("f"), &raw).ok());
  for (size_t i = 0; i < raw.size(); ++i) {
    std::string mutated = raw;
    mutated[i] ^= 0x01;
    ASSERT_TRUE(env->WriteFile(Path("m"), mutated).ok());
    // A flip in the payload or the hex digits is a checksum mismatch; a
    // flip in the footer tag leaves no footer at all. Both are corruption.
    auto got = ReadChecksummedFile(env, Path("m"));
    ASSERT_FALSE(got.ok()) << "byte " << i;
    EXPECT_EQ(got.status().code(), StatusCode::kCorruption) << "byte " << i;
  }
}

TEST_F(EnvTest, FileWithoutFooterIsCorruption) {
  Env* env = Env::Default();
  ASSERT_TRUE(env->WriteFile(Path("bare"), "no footer\n").ok());
  for (bool verify : {true, false}) {
    auto got = ReadChecksummedFile(env, Path("bare"), verify);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
  }
}

TEST_F(EnvTest, PublishDirFreshAndReplace) {
  Env* env = Env::Default();
  const std::string dest = Path("store");
  // Fresh publish.
  std::string tmp = StagingDirFor(dest);
  ASSERT_TRUE(env->CreateDirs(tmp).ok());
  ASSERT_TRUE(env->WriteFile(tmp + "/a", "v1").ok());
  ASSERT_TRUE(env->PublishDir(tmp, dest).ok());
  std::string got;
  ASSERT_TRUE(env->ReadFile(dest + "/a", &got).ok());
  EXPECT_EQ(got, "v1");
  EXPECT_FALSE(env->FileExists(tmp));
  // Replace an existing directory: old contents fully gone, new visible.
  tmp = StagingDirFor(dest);
  ASSERT_TRUE(env->CreateDirs(tmp).ok());
  ASSERT_TRUE(env->WriteFile(tmp + "/b", "v2").ok());
  ASSERT_TRUE(env->PublishDir(tmp, dest).ok());
  EXPECT_FALSE(env->FileExists(dest + "/a"));
  ASSERT_TRUE(env->ReadFile(dest + "/b", &got).ok());
  EXPECT_EQ(got, "v2");
  EXPECT_FALSE(env->FileExists(tmp));
}

TEST_F(EnvTest, StagingNamesAreUniqueAndGCd) {
  Env* env = Env::Default();
  const std::string dest = Path("store");
  const std::string s1 = StagingDirFor(dest);
  const std::string s2 = StagingDirFor(dest);
  EXPECT_NE(s1, s2);
  EXPECT_EQ(s1.find(dest + ".tmp-"), 0u);
  // Strand two staging dirs (a crashed save), plus an unrelated sibling
  // that must survive the GC.
  ASSERT_TRUE(env->CreateDirs(s1).ok());
  ASSERT_TRUE(env->CreateDirs(s2).ok());
  ASSERT_TRUE(env->CreateDirs(Path("store_other")).ok());
  RemoveStaleStagingDirs(env, dest);
  EXPECT_FALSE(env->FileExists(s1));
  EXPECT_FALSE(env->FileExists(s2));
  EXPECT_TRUE(env->FileExists(Path("store_other")));
}

TEST_F(EnvTest, CloseReportsDelayedWriteErrors) {
  // Writing into a directory that does not exist fails at open already —
  // the cheap proxy for "errors are not swallowed on any exit path".
  auto file = Env::Default()->NewWritableFile(Path("no/such/dir/f"), true);
  EXPECT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------
// FaultInjectionEnv

TEST_F(EnvTest, FaultFailAppend) {
  FaultInjectionEnv fenv;
  fenv.FailAppendAt(2);
  // First write (one append) succeeds, second fails without writing.
  ASSERT_TRUE(fenv.WriteFile(Path("a"), "one").ok());
  Status s = fenv.WriteFile(Path("b"), "two");
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_FALSE(fs::exists(Path("b")) && fs::file_size(Path("b")) > 0);
}

TEST_F(EnvTest, FaultTornAppendWritesHalf) {
  FaultInjectionEnv fenv;
  fenv.TearAppendAt(1);
  Status s = fenv.WriteFile(Path("t"), "0123456789", /*sync=*/false);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  std::string got;
  ASSERT_TRUE(Env::Default()->ReadFile(Path("t"), &got).ok());
  EXPECT_EQ(got, "01234");  // first half only
}

TEST_F(EnvTest, LoseUnsyncedDataDropsUnsyncedTail) {
  FaultInjectionEnv fenv;
  // File A: written and synced — survives the crash.
  ASSERT_TRUE(fenv.WriteFile(Path("a"), "synced", /*sync=*/true).ok());
  // File B: written, never synced — gone after the crash.
  ASSERT_TRUE(fenv.WriteFile(Path("b"), "unsynced", /*sync=*/false).ok());
  // File C: partially synced — truncated back to the synced prefix.
  {
    auto file = fenv.NewWritableFile(Path("c"), true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("durable").ok());
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE((*file)->Append("-tail").ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  ASSERT_TRUE(fenv.LoseUnsyncedData().ok());
  std::string got;
  ASSERT_TRUE(fenv.ReadFile(Path("a"), &got).ok());
  EXPECT_EQ(got, "synced");
  EXPECT_FALSE(fenv.FileExists(Path("b")));
  ASSERT_TRUE(fenv.ReadFile(Path("c"), &got).ok());
  EXPECT_EQ(got, "durable");
}

TEST_F(EnvTest, CrashAfterFailsEveryLaterMutation) {
  FaultInjectionEnv fenv;
  ASSERT_TRUE(fenv.WriteFile(Path("a"), "x").ok());
  const uint64_t clean_ops = fenv.ops();
  ASSERT_GT(clean_ops, 0u);
  fenv.ResetFaults();
  fenv.CrashAfter(0);
  Status s = fenv.WriteFile(Path("b"), "y");
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  // Reads still pass through at the crash point.
  std::string got;
  EXPECT_TRUE(fenv.ReadFile(Path("a"), &got).ok());
}

TEST_F(EnvTest, LinkFileSharesBytesButSurvivesSourceRemoval) {
  Env* env = Env::Default();
  ASSERT_TRUE(env->WriteFile(Path("src"), "immutable bytes").ok());
  ASSERT_TRUE(env->LinkFile(Path("src"), Path("dst")).ok());
  std::string got;
  ASSERT_TRUE(env->ReadFile(Path("dst"), &got).ok());
  EXPECT_EQ(got, "immutable bytes");
  // A hard link (or copy, on filesystems without links) owns its name:
  // removing the source must not invalidate the destination. This is what
  // lets the version GC delete v(n)'s directory while v(n+1) still links
  // the same shard files.
  ASSERT_TRUE(env->RemoveAll(Path("src")).ok());
  got.clear();
  ASSERT_TRUE(env->ReadFile(Path("dst"), &got).ok());
  EXPECT_EQ(got, "immutable bytes");
}

TEST_F(EnvTest, LinkFileToExistingDestinationFails) {
  Env* env = Env::Default();
  ASSERT_TRUE(env->WriteFile(Path("src"), "a").ok());
  ASSERT_TRUE(env->WriteFile(Path("dst"), "b").ok());
  EXPECT_FALSE(env->LinkFile(Path("src"), Path("dst")).ok());
}

TEST_F(EnvTest, FaultInjectionEnvLinkFileInjectsFaults) {
  // The base-class copy fallback routes LinkFile through ReadFile +
  // WriteFile, so injected faults apply to cloning too.
  FaultInjectionEnv fenv;
  ASSERT_TRUE(fenv.WriteFile(Path("src"), "x").ok());
  ASSERT_TRUE(fenv.LinkFile(Path("src"), Path("copy")).ok());
  std::string got;
  ASSERT_TRUE(fenv.ReadFile(Path("copy"), &got).ok());
  EXPECT_EQ(got, "x");
  fenv.CrashAfter(0);
  EXPECT_FALSE(fenv.LinkFile(Path("src"), Path("copy2")).ok());
}

TEST_F(EnvTest, SweepStaleEntriesAppliesTheOneStalenessRule) {
  // Stale iff the name starts with a swept prefix AND is not in keep —
  // the single rule shared by shard GC, version GC, and staging GC.
  Env* env = Env::Default();
  ASSERT_TRUE(env->CreateDirs(Path("shard_0")).ok());
  ASSERT_TRUE(env->WriteFile(Path("shard_0/data"), "d").ok());
  ASSERT_TRUE(env->CreateDirs(Path("shard_1")).ok());
  ASSERT_TRUE(env->WriteFile(Path("MANIFEST.tmp-abc"), "torn").ok());
  ASSERT_TRUE(env->WriteFile(Path("MANIFEST"), "live").ok());
  ASSERT_TRUE(env->WriteFile(Path("unrelated"), "keep me").ok());

  const size_t removed = SweepStaleEntries(
      env, dir_, {"shard_", "MANIFEST.tmp"}, /*keep=*/{"shard_0"});
  EXPECT_EQ(removed, 2u);  // shard_1 and MANIFEST.tmp-abc
  EXPECT_TRUE(fs::exists(Path("shard_0/data")));
  EXPECT_FALSE(fs::exists(Path("shard_1")));
  EXPECT_FALSE(fs::exists(Path("MANIFEST.tmp-abc")));
  // MANIFEST does not match the "MANIFEST.tmp" prefix; non-matching names
  // are never touched.
  EXPECT_TRUE(fs::exists(Path("MANIFEST")));
  EXPECT_TRUE(fs::exists(Path("unrelated")));
}

TEST_F(EnvTest, SweepStaleEntriesOnMissingDirIsZero) {
  EXPECT_EQ(SweepStaleEntries(Env::Default(), Path("nope"), {"x"}, {}), 0u);
}

TEST_F(EnvTest, PublishDirRemapsTrackedFiles) {
  FaultInjectionEnv fenv;
  const std::string dest = Path("store");
  const std::string tmp = StagingDirFor(dest);
  ASSERT_TRUE(fenv.CreateDirs(tmp).ok());
  ASSERT_TRUE(fenv.WriteFile(tmp + "/f", "synced contents").ok());
  ASSERT_TRUE(fenv.SyncDir(tmp).ok());
  ASSERT_TRUE(fenv.PublishDir(tmp, dest).ok());
  // The tracked (synced) state followed the rename: losing un-synced data
  // must not disturb the published file.
  ASSERT_TRUE(fenv.LoseUnsyncedData().ok());
  std::string got;
  ASSERT_TRUE(fenv.ReadFile(dest + "/f", &got).ok());
  EXPECT_EQ(got, "synced contents");
}

}  // namespace
}  // namespace entropydb
