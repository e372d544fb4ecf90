#ifndef ENTROPYDB_STORAGE_VERSION_SET_H_
#define ENTROPYDB_STORAGE_VERSION_SET_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/result.h"

namespace entropydb {

/// \brief Immutable store versions behind one atomic CURRENT pointer.
///
/// OrpheusDB-style bolt-on versioning (PAPERS.md): a *versioned root* is a
/// directory whose entries are complete, never-mutated store directories
/// "v1", "v2", ... plus a checksummed CURRENT file naming the live one.
/// Every rebuild, `--append`, or compaction publishes a NEW version
/// directory and then flips CURRENT — the flip (tmp file + rename + parent
/// sync) is the single commit point, so a crash anywhere leaves either the
/// old pointer or the new one, never a torn state. A crash after a version
/// directory is built but before the flip strands a "v<id>" with id >
/// current; Open sweeps those with the same SweepStaleEntries staleness
/// rule ShardedStore::Load applies to stranded shards.
///
/// Readers that opened v(n) keep answering from it byte-for-byte unchanged
/// while v(n+1) publishes: nothing under a version directory is ever
/// rewritten after its flip. Retired versions (id < current) stay on disk —
/// and stay queryable, which is what makes time travel work — until the
/// retention GC at the next publish drops all but the newest
/// `Options::retain` of them.
///
/// Layout of a versioned root:
///
///     root/
///       CURRENT        "ENTROPYDB_CURRENT_V1" + "current <id>" +
///                      "retain <k>" + CRC32C footer
///       v3/            retained historical version (time travel)
///       v4/            current version (a normal sharded/source store dir)
///
/// Thread safety: all methods are internally synchronized; publishes are
/// additionally expected to come from one writer at a time (the server's
/// maintenance thread or one CLI process), which the on-disk protocol does
/// not itself enforce.
class VersionSet {
 public:
  struct Options {
    /// How many versions (counting the current one) survive the retention
    /// GC that runs after each publish. The knob is persisted in CURRENT
    /// so every opener — including a read-only CLI — applies the
    /// publisher's window rather than its own default. 0 (the default)
    /// means "adopt the on-disk value" (2 for a fresh root); a nonzero
    /// value overrides and is persisted by the next publish. Minimum 1.
    size_t retain = 0;
    /// Verify the CURRENT file's CRC32C footer on read.
    bool verify_checksums = true;
  };

  /// True when `root` is a versioned root (has a CURRENT file). Engine
  /// open uses this to dispatch directories: versioned root vs plain
  /// sharded/source store dir.
  static bool IsVersionedRoot(const std::string& root, Env* env);

  /// Opens (creating `root` if needed) and garbage-collects: stranded
  /// "v<id>" with id > current, versions older than the retention window,
  /// and "CURRENT.tmp" / "v*.tmp-*" staging leftovers all go. A root with
  /// no CURRENT opens empty (current() == 0); the first publish creates
  /// v1. A present-but-corrupt CURRENT is kCorruption, never silently
  /// empty.
  static Result<std::unique_ptr<VersionSet>> Open(const std::string& root,
                                                  Env* env, Options options);
  static Result<std::unique_ptr<VersionSet>> Open(const std::string& root,
                                                  Env* env) {
    return Open(root, env, Options());
  }

  /// The live version id; 0 when no version has been published yet.
  uint64_t current() const;

  /// Retained version ids, ascending (current() is last). Every listed id
  /// has a complete store directory at VersionDir(id).
  std::vector<uint64_t> versions() const;

  /// "root/v<id>" — a normal store directory openable by EntropyEngine.
  std::string VersionDir(uint64_t id) const;

  /// VersionDir(current()); invalid to call when current() == 0.
  std::string CurrentDir() const;

  const std::string& root() const { return root_; }

  /// The effective retention window (persisted value, or the explicit
  /// Options::retain override).
  size_t retain() const;

  /// Reserves the next version id (max seen + 1). The caller builds a
  /// complete store at VersionDir(id) — from scratch, or starting from
  /// CloneCurrentTo — and then calls Publish(id). Until Publish, the
  /// directory is invisible to readers and is swept as stranded if the
  /// process crashes.
  uint64_t BeginVersion();

  /// Populates VersionDir(id) from the current version at O(files) cost:
  /// files inside subdirectories (immutable shard data, the bulk of the
  /// bytes) are hard-linked via Env::LinkFile, while top-level files
  /// (MANIFEST, ingest.wal — the ones ingest mutates in place) are byte
  /// copies so appending in the clone cannot reach back into the published
  /// version. Requires current() != 0.
  Status CloneCurrentTo(uint64_t id);

  /// Commits VersionDir(id) as the live version: syncs the root, flips
  /// CURRENT atomically, then runs the retention GC. After return, new
  /// readers open v<id>; readers already pinned on an older retained
  /// version are unaffected.
  Status Publish(uint64_t id);

  /// Re-reads CURRENT from disk, picking up a publish made by another
  /// process (e.g. a CLI append while the server runs). Returns true when
  /// the current version changed; only then is the root re-listed, so an
  /// unchanged refresh costs one small file read.
  Result<bool> Refresh();

 private:
  VersionSet(std::string root, Env* env, Options options)
      : root_(std::move(root)), env_(env), options_(options) {}

  /// Drops every "v*" / "CURRENT.tmp" entry not in the retained window;
  /// the ONE staleness rule, shared with ShardedStore::Load through
  /// SweepStaleEntries. Caller holds mu_.
  void GCLocked();
  Status WriteCurrentLocked(uint64_t id);
  /// Parses CURRENT (0 when absent) and adopts its retention window.
  Result<uint64_t> ReadCurrentLocked();
  /// Lists the retained v<id> directories up to `current` and adopts
  /// both; kCorruption when `current` itself is missing.
  Status ListVersionsLocked(uint64_t current);

  const std::string root_;
  Env* const env_;
  const Options options_;

  mutable std::mutex mu_;
  uint64_t current_ = 0;
  /// Effective retention window: on-disk value unless Options overrode it.
  size_t retain_ = 2;
  /// Highest id handed out by BeginVersion, so two unpublished builds in
  /// one process cannot collide on a directory name.
  uint64_t next_hint_ = 0;
  std::vector<uint64_t> versions_;
};

/// Name of the atomic pointer file inside a versioned root.
extern const char kCurrentFileName[];

}  // namespace entropydb

#endif  // ENTROPYDB_STORAGE_VERSION_SET_H_
