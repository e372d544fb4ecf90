#ifndef ENTROPYDB_SERVER_VERSION_CATALOG_H_
#define ENTROPYDB_SERVER_VERSION_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "storage/version_set.h"

namespace entropydb {

/// \brief Open engines for a versioned root, one per pinned version.
///
/// The serving-side half of the version lifecycle: the VersionSet tracks
/// what is on disk, the catalog tracks what is in memory. Pin(id) opens
/// (once) and hands out a shared engine for a retained version; sessions
/// hold the shared_ptr, so an engine stays answerable — bitwise-stable,
/// its files being immutable — even after its version retires from disk,
/// for as long as any session keeps it pinned. Refresh() re-reads CURRENT
/// to pick up publishes made by another process and drops cached engines
/// for versions the retention GC removed (sessions' own pins are
/// unaffected; the catalog just stops handing them to NEW sessions).
///
/// Thread-safe; one instance per served root.
class VersionCatalog {
 public:
  /// Opens the versioned root (failing on a root with no published
  /// version) and eagerly pins the current version, so the server's first
  /// query pays no load.
  static Result<std::unique_ptr<VersionCatalog>> Open(
      const std::string& root, SummaryOptions opts, Env* env);

  /// The engine for the live (CURRENT) version as last read; `id`
  /// (optional) receives that version's id.
  Result<std::shared_ptr<EntropyEngine>> Live(uint64_t* id = nullptr);

  /// The engine for retained version `id`; kNotFound when `id` is neither
  /// retained on disk nor already pinned in memory.
  Result<std::shared_ptr<EntropyEngine>> Pin(uint64_t id);

  /// Re-reads CURRENT; returns true when the live version changed. Evicts
  /// cached engines for versions no longer retained.
  Result<bool> Refresh();

  uint64_t current() const;
  std::vector<uint64_t> versions() const;

 private:
  VersionCatalog(std::unique_ptr<VersionSet> versions, SummaryOptions opts,
                 Env* env)
      : version_set_(std::move(versions)), opts_(opts), env_(env) {}

  Result<std::shared_ptr<EntropyEngine>> PinLocked(uint64_t id);

  const std::unique_ptr<VersionSet> version_set_;
  const SummaryOptions opts_;
  Env* const env_;

  std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<EntropyEngine>> engines_;
};

}  // namespace entropydb

#endif  // ENTROPYDB_SERVER_VERSION_CATALOG_H_
