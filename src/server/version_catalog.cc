#include "server/version_catalog.h"

#include <algorithm>

namespace entropydb {

Result<std::unique_ptr<VersionCatalog>> VersionCatalog::Open(
    const std::string& root, SummaryOptions opts, Env* env) {
  VersionSet::Options vopts;
  vopts.verify_checksums = opts.verify_checksums;
  ASSIGN_OR_RETURN(std::unique_ptr<VersionSet> versions,
                   VersionSet::Open(root, env, vopts));
  if (versions->current() == 0) {
    return Status::FailedPrecondition(
        "versioned root has no published version: " + root);
  }
  std::unique_ptr<VersionCatalog> catalog(
      new VersionCatalog(std::move(versions), opts, env));
  RETURN_NOT_OK(catalog->Live().status());
  return catalog;
}

Result<std::shared_ptr<EntropyEngine>> VersionCatalog::Live(uint64_t* id) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t current = version_set_->current();
  if (id != nullptr) *id = current;
  return PinLocked(current);
}

Result<std::shared_ptr<EntropyEngine>> VersionCatalog::Pin(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  return PinLocked(id);
}

Result<std::shared_ptr<EntropyEngine>> VersionCatalog::PinLocked(
    uint64_t id) {
  auto it = engines_.find(id);
  if (it != engines_.end()) return it->second;
  const std::vector<uint64_t> retained = version_set_->versions();
  if (std::find(retained.begin(), retained.end(), id) == retained.end()) {
    return Status::NotFound("version not retained: v" + std::to_string(id));
  }
  ASSIGN_OR_RETURN(
      std::shared_ptr<EntropyEngine> engine,
      EntropyEngine::Open(version_set_->VersionDir(id), opts_, env_));
  engines_[id] = engine;
  return engine;
}

Result<bool> VersionCatalog::Refresh() {
  ASSIGN_OR_RETURN(const bool changed, version_set_->Refresh());
  // Retention only ever retires versions at a publish, so an unchanged
  // CURRENT leaves the cached engines as they are.
  if (!changed) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<uint64_t> retained = version_set_->versions();
  for (auto it = engines_.begin(); it != engines_.end();) {
    if (std::find(retained.begin(), retained.end(), it->first) ==
        retained.end()) {
      // Sessions still holding the shared_ptr keep answering; the catalog
      // just stops handing the retired engine to new pins.
      it = engines_.erase(it);
    } else {
      ++it;
    }
  }
  PinLocked(current()).status().ok();
  return true;
}

uint64_t VersionCatalog::current() const { return version_set_->current(); }

std::vector<uint64_t> VersionCatalog::versions() const {
  return version_set_->versions();
}

}  // namespace entropydb
