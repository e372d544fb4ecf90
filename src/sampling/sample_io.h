#ifndef ENTROPYDB_SAMPLING_SAMPLE_IO_H_
#define ENTROPYDB_SAMPLING_SAMPLE_IO_H_

#include <string>

#include "common/env.h"
#include "common/result.h"
#include "sampling/sample.h"

namespace entropydb {

/// Serializes a weighted sample (schema, domains, encoded rows, expansion
/// weights, name, fraction) to a line-oriented text file, the same style as
/// EntropySummary::Save; LoadSample restores it without the base table.
/// Attribute names and the sample name must be whitespace-free tokens (they
/// already are everywhere in this codebase); Save rejects offenders with
/// InvalidArgument rather than writing a file Load cannot reopen.
///
/// The file (format v3) carries the sample's row-group index
/// (sample_index.h) after the row block — per attribute, the prefix-sum
/// group offsets and the row permutation — so loads skip the rebuild. A
/// sample without an index writes an empty index section (index 0) and
/// loads without one. A mandatory CRC32C footer covers the payload; writes
/// go through `env` and are synced to stable storage before SaveSample
/// returns.
Status SaveSample(const WeightedSample& sample, const std::string& path,
                  Env* env = Env::Default());

/// Restores a sample written by SaveSample. The rebuilt table carries the
/// original domains, so query codes are position-compatible with summaries
/// of the same relation. The file must carry a valid checksum footer
/// (kCorruption otherwise; `verify_checksums` = false skips the CRC math
/// but still requires the footer's presence). The persisted index is
/// validated against the rows (kCorruption on mismatch).
Result<WeightedSample> LoadSample(const std::string& path,
                                  Env* env = Env::Default(),
                                  bool verify_checksums = true);

}  // namespace entropydb

#endif  // ENTROPYDB_SAMPLING_SAMPLE_IO_H_
