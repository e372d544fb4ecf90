#ifndef ENTROPYDB_SAMPLING_SAMPLE_INDEX_H_
#define ENTROPYDB_SAMPLING_SAMPLE_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "query/counting_query.h"
#include "storage/table.h"

namespace entropydb {

/// \brief Value-keyed row groups over a sample table — the zone-map-style
/// skipping index behind indexed Horvitz-Thompson evaluation.
///
/// For every attribute `a` the index holds a dictionary-ordered row
/// permutation `perm(a)` plus prefix-sum group offsets `offsets(a)`: the
/// rows whose code on `a` equals `c` occupy
/// `perm(a)[offsets(a)[c] .. offsets(a)[c+1]-1]`, in ASCENDING original-row
/// order. A selective predicate therefore resolves to a handful of row
/// groups (O(1) lookups through the offsets), and the estimator touches
/// only those candidate rows instead of scanning the whole sample.
///
/// The ascending-within-group invariant is what keeps indexed evaluation
/// semantics-preserving: SampleEstimator re-sorts candidates from multiple
/// groups into ascending original-row order before accumulating, so sums,
/// variances, and every routing decision downstream are bitwise identical
/// to the full-scan path (floating-point addition is order-sensitive; the
/// ORDER, not just the set, must match). See docs/PERFORMANCE.md.
///
/// Immutable after construction and safe to share across query threads.
class SampleIndex {
 public:
  /// Per-attribute layout: `offsets` has domain_size + 1 entries (prefix
  /// sums of per-code group sizes, so offsets.back() == num rows); `perm`
  /// is the grouped row permutation.
  struct AttrIndex {
    std::vector<uint32_t> offsets;
    std::vector<uint32_t> perm;
  };

  /// Builds the index over every attribute of `rows` (counting sort per
  /// attribute: O(num_rows + domain_size), rows ascending within each
  /// group by construction).
  static std::shared_ptr<const SampleIndex> Build(const Table& rows);

  /// Assembles an index from persisted parts (sample_io's .eds load),
  /// validating the invariants Build guarantees — offsets are monotone
  /// prefix sums ending at `num_rows`, each group's rows are ascending,
  /// and every grouped row really carries the group's code in `rows` — so
  /// a corrupt index file surfaces as Corruption instead of silently
  /// perturbing estimates.
  static Result<std::shared_ptr<const SampleIndex>> FromParts(
      const Table& rows, std::vector<AttrIndex> attrs);

  size_t num_attributes() const { return attrs_.size(); }
  size_t num_rows() const { return num_rows_; }
  const AttrIndex& attr(AttrId a) const { return attrs_[a]; }

  /// Number of rows in the groups matching `pred` on attribute `a` — the
  /// candidate-set size indexed evaluation would touch. O(1) for point and
  /// range predicates, O(|set|) for sets.
  size_t CandidateCount(AttrId a, const AttrPredicate& pred) const;

  /// The constrained attribute whose matching row groups are smallest
  /// (ties toward the lowest attribute id, keeping the chosen plan
  /// deterministic). Returns false when `q` constrains nothing.
  bool BestAttribute(const CountingQuery& q, AttrId* best,
                     size_t* candidates) const;

  /// Appends the rows of the groups matching `pred` on `a` to `out`
  /// (each group ascending). Returns the number of non-empty groups
  /// appended: with more than one, the caller must re-sort `out` to
  /// restore global ascending row order.
  size_t CollectRows(AttrId a, const AttrPredicate& pred,
                     std::vector<uint32_t>* out) const;

  size_t MemoryBytes() const;

 private:
  SampleIndex(std::vector<AttrIndex> attrs, size_t num_rows)
      : attrs_(std::move(attrs)), num_rows_(num_rows) {}

  std::vector<AttrIndex> attrs_;
  size_t num_rows_ = 0;
};

}  // namespace entropydb

#endif  // ENTROPYDB_SAMPLING_SAMPLE_INDEX_H_
