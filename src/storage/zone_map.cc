#include "storage/zone_map.h"

#include <algorithm>
#include <sstream>

namespace entropydb {

namespace {

constexpr char kZoneMapV1[] = "ENTROPYDB_ZONEMAP_V1";

size_t WordsFor(uint32_t domain_size) { return (domain_size + 63) / 64; }

bool BitSet(const std::vector<uint64_t>& bits, Code c) {
  return (bits[c >> 6] >> (c & 63)) & 1u;
}

}  // namespace

ZoneMap ZoneMap::Build(const Table& table) {
  ZoneMap zm;
  zm.attrs_.resize(table.num_attributes());
  for (AttrId a = 0; a < table.num_attributes(); ++a) {
    AttrPresence& p = zm.attrs_[a];
    p.domain_size = table.domain(a).size();
    // Collect presence densely first (one scan, O(1) per row), then pick
    // the persisted encoding from the observed density.
    std::vector<uint64_t> bits(WordsFor(p.domain_size), 0);
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const Code c = table.at(r, a);
      if (c < p.domain_size) bits[c >> 6] |= uint64_t{1} << (c & 63);
    }
    size_t distinct = 0;
    for (uint64_t w : bits) distinct += __builtin_popcountll(w);
    p.distinct = distinct;
    if (distinct * kSparseCutoverDivisor < p.domain_size) {
      p.encoding = Encoding::kSparse;
      p.codes.reserve(distinct);
      for (Code c = 0; c < p.domain_size; ++c) {
        if (BitSet(bits, c)) p.codes.push_back(c);
      }
    } else {
      p.encoding = Encoding::kDense;
      p.bits = std::move(bits);
    }
  }
  return zm;
}

bool ZoneMap::Contains(AttrId a, Code c) const {
  const AttrPresence& p = attrs_[a];
  if (c >= p.domain_size) return false;
  if (p.encoding == Encoding::kDense) return BitSet(p.bits, c);
  return std::binary_search(p.codes.begin(), p.codes.end(), c);
}

bool ZoneMap::ContainsAnyInRange(AttrId a, Code lo, Code hi) const {
  const AttrPresence& p = attrs_[a];
  if (p.domain_size == 0 || lo > hi || lo >= p.domain_size) return false;
  hi = std::min<Code>(hi, p.domain_size - 1);
  if (p.encoding == Encoding::kSparse) {
    auto it = std::lower_bound(p.codes.begin(), p.codes.end(), lo);
    return it != p.codes.end() && *it <= hi;
  }
  // Dense: test the partial edge words and any full words between them.
  const size_t wlo = lo >> 6;
  const size_t whi = hi >> 6;
  const uint64_t lo_mask = ~uint64_t{0} << (lo & 63);
  const uint64_t hi_mask = ~uint64_t{0} >> (63 - (hi & 63));
  if (wlo == whi) return (p.bits[wlo] & lo_mask & hi_mask) != 0;
  if ((p.bits[wlo] & lo_mask) != 0) return true;
  for (size_t w = wlo + 1; w < whi; ++w) {
    if (p.bits[w] != 0) return true;
  }
  return (p.bits[whi] & hi_mask) != 0;
}

bool ZoneMap::MightMatch(const CountingQuery& q, AttrId* pruned_attr) const {
  if (q.num_attributes() != attrs_.size()) return true;
  for (AttrId a = 0; a < attrs_.size(); ++a) {
    const AttrPredicate& pred = q.predicate(a);
    bool possible = true;
    switch (pred.kind()) {
      case AttrPredicate::Kind::kAny:
        continue;
      case AttrPredicate::Kind::kPoint:
        possible = Contains(a, pred.lo());
        break;
      case AttrPredicate::Kind::kRange:
        possible = ContainsAnyInRange(a, pred.lo(), pred.hi());
        break;
      case AttrPredicate::Kind::kSet: {
        possible = false;
        for (Code c : pred.set()) {
          if (Contains(a, c)) {
            possible = true;
            break;
          }
        }
        break;
      }
    }
    if (!possible) {
      if (pruned_attr != nullptr) *pruned_attr = a;
      return false;
    }
  }
  return true;
}

Status ZoneMap::Save(Env* env, const std::string& path) const {
  std::ostringstream out;
  out << kZoneMapV1 << "\n";
  out << "attrs " << attrs_.size() << "\n";
  for (AttrId a = 0; a < attrs_.size(); ++a) {
    const AttrPresence& p = attrs_[a];
    out << "attr " << a << " " << p.domain_size;
    if (p.encoding == Encoding::kDense) {
      out << " dense " << p.bits.size() << std::hex;
      for (uint64_t w : p.bits) out << " " << w;
      out << std::dec;
    } else {
      out << " sparse " << p.codes.size();
      for (Code c : p.codes) out << " " << c;
    }
    out << "\n";
  }
  return WriteChecksummedFile(env, path, out.str());
}

Result<ZoneMap> ZoneMap::Load(Env* env, const std::string& path) {
  // A wrong zone map means silently wrong (wrongly pruned) answers, so a
  // footerless or mismatching file is rejected, never degraded; checksums
  // are verified even when the caller turned verification off elsewhere.
  ASSIGN_OR_RETURN(std::string payload,
                   ReadChecksummedFile(env, path, /*verify=*/true));
  std::istringstream in(payload);
  std::string token;
  if (!(in >> token) || token != kZoneMapV1) {
    return Status::Corruption("bad zone map header in " + path);
  }
  size_t m = 0;
  if (!(in >> token >> m) || token != "attrs") {
    return Status::Corruption("bad attrs record in " + path);
  }
  ZoneMap zm;
  zm.attrs_.resize(m);
  for (AttrId a = 0; a < m; ++a) {
    AttrPresence& p = zm.attrs_[a];
    AttrId id = 0;
    std::string enc;
    size_t count = 0;
    if (!(in >> token >> id >> p.domain_size >> enc >> count) ||
        token != "attr" || id != a) {
      return Status::Corruption("bad attr record in " + path);
    }
    if (enc == "dense") {
      p.encoding = Encoding::kDense;
      if (count != WordsFor(p.domain_size)) {
        return Status::Corruption("bad bitmap width in " + path);
      }
      p.bits.resize(count);
      in >> std::hex;
      for (size_t w = 0; w < count; ++w) {
        if (!(in >> p.bits[w])) {
          return Status::Corruption("truncated bitmap in " + path);
        }
      }
      in >> std::dec;
      // Bits past the domain must be clear or Contains/range scans would
      // be fed garbage by a corrupt (but checksum-era-predating) file.
      const uint32_t tail = p.domain_size & 63;
      if (count > 0 && tail != 0 &&
          (p.bits.back() & (~uint64_t{0} << tail)) != 0) {
        return Status::Corruption("bitmap bits past the domain in " + path);
      }
      size_t distinct = 0;
      for (uint64_t w : p.bits) distinct += __builtin_popcountll(w);
      p.distinct = distinct;
    } else if (enc == "sparse") {
      p.encoding = Encoding::kSparse;
      if (count > p.domain_size) {
        return Status::Corruption("sparse list wider than the domain in " +
                                  path);
      }
      p.codes.resize(count);
      for (size_t i = 0; i < count; ++i) {
        if (!(in >> p.codes[i])) {
          return Status::Corruption("truncated sparse list in " + path);
        }
        if (p.codes[i] >= p.domain_size ||
            (i > 0 && p.codes[i] <= p.codes[i - 1])) {
          return Status::Corruption("unsorted or out-of-domain code in " +
                                    path);
        }
      }
      p.distinct = count;
    } else {
      return Status::Corruption("unknown zone map encoding '" + enc +
                                "' in " + path);
    }
  }
  return zm;
}

}  // namespace entropydb
