#include "sampling/sample_io.h"

#include <cstdio>
#include <sstream>

#include "storage/table_builder.h"

namespace entropydb {

namespace {
void WriteDouble(std::ostream& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

bool HasWhitespace(const std::string& s) {
  return s.find_first_of(" \t\n\r") != std::string::npos;
}
}  // namespace

Status SaveSample(const WeightedSample& sample, const std::string& path,
                  Env* env) {
  if (sample.rows == nullptr) {
    return Status::InvalidArgument("sample has no row table");
  }
  const Table& t = *sample.rows;
  const SampleIndex* index = sample.index.get();
  if (index != nullptr && (index->num_attributes() != t.num_attributes() ||
                           index->num_rows() != t.num_rows())) {
    return Status::InvalidArgument(
        "sample index disagrees with the sample rows");
  }
  // The format is token-oriented (LoadSample reads names with >>): reject
  // whitespace up front instead of writing a file Load can never reopen.
  if (HasWhitespace(sample.name)) {
    return Status::InvalidArgument("sample name contains whitespace: '" +
                                   sample.name + "'");
  }
  for (AttrId a = 0; a < t.num_attributes(); ++a) {
    if (HasWhitespace(t.schema().attribute(a).name)) {
      return Status::InvalidArgument("attribute name contains whitespace: '" +
                                     t.schema().attribute(a).name + "'");
    }
  }
  std::ostringstream out;
  out << "ENTROPYDB_SAMPLE_V3\n";
  out << "name " << (sample.name.empty() ? "sample" : sample.name) << '\n';
  out << "fraction ";
  WriteDouble(out, sample.fraction);
  out << '\n';
  out << "attrs " << t.num_attributes() << '\n';
  for (AttrId a = 0; a < t.num_attributes(); ++a) {
    const Domain& d = t.domain(a);
    out << t.schema().attribute(a).name;
    if (d.is_categorical()) {
      out << " cat " << d.size() << '\n';
      for (Code v = 0; v < d.size(); ++v) out << d.LabelFor(v) << '\n';
    } else {
      out << " bin ";
      WriteDouble(out, d.bin_lo());
      out << ' ';
      WriteDouble(out, d.bin_hi());
      out << ' ' << d.size() << '\n';
    }
  }
  out << "rows " << t.num_rows() << '\n';
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (AttrId a = 0; a < t.num_attributes(); ++a) {
      out << t.at(r, a) << ' ';
    }
    WriteDouble(out, sample.weights[r]);
    out << '\n';
  }
  // Index block: per attribute, the prefix-sum group offsets and the
  // grouped row permutation. "index 0" marks an index-less sample (built
  // with indexing off); Load then leaves the index absent rather than
  // second-guessing the builder.
  out << "index " << (index != nullptr ? t.num_attributes() : 0) << '\n';
  if (index != nullptr) {
    for (AttrId a = 0; a < t.num_attributes(); ++a) {
      const SampleIndex::AttrIndex& ai = index->attr(a);
      out << "iattr " << a << "\noffsets";
      for (uint32_t o : ai.offsets) out << ' ' << o;
      out << "\nperm";
      for (uint32_t p : ai.perm) out << ' ' << p;
      out << '\n';
    }
  }
  if (!out.good()) {
    return Status::Internal("sample serialization failure: " + path);
  }
  return WriteChecksummedFile(env, path, out.str());
}

Result<WeightedSample> LoadSample(const std::string& path, Env* env,
                                  bool verify_checksums) {
  ASSIGN_OR_RETURN(std::string payload,
                   ReadChecksummedFile(env, path, verify_checksums));
  std::istringstream in(payload);
  std::string token;
  if (!(in >> token) || token != "ENTROPYDB_SAMPLE_V3") {
    return Status::Corruption("bad sample header in " + path);
  }
  WeightedSample sample;
  if (!(in >> token >> sample.name) || token != "name") {
    return Status::Corruption("bad sample name record in " + path);
  }
  if (!(in >> token >> sample.fraction) || token != "fraction") {
    return Status::Corruption("bad sample fraction record in " + path);
  }
  size_t m = 0;
  if (!(in >> token >> m) || token != "attrs" || m == 0) {
    return Status::Corruption("bad sample attrs record in " + path);
  }
  std::vector<AttributeSpec> specs(m);
  std::vector<Domain> domains(m);
  for (size_t a = 0; a < m; ++a) {
    std::string kind;
    if (!(in >> specs[a].name >> kind)) {
      return Status::Corruption("truncated sample attribute in " + path);
    }
    if (kind == "cat") {
      size_t count = 0;
      if (!(in >> count)) return Status::Corruption("bad sample domain");
      std::string line;
      std::getline(in, line);  // consume the rest of the header line
      std::vector<std::string> labels(count);
      for (auto& l : labels) {
        if (!std::getline(in, l)) {
          return Status::Corruption("truncated sample labels in " + path);
        }
      }
      specs[a].type = AttributeType::kCategorical;
      domains[a] = Domain::Categorical(std::move(labels));
    } else if (kind == "bin") {
      double lo = 0, hi = 0;
      uint32_t buckets = 0;
      if (!(in >> lo >> hi >> buckets)) {
        return Status::Corruption("bad binned sample domain in " + path);
      }
      specs[a].type = AttributeType::kNumeric;
      specs[a].buckets = buckets;
      domains[a] = Domain::Binned(lo, hi, buckets);
    } else {
      return Status::Corruption("unknown sample domain kind: " + kind);
    }
  }
  size_t rows = 0;
  if (!(in >> token >> rows) || token != "rows") {
    return Status::Corruption("bad sample rows record in " + path);
  }
  TableBuilder builder(Schema{std::move(specs)});
  for (AttrId a = 0; a < m; ++a) builder.SetDomain(a, domains[a]);
  std::vector<Code> row(m);
  sample.weights.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < m; ++a) {
      if (!(in >> row[a])) {
        return Status::Corruption("truncated sample row in " + path);
      }
    }
    if (!(in >> sample.weights[r])) {
      return Status::Corruption("truncated sample weight in " + path);
    }
    builder.AppendEncodedRow(row);
  }
  ASSIGN_OR_RETURN(sample.rows, builder.Finish());

  size_t indexed = 0;
  if (!(in >> token >> indexed) || token != "index") {
    return Status::Corruption("bad sample index record in " + path);
  }
  if (indexed == 0) return sample;  // saved with indexing off
  if (indexed != m) {
    return Status::Corruption("partial sample index in " + path);
  }
  std::vector<SampleIndex::AttrIndex> attrs(m);
  for (size_t i = 0; i < m; ++i) {
    size_t a = 0;
    if (!(in >> token >> a) || token != "iattr" || a >= m) {
      return Status::Corruption("bad sample index attribute in " + path);
    }
    SampleIndex::AttrIndex& ai = attrs[a];
    if (!ai.offsets.empty()) {
      return Status::Corruption("duplicate sample index attribute in " + path);
    }
    ai.offsets.resize(domains[a].size() + 1);
    if (!(in >> token) || token != "offsets") {
      return Status::Corruption("bad sample index offsets in " + path);
    }
    for (uint32_t& o : ai.offsets) {
      if (!(in >> o)) {
        return Status::Corruption("truncated sample index offsets in " + path);
      }
    }
    ai.perm.resize(rows);
    if (!(in >> token) || token != "perm") {
      return Status::Corruption("bad sample index perm in " + path);
    }
    for (uint32_t& p : ai.perm) {
      if (!(in >> p)) {
        return Status::Corruption("truncated sample index perm in " + path);
      }
    }
  }
  // FromParts re-checks every invariant against the loaded rows, so a
  // corrupt index fails the load loudly instead of skewing estimates.
  auto index = SampleIndex::FromParts(*sample.rows, std::move(attrs));
  if (!index.ok()) {
    return Status::Corruption(index.status().message() + " in " + path);
  }
  sample.index = *index;
  return sample;
}

}  // namespace entropydb
