#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace entropydb;

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         1e-6 * (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

// ------------------------------------------------------------- inputs

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Uniform();
  const size_t i = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return std::min(i, cdf_.size() - 1);
}

std::string Relation::ValueText(size_t a, Code code) const {
  const Domain& dom = domains[a];
  if (dom.is_categorical()) return dom.labels()[code];
  // Integer columns hold their codes; a code reads back as its own
  // bucket both through ReadCsv and through the query parser.
  if (types[a] == AttributeType::kInteger) return std::to_string(code);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.10g",
                dom.bin_lo() + (code + 0.5) * dom.bin_width());
  return buf;
}

std::string Relation::Csv(size_t begin, size_t end) const {
  std::string out;
  for (size_t a = 0; a < arity(); ++a) {
    out += (a ? "," : "") + names[a];
  }
  out += "\n";
  for (size_t r = begin; r < end; ++r) {
    for (size_t a = 0; a < arity(); ++a) {
      if (a) out += ",";
      out += ValueText(a, cols[a][r]);
    }
    out += "\n";
  }
  return out;
}

std::shared_ptr<Table> Relation::ToTable() const {
  std::vector<AttributeSpec> specs;
  for (size_t a = 0; a < arity(); ++a) {
    specs.push_back(AttributeSpec{names[a], types[a], domains[a].size()});
  }
  TableBuilder builder(Schema{std::move(specs)});
  for (size_t a = 0; a < arity(); ++a) {
    builder.SetDomain(static_cast<AttrId>(a), domains[a]);
  }
  std::vector<Code> row(arity());
  for (size_t r = 0; r < rows(); ++r) {
    for (size_t a = 0; a < arity(); ++a) row[a] = cols[a][r];
    builder.AppendEncodedRow(row);
  }
  return Must(builder.Finish(), "table build");
}

namespace {

std::vector<std::string> Labels(const char* prefix, uint32_t count) {
  std::vector<std::string> labels(count);
  for (uint32_t i = 0; i < count; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%s%03u", prefix, i);
    labels[i] = buf;
  }
  return labels;
}

Code Clamp(double v, uint32_t size) {
  if (v < 0) return 0;
  if (v >= size) return size - 1;
  return static_cast<Code>(v);
}

// Fixed geometry: every seed samples rows from the same distribution, so
// figures compare across seeds.
constexpr uint64_t kGeometrySeed = 0x5eed0f11u;
constexpr uint32_t kAirports = 147;
constexpr uint32_t kHubs = 6;

struct Airports {
  std::vector<double> x, y;
  std::vector<std::vector<Code>> hubs;
  Airports() : x(kAirports), y(kAirports), hubs(kAirports) {
    Rng g(kGeometrySeed);
    for (uint32_t i = 0; i < kAirports; ++i) {
      x[i] = g.Uniform();
      y[i] = g.Uniform();
    }
    for (uint32_t i = 0; i < kAirports; ++i) {
      for (uint32_t h = 0; h < kHubs; ++h) {
        hubs[i].push_back(static_cast<Code>(g.Below(kAirports)));
      }
    }
  }
  double Miles(Code o, Code d) const {
    return 2900.0 * std::hypot(x[o] - x[d], y[o] - y[d]) / std::sqrt(2.0);
  }
};

const Airports& Geometry() {
  static const Airports* geo = new Airports();
  return *geo;
}

}  // namespace

Relation GenerateFlights(size_t rows, uint64_t seed) {
  Relation rel;
  rel.names = {"fl_date", "origin", "dest", "fl_time", "distance"};
  rel.types = {AttributeType::kInteger, AttributeType::kCategorical,
               AttributeType::kCategorical, AttributeType::kNumeric,
               AttributeType::kNumeric};
  rel.domains = {Domain::Binned(0, 307, 307),
                 Domain::Categorical(Labels("A", kAirports)),
                 Domain::Categorical(Labels("A", kAirports)),
                 Domain::Binned(15.0, 480.0, 62),
                 Domain::Binned(0.0, 2916.0, 81)};
  rel.cols.assign(5, std::vector<Code>(rows));
  const Airports& geo = Geometry();
  const Zipf airport(kAirports, 1.1);
  const Zipf hub(kHubs, 1.0);
  Rng rng(seed * 0x2545f4914f6cdd1dull + 1);
  for (size_t r = 0; r < rows; ++r) {
    const Code o = static_cast<Code>(airport.Sample(rng));
    Code d = rng.Uniform() < 0.65 ? geo.hubs[o][hub.Sample(rng)]
                                  : static_cast<Code>(airport.Sample(rng));
    if (d == o) d = static_cast<Code>((o + 1 + rng.Below(3)) % kAirports);
    const double miles = geo.Miles(o, d) * (0.97 + 0.06 * rng.Uniform());
    const double minutes =
        30.0 + miles / 7.5 + 25.0 * (rng.Uniform() + rng.Uniform() - 1.0);
    rel.cols[0][r] = static_cast<Code>(rng.Below(307));
    rel.cols[1][r] = o;
    rel.cols[2][r] = d;
    rel.cols[3][r] = Clamp((minutes - 15.0) / (465.0 / 62), 62);
    rel.cols[4][r] = Clamp(miles / (2916.0 / 81), 81);
  }
  return rel;
}

Relation GenerateCarriers(size_t rows, uint64_t seed) {
  Relation rel;
  rel.names = {"origin", "carrier", "delay"};
  rel.types = {AttributeType::kCategorical, AttributeType::kCategorical,
               AttributeType::kNumeric};
  rel.domains = {Domain::Categorical(Labels("A", kAirports)),
                 Domain::Categorical(Labels("K", 16)),
                 Domain::Binned(0.0, 200.0, 40)};
  rel.cols.assign(3, std::vector<Code>(rows));
  const Zipf airport(kAirports, 1.1);
  const Zipf carrier(16, 0.8);
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 7);
  for (size_t r = 0; r < rows; ++r) {
    const Code o = static_cast<Code>(airport.Sample(rng));
    const Code c = rng.Uniform() < 0.6 ? static_cast<Code>(o % 16)
                                       : static_cast<Code>(carrier.Sample(rng));
    const double delay = 5.0 * c + 60.0 * rng.Uniform() * rng.Uniform();
    rel.cols[0][r] = o;
    rel.cols[1][r] = c;
    rel.cols[2][r] = Clamp(delay / 5.0, 40);
  }
  return rel;
}

Relation GenerateParticles(size_t rows_per_snapshot, uint64_t seed) {
  Relation rel;
  rel.names = {"density", "mass", "x", "y", "z", "grp", "type", "snapshot"};
  const std::vector<uint32_t> sizes = {58, 52, 21, 21, 21, 2, 3, 3};
  for (uint32_t s : sizes) {
    rel.types.push_back(AttributeType::kInteger);
    // Integer codes 0..s-1 read back through ReadCsv as s unit buckets
    // when both ends occur; the run checks that they do.
    rel.domains.push_back(Domain::Binned(0, s - 1 + (s - 1) * 1e-9, s));
  }
  const size_t rows = 3 * rows_per_snapshot;
  rel.cols.assign(sizes.size(), std::vector<Code>(rows));
  // Fixed halo centres; they drift with the snapshot.
  Rng g(kGeometrySeed + 3);
  std::vector<std::array<double, 3>> halos(24);
  for (auto& h : halos) h = {g.Uniform(), g.Uniform(), g.Uniform()};
  Rng rng(seed * 0xd1342543de82ef95ull + 3);
  for (size_t r = 0; r < rows; ++r) {
    const Code snap = static_cast<Code>(r / rows_per_snapshot);
    const bool clustered = rng.Uniform() < 0.35;
    const Code type = static_cast<Code>(rng.Below(10) < 6 ? 1 : rng.Below(3));
    double pos[3];
    double density;
    if (clustered) {
      const auto& h = halos[rng.Below(halos.size())];
      for (int k = 0; k < 3; ++k) {
        const double spread = 0.04 * (rng.Uniform() + rng.Uniform() - 1.0);
        pos[k] = std::fmod(h[k] + 0.03 * snap + spread + 1.0, 1.0);
      }
      density = 30.0 + 4.0 * snap + 18.0 * rng.Uniform() * rng.Uniform();
    } else {
      for (double& p : pos) p = rng.Uniform();
      density = 22.0 * rng.Uniform() * rng.Uniform();
    }
    // A thin uniform floor keeps every code (both ends included) present.
    if (rng.Uniform() < 0.01) density = 58.0 * rng.Uniform();
    double mass = 8.0 + 14.0 * type + 10.0 * rng.Uniform();
    if (rng.Uniform() < 0.01) mass = 52.0 * rng.Uniform();
    rel.cols[0][r] = Clamp(density, 58);
    rel.cols[1][r] = Clamp(mass, 52);
    for (int k = 0; k < 3; ++k) rel.cols[2 + k][r] = Clamp(pos[k] * 21, 21);
    rel.cols[5][r] = clustered ? 1 : 0;
    rel.cols[6][r] = type;
    rel.cols[7][r] = snap;
  }
  return rel;
}

Hist2 ExactHist2(const Relation& rel, size_t a, size_t b) {
  Hist2 h;
  h.a = a;
  h.b = b;
  h.size_b = rel.domains[b].size();
  h.cells.assign(static_cast<size_t>(rel.domains[a].size()) * h.size_b, 0);
  AddRows(rel, 0, rel.rows(), &h);
  return h;
}

void AddRows(const Relation& rel, size_t begin, size_t end, Hist2* hist) {
  const auto& ca = rel.cols[hist->a];
  const auto& cb = rel.cols[hist->b];
  for (size_t r = begin; r < end; ++r) {
    ++hist->cells[static_cast<size_t>(ca[r]) * hist->size_b + cb[r]];
  }
}

std::vector<PointQuery> DrawPointQueries(const Relation& rel,
                                         const Hist2& hist,
                                         PointQuery::Class cls, size_t count,
                                         Rng& rng) {
  std::vector<size_t> pool;
  const size_t cells = hist.cells.size();
  if (cls == PointQuery::Class::kHeavy) {
    std::vector<size_t> order(cells);
    for (size_t i = 0; i < cells; ++i) order[i] = i;
    size_t nonzero = 0;
    for (uint64_t c : hist.cells) nonzero += c > 0;
    const size_t top = std::clamp<size_t>(nonzero / 20, 1, kHeavyPool);
    std::partial_sort(order.begin(), order.begin() + top, order.end(),
                      [&](size_t x, size_t y) {
                        return hist.cells[x] != hist.cells[y]
                                   ? hist.cells[x] > hist.cells[y]
                                   : x < y;
                      });
    pool.assign(order.begin(), order.begin() + top);
  } else {
    // Nonexistent combinations only among values that occur on their own.
    std::vector<bool> row_seen(cells / hist.size_b), col_seen(hist.size_b);
    for (size_t i = 0; i < cells; ++i) {
      if (hist.cells[i] > 0) {
        row_seen[i / hist.size_b] = true;
        col_seen[i % hist.size_b] = true;
      }
    }
    for (size_t i = 0; i < cells; ++i) {
      const uint64_t c = hist.cells[i];
      const bool keep = cls == PointQuery::Class::kLight
                            ? (c >= kLightMin && c <= kLightMax)
                            : (c == 0 && row_seen[i / hist.size_b] &&
                               col_seen[i % hist.size_b]);
      if (keep) pool.push_back(i);
    }
  }
  std::vector<PointQuery> out;
  if (pool.empty()) return out;
  for (size_t k = 0; k < count; ++k) {
    const size_t cell = pool[rng.Below(pool.size())];
    const Code x = static_cast<Code>(cell / hist.size_b);
    const Code y = static_cast<Code>(cell % hist.size_b);
    PointQuery q;
    q.cls = cls;
    q.exact = hist.cells[cell];
    q.text = "COUNT(*) WHERE " + rel.names[hist.a] + " = " +
             rel.ValueText(hist.a, x) + " AND " + rel.names[hist.b] + " = " +
             rel.ValueText(hist.b, y);
    out.push_back(std::move(q));
  }
  return out;
}

// ------------------------------------------------------------ results

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  return 0.5 * (hi + *std::max_element(v.begin(), v.begin() + mid));
}

double FastDecile(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t k = (v.size() - 1) / 10;
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[k];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / v.size();
}

void Accuracy::Add(PointQuery::Class cls, double est, double exact) {
  const double sym = est + exact > 0 ? std::fabs(est - exact) / (est + exact)
                                     : 0.0;
  const double rel = std::fabs(est - exact) / exact;
  if (cls == PointQuery::Class::kHeavy) {
    heavy.push_back(sym);
    heavy_rel.push_back(rel);
  } else if (cls == PointQuery::Class::kLight) {
    light.push_back(sym);
    light_rel.push_back(rel);
  }
}

double Accuracy::Error() const {
  std::vector<double> all = heavy;
  all.insert(all.end(), light.begin(), light.end());
  return Mean(all);
}

void Accuracy::Finish(Report* report) const {
  if (Mean(heavy) > kHeavyErrorBound) {
    report->CheckFailed("heavy-hitter error above its bound");
  }
  if (Mean(light) > kLightErrorBound) {
    report->CheckFailed("light-hitter error above its bound");
  }
  report->Info("heavy_sym_err", Mean(heavy));
  report->Info("light_sym_err", Mean(light));
  report->Info("heavy_rel_err", Mean(heavy_rel));
  report->Info("light_rel_err", Mean(light_rel));
}

void Report::CheckFailed(const std::string& what) {
  correct_ = false;
  // The first few failures are enough to diagnose; the rest only count.
  if (reported_++ < 10) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

bool Report::Has(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.first == name) return true;
  }
  return false;
}

void Report::Info(const std::string& name, double value) {
  info_.push_back({name, value});
}

namespace {
std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

std::string Report::ResultJson() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics_[i].first + "\": {\"value\": " +
           Number(metrics_[i].second.first) + ", \"unit\": \"" +
           metrics_[i].second.second + "\"}";
  }
  return out + "}}";
}

std::string Report::InfoJson() const {
  std::string out = "{";
  for (size_t i = 0; i < info_.size(); ++i) {
    out += (i ? ", \"" : "\"") + info_[i].first + "\": " +
           Number(info_[i].second);
  }
  return out + "}";
}

// ------------------------------------------------------------ tracing

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int64_t Tracer::Begin(const std::string& name, int64_t parent,
                      uint64_t request) {
  const int64_t now = (Clock::now() - origin_).count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  const int64_t now = (Clock::now() - origin_).count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = now;
}

double Tracer::DurationUs(int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return 1e-3 * (spans_[id].end_ns - spans_[id].start_ns);
}

std::map<std::string, std::vector<double>> Tracer::SelfTimesUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) children[spans_[i].parent].push_back(i);
  }
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the child intervals, clipped to the parent.
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (size_t c : children[i]) {
      iv.push_back({std::max(s.start_ns, spans_[c].start_ns),
                    std::min(s.end_ns, spans_[c].end_ns)});
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[s.name].push_back(1e-3 * (s.end_ns - s.start_ns - covered));
  }
  return out;
}

void Tracer::Write(const std::string& path) const {
  std::string out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += "{\"id\": " + std::to_string(i) + ", \"name\": \"" + s.name +
             "\", \"start_ns\": " + std::to_string(s.start_ns) +
             ", \"end_ns\": " + std::to_string(s.end_ns) +
             ", \"parent\": " + std::to_string(s.parent) +
             ", \"request\": " + std::to_string(s.request) + "}\n";
    }
  }
  Must(Env::Default()->WriteFile(path, out, /*sync=*/false), "trace write");
  for (const auto& [name, self] : SelfTimesUs()) {
    std::fprintf(stderr, "span %-28s n=%-7zu self_p50_us=%.3f\n",
                 name.c_str(), self.size(), Median(self));
  }
}

// ------------------------------------------------------- counting Env

namespace {

class CountingFile : public WritableFile {
 public:
  CountingFile(std::unique_ptr<WritableFile> base, CountingEnv* env)
      : base_(std::move(base)), env_(env) {}
  Status Append(std::string_view data) override {
    env_->bytes_written += data.size();
    return base_->Append(data);
  }
  Status Sync() override {
    ++env_->syncs;
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  CountingEnv* env_;
};

}  // namespace

Result<std::unique_ptr<WritableFile>> CountingEnv::NewWritableFile(
    const std::string& path, bool truncate) {
  ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                   base_->NewWritableFile(path, truncate));
  return std::unique_ptr<WritableFile>(
      new CountingFile(std::move(file), this));
}

Status CountingEnv::ReadFile(const std::string& path, std::string* out) {
  Status s = base_->ReadFile(path, out);
  if (s.ok()) bytes_read += out->size();
  return s;
}

Status CountingEnv::Rename(const std::string& from, const std::string& to) {
  return base_->Rename(from, to);
}
Status CountingEnv::PublishDir(const std::string& tmp,
                               const std::string& dest) {
  ++syncs;  // PublishDir syncs the parent directory.
  return base_->PublishDir(tmp, dest);
}
Status CountingEnv::SyncDir(const std::string& path) {
  ++syncs;
  return base_->SyncDir(path);
}
Status CountingEnv::CreateDirs(const std::string& path) {
  return base_->CreateDirs(path);
}
Result<std::vector<std::string>> CountingEnv::List(const std::string& dir) {
  return base_->List(dir);
}
bool CountingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}
Status CountingEnv::RemoveFile(const std::string& path) {
  return base_->RemoveFile(path);
}
Status CountingEnv::RemoveAll(const std::string& path) {
  return base_->RemoveAll(path);
}
Result<uint64_t> CountingEnv::FileSize(const std::string& path) {
  return base_->FileSize(path);
}
Status CountingEnv::Truncate(const std::string& path, uint64_t size) {
  return base_->Truncate(path, size);
}
Status CountingEnv::LinkFile(const std::string& from, const std::string& to) {
  return base_->LinkFile(from, to);
}

// -------------------------------------------------------------- misc

uint64_t BytesUnder(const std::string& path) {
  std::error_code ec;
  if (fs::is_regular_file(path, ec)) return fs::file_size(path, ec);
  std::set<std::pair<uint64_t, uint64_t>> seen;
  uint64_t total = 0;
  for (auto it = fs::recursive_directory_iterator(path, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    struct stat st{};
    if (::lstat(it->path().c_str(), &st) != 0 || !S_ISREG(st.st_mode)) {
      continue;
    }
    if (seen.insert({st.st_dev, st.st_ino}).second) total += st.st_size;
  }
  return total;
}

std::vector<std::string> RenderResult(const QueryResult& result) {
  std::vector<std::string> lines;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "estimate %.17g %.17g",
                result.estimate.expectation, result.estimate.variance);
  lines.push_back(buf);
  if (result.has_bound) {
    std::snprintf(buf, sizeof(buf), "bound %.17g %.17g", result.bound_lo,
                  result.bound_hi);
    lines.push_back(buf);
  }
  for (const GroupCell& cell : result.cells) {
    std::snprintf(buf, sizeof(buf), "cell %llu %.17g %.17g",
                  static_cast<unsigned long long>(cell.code),
                  cell.estimate.expectation, cell.estimate.variance);
    lines.push_back(buf);
  }
  return lines;
}

AggregateQuery ToAggregate(const ParsedQuery& parsed,
                           const EntropyEngine& engine) {
  const AttrId a = parsed.agg_attr;
  switch (parsed.aggregate) {
    case ParsedQuery::Aggregate::kCount:
      break;
    case ParsedQuery::Aggregate::kSum:
      return AggregateQuery::Sum(a, BucketWeights(engine.domains()[a]),
                                 parsed.where);
    case ParsedQuery::Aggregate::kAvg:
      return AggregateQuery::Avg(a, BucketWeights(engine.domains()[a]),
                                 parsed.where);
    case ParsedQuery::Aggregate::kQuantile:
      return AggregateQuery::Quantile(a, BucketWeights(engine.domains()[a]),
                                      parsed.quantile, parsed.where);
    case ParsedQuery::Aggregate::kTopK:
      return AggregateQuery::TopK(a, parsed.top_k, parsed.where);
  }
  return AggregateQuery::Count(parsed.where);
}

AggregateQuery ToAggregate(const ParsedJoinQuery& parsed,
                           const EntropyEngine& engine) {
  if (parsed.aggregate == ParsedJoinQuery::Aggregate::kCount) {
    return AggregateQuery::JoinCount(parsed.left_join, parsed.right_join,
                                     parsed.left_where, parsed.right_where);
  }
  return AggregateQuery::JoinSum(
      parsed.agg_attr, BucketWeights(engine.domains()[parsed.agg_attr]),
      parsed.left_join, parsed.right_join, parsed.left_where,
      parsed.right_where);
}

double SourceReplay::total_us() const {
  double total = 0;
  for (double v : eval_us) total += v;
  for (double v : sample_us) total += v;
  return total;
}

SourceReplay ReplaySources(const EntropyEngine& engine,
                           const AggregateQuery& q, Tracer* tracer,
                           int64_t parent, uint64_t request) {
  SourceReplay out;
  std::vector<RouteDecision> per_shard;
  Must(engine.sharded()->Answer(q, &per_shard), "per-shard answer");
  ScopedSpan sources(tracer, "engine.sources", parent, request);
  for (size_t s = 0; s < per_shard.size(); ++s) {
    const RouteDecision& d = per_shard[s];
    if (d.pruned) continue;
    const SourceStore& shard = engine.sharded()->shard(s);
    if (d.from_sample) {
      ScopedSpan e(tracer, "sampling.estimate", sources.id(), request);
      Must(shard.sample_source(d.sample_index).Answer(q), "sample answer");
      out.sample_us.push_back(e.Close());
    } else {
      ScopedSpan e(tracer, "maxent.eval", sources.id(), request);
      Must(shard.summary(d.index).Answer(q), "summary answer");
      out.eval_us.push_back(e.Close());
    }
  }
  return out;
}

bool SplitResponse(const WireResponse& resp, std::vector<std::string>* lines,
                   bool* cached) {
  if (!resp.ok) return false;
  *lines = resp.lines;
  *cached = false;
  if (!lines->empty() && lines->back().rfind("cached ", 0) == 0) {
    *cached = lines->back() == "cached 1";
    lines->pop_back();
  }
  return true;
}

std::string CheckProperties(const QueryResult& result, double filter_count) {
  const QueryEstimate& est = result.estimate;
  if (!std::isfinite(est.expectation) || !std::isfinite(est.variance) ||
      est.expectation < 0 || est.variance < 0) {
    return "negative or non-finite estimate/variance";
  }
  if (result.has_bound &&
      !(result.bound_lo <= est.expectation &&
        est.expectation <= result.bound_hi)) {
    return "quantile bound does not bracket its estimate";
  }
  for (size_t i = 0; i < result.cells.size(); ++i) {
    const QueryEstimate& c = result.cells[i].estimate;
    if (c.expectation < 0 || c.variance < 0) return "negative top-k cell";
    if (i > 0 && c.expectation > result.cells[i - 1].estimate.expectation) {
      return "top-k cells not descending";
    }
    if (c.expectation > filter_count * (1 + 1e-9) + 1e-9) {
      return "top-k cell above its filter's COUNT";
    }
  }
  return "";
}

}  // namespace perfbench

namespace perfbench {

namespace {

/// The reference kernel's fixed inputs, the same in every run and every
/// seed: digits to parse, keys to count, arguments to exp and log.
struct ReferenceInputs {
  std::string text;
  std::vector<uint64_t> keys;
  std::vector<double> xs;
  ReferenceInputs() {
    Rng g(0x7e7e7e7eu);
    for (int i = 0; i < 100000; ++i) {
      text += std::to_string(g.Below(1000));
      text += (i % 8 == 7) ? '\n' : ',';
    }
    for (int i = 0; i < 100000; ++i) {
      keys.push_back(g.Below(30000) * 0x9e3779b97f4a7c15ull);
    }
    for (int i = 0; i < 100000; ++i) xs.push_back(g.Uniform() * 4 - 2);
  }
};

}  // namespace

double HostReference::Measure() {
  static const ReferenceInputs* in = new ReferenceInputs();
  const Clock::time_point start = Clock::now();
  // Parse: digits to integers, as a CSV reader does.
  std::vector<uint32_t> values;
  uint32_t v = 0;
  for (char ch : in->text) {
    if (ch >= '0' && ch <= '9') {
      v = v * 10 + static_cast<uint32_t>(ch - '0');
    } else {
      values.push_back(v);
      v = 0;
    }
  }
  // Count: a hash map of keys, as statistic selection does.
  std::unordered_map<uint64_t, uint32_t> counts;
  for (uint64_t k : in->keys) ++counts[k];
  // Evaluate: exp and log over doubles, as a model fit does.
  double acc = 0;
  for (int r = 0; r < 3; ++r) {
    for (double x : in->xs) acc += std::exp(x) / (1 + std::log1p(x * x));
  }
  const double seconds = SecondsBetween(start, Clock::now());
  // Keeps the work from being optimised away.
  static std::atomic<uint64_t> sink{0};
  sink += values.size() + counts.size() + static_cast<uint64_t>(acc);
  times_.push_back(seconds);
  return seconds;
}

double HostReference::MedianSeconds() const { return Median(times_); }

double HostReference::Scale() const {
  return times_.empty() ? 1.0 : kReferenceSeconds / MedianSeconds();
}

}  // namespace perfbench
