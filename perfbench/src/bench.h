// Shared pieces of the end-to-end benchmark: timing, seeded inputs,
// result reporting, span tracing, and a counting Env.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "entropydb.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using entropydb::Code;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process CPU time (user + system, all threads) in seconds.
double ProcessCpuSeconds();


// ------------------------------------------------------------- inputs

// The benchmark owns its generators, its random numbers and its error
// measure instead of using the library's (src/workload/, common/rng.h,
// workload/metrics.h): a change to the program must not shift the inputs
// the benchmark measures or the way it scores the answers.

/// splitmix64: every input the benchmark makes is drawn from one of these,
/// seeded from --seed, so a seed fixes the inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Uniform() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// A generated relation held as benchmark-owned codes: the exact answers
/// the checks compare against come from loops over these, never from the
/// program.
struct Relation {
  std::vector<std::string> names;
  std::vector<entropydb::AttributeType> types;
  std::vector<entropydb::Domain> domains;
  std::vector<std::vector<Code>> cols;

  size_t rows() const { return cols.empty() ? 0 : cols[0].size(); }
  size_t arity() const { return names.size(); }
  /// The value text a query or CSV row uses for `code` of attribute `a`:
  /// the label for categorical attributes, the code itself for integer
  /// ones, the bucket midpoint for numeric ones.
  std::string ValueText(size_t a, Code code) const;
  /// Rows [begin, end) as CSV text with a header line.
  std::string Csv(size_t begin, size_t end) const;
  /// The relation as a table with these exact codes and domains.
  std::shared_ptr<entropydb::Table> ToTable() const;
};

/// Flights-like relation: fl_date(307) origin(147) dest(147) fl_time(62)
/// distance(81). Zipf-skewed airports, per-origin hub routes, distance a
/// function of the route, flight time affine in distance. The geometry is
/// fixed; the seed draws the rows.
Relation GenerateFlights(size_t rows, uint64_t seed);
/// A second relation sharing `origin` with the flights one: origin(147)
/// carrier(16) delay(40), carrier depending on origin.
Relation GenerateCarriers(size_t rows, uint64_t seed);
/// Particles-like relation (three snapshots): density(58) mass(52)
/// x/y/z(21) grp(2) type(3) snapshot(3), every column an integer code.
Relation GenerateParticles(size_t rows_per_snapshot, uint64_t seed);

/// Exact joint counts of attributes (a, b): cell a_code * |b| + b_code.
struct Hist2 {
  size_t a = 0, b = 0;
  uint32_t size_b = 0;
  std::vector<uint64_t> cells;
  uint64_t at(Code x, Code y) const { return cells[x * size_b + y]; }
};
Hist2 ExactHist2(const Relation& rel, size_t a, size_t b);
/// Adds rows [begin, end) of `rel` into `hist` (same attributes).
void AddRows(const Relation& rel, size_t begin, size_t end, Hist2* hist);

/// A point COUNT on two attributes with its exact answer.
struct PointQuery {
  enum class Class { kHeavy, kLight, kNone };
  Class cls = Class::kHeavy;
  std::string text;
  uint64_t exact = 0;
};

/// Light hitters are combinations whose exact count is in this band:
/// existing but rare, the paper's light-hitter notion with a floor that
/// keeps the relative error finite-variance across seeds.
inline constexpr uint64_t kLightMin = 5;
inline constexpr uint64_t kLightMax = 40;
/// Heavy hitters are drawn from the most frequent 5% of the existing
/// combinations, at most this many.
inline constexpr size_t kHeavyPool = 200;

/// Draws `count` point queries of class `cls` from `hist`.
std::vector<PointQuery> DrawPointQueries(const Relation& rel,
                                         const Hist2& hist,
                                         PointQuery::Class cls, size_t count,
                                         Rng& rng);

// ------------------------------------------------------------ results

/// Correctness bounds on the mean symmetric error |est - exact| /
/// (est + exact) of point COUNTs; the symmetric form is bounded by 1, so a
/// few wildly overestimated light hitters cannot swamp the mean.
inline constexpr double kHeavyErrorBound = 0.5;
inline constexpr double kLightErrorBound = 0.6;
/// Bound on the mean plain relative error of the fused JOIN COUNTs.
inline constexpr double kJoinErrorBound = 0.25;

class Report;

/// Accuracy of point COUNTs against the benchmark's exact answers.
struct Accuracy {
  std::vector<double> heavy, light;          // symmetric errors
  std::vector<double> heavy_rel, light_rel;  // |est - exact| / exact
  void Add(PointQuery::Class cls, double est, double exact);
  /// count_rel_err: the mean symmetric error over heavy and light hitters.
  double Error() const;
  /// Checks the per-class bounds and reports the per-class figures.
  void Finish(Report* report) const;
};

/// The host's speed during a run, measured by a fixed reference kernel
/// that the benchmark owns: parsing digits, counting keys in a hash map
/// and evaluating exp and log, the kinds of work the program's hot paths
/// do. A run measures it once per round, between the rounds' timed
/// operations. On a shared machine other tenants slow whole minutes of a
/// run, and the kernel slows with the program, so run-level timings are
/// reported scaled to a host on which the kernel takes
/// kReferenceSeconds. The kernel does not depend on the program, so a
/// program change moves the scaled figures in full.
class HostReference {
 public:
  /// Runs the kernel once, records and returns its time in seconds.
  double Measure();
  /// Median kernel time of the run (0 before any Measure).
  double MedianSeconds() const;
  /// kReferenceSeconds / MedianSeconds(): multiplies a time measured in
  /// this run into a time on the reference host (1 before any Measure).
  double Scale() const;

 private:
  std::vector<double> times_;
};

/// The kernel's median time on the 4-vCPU VM where the benchmark was
/// calibrated, so scaled figures read close to seconds on that machine.
inline constexpr double kReferenceSeconds = 0.012;

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);
/// The 10th percentile of `v` (nearest rank; 0 when empty). flights-serve
/// reports its per-round figures this way.
double FastDecile(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// The run's outcome: correctness, operation counts, metrics.
class Report {
 public:
  /// Records a failed output check; the run is then not correct.
  void CheckFailed(const std::string& what);
  bool correct() const { return correct_; }
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  /// Informational figure printed to stderr, not part of the result line.
  void Info(const std::string& name, double value);
  std::string ResultJson() const;
  std::string InfoJson() const;

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  bool correct_ = true;
  size_t reported_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::pair<std::string, double>> info_;
};

// ------------------------------------------------------------ tracing

/// One traced call: the benchmark records a span around each call it makes
/// into a layer. Spans of one request share `request`.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// In-memory span store, written out when the run ends. Disabled tracers
/// record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  bool enabled() const { return enabled_; }
  int64_t Begin(const std::string& name, int64_t parent, uint64_t request);
  void End(int64_t id);
  /// Duration of a finished span in microseconds.
  double DurationUs(int64_t id) const;
  /// Self time per span name (duration minus the union of its children),
  /// in microseconds.
  std::map<std::string, std::vector<double>> SelfTimesUs() const;
  /// Writes the spans as JSON lines to `path` and prints each span name's
  /// count and median self time to stderr.
  void Write(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t parent,
             uint64_t request)
      : tracer_(tracer),
        id_(tracer->enabled() ? tracer->Begin(name, parent, request) : -1) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }
  /// Ends the span early and returns its duration in microseconds.
  double Close() {
    if (id_ < 0) return 0.0;
    if (!closed_) tracer_->End(id_);
    closed_ = true;
    return tracer_->DurationUs(id_);
  }

 private:
  Tracer* tracer_;
  int64_t id_;
  bool closed_ = false;
};

// ------------------------------------------------------- counting Env

/// Forwards to the default Env and counts bytes written, bytes read and
/// syncs, so storage work is measured at the Env boundary.
class CountingEnv : public entropydb::Env {
 public:
  entropydb::Result<std::unique_ptr<entropydb::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  entropydb::Status ReadFile(const std::string& path,
                             std::string* out) override;
  entropydb::Status Rename(const std::string& from,
                           const std::string& to) override;
  entropydb::Status PublishDir(const std::string& tmp,
                               const std::string& dest) override;
  entropydb::Status SyncDir(const std::string& path) override;
  entropydb::Status CreateDirs(const std::string& path) override;
  entropydb::Result<std::vector<std::string>> List(
      const std::string& dir) override;
  bool FileExists(const std::string& path) override;
  entropydb::Status RemoveFile(const std::string& path) override;
  entropydb::Status RemoveAll(const std::string& path) override;
  entropydb::Result<uint64_t> FileSize(const std::string& path) override;
  entropydb::Status Truncate(const std::string& path, uint64_t size) override;
  entropydb::Status LinkFile(const std::string& from,
                             const std::string& to) override;

  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> syncs{0};

 private:
  entropydb::Env* base_ = entropydb::Env::Default();
};

// ---------------------------------------------------------- workloads

/// Most rounds a traced run traces.
inline constexpr size_t kTracedRounds = 3;

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for this run (inside the checkout; removed at exit).
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string trace_path;
  Clock::time_point process_start;
};

void RunFlightsServe(const RunOptions& opts, Report* report);
void RunFlightsIngest(const RunOptions& opts, Report* report);
void RunParticlesSummary(const RunOptions& opts, Report* report);

/// Bytes of the regular files under `path` (a hard-linked file counted
/// once), or the size of `path` itself when it is a file.
uint64_t BytesUnder(const std::string& path);

/// The wire text of a result, rendered like the server does: an
/// `estimate` line, an optional `bound` line, one `cell` line per TOPK
/// cell, each number `%.17g`.
std::vector<std::string> RenderResult(const entropydb::QueryResult& result);

/// The aggregate a parsed query text asks for, with the bucket weights the
/// server and the CLI use.
entropydb::AggregateQuery ToAggregate(const entropydb::ParsedQuery& parsed,
                                      const entropydb::EntropyEngine& engine);
entropydb::AggregateQuery ToAggregate(
    const entropydb::ParsedJoinQuery& parsed,
    const entropydb::EntropyEngine& engine);

/// A STATS request.
inline entropydb::Request StatsRequest() {
  entropydb::Request r;
  r.type = entropydb::CommandType::kStats;
  return r;
}

/// Per-shard source calls behind one sharded COUNT/SUM/AVG answer,
/// replayed on the source each shard's router chose: a summary
/// (`maxent.eval` spans) or a sample (`sampling.estimate` spans).
struct SourceReplay {
  std::vector<double> eval_us, sample_us;
  double total_us() const;
};
SourceReplay ReplaySources(const entropydb::EntropyEngine& engine,
                           const entropydb::AggregateQuery& q, Tracer* tracer,
                           int64_t parent, uint64_t request);

/// Splits a wire response into its result lines and whether the server
/// marked it `cached 1`. False when the response is an error.
bool SplitResponse(const entropydb::WireResponse& resp,
                   std::vector<std::string>* lines, bool* cached);

/// Property checks every answer must pass: estimate and variance >= 0
/// and finite, a QUANTILE bound brackets its estimate, TOPK cells are
/// descending and none exceeds `filter_count` (the COUNT of the same
/// filter). Returns an empty string or what failed.
std::string CheckProperties(const entropydb::QueryResult& result,
                            double filter_count);

/// Aborts the run with a message on a failed library call: set-up errors
/// leave nothing to measure.
[[noreturn]] void Die(const std::string& what);
template <typename T>
T Must(entropydb::Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(*r);
}
inline void Must(const entropydb::Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
