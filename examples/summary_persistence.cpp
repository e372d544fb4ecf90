// Offline/online split (Sec 5): build and persist a summary AND a
// multi-summary store, then answer queries from the files alone — no base
// data needed at query time. EntropyEngine::Open dispatches on the path:
// a file loads the single summary, a directory loads the routed store.
//
// Run:  ./build/examples/summary_persistence

#include <cstdio>
#include <filesystem>

#include "entropydb.h"

using namespace entropydb;

namespace {

template <typename T>
T Unwrap(Result<T> r) {
  if (!r.ok()) {
    std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).ValueOrDie();
}

}  // namespace

int main() {
  const std::string path = "/tmp/entropydb_flights.edb";
  const std::string store_dir = "/tmp/entropydb_flights.store";

  // ---- offline phase: data -> statistics -> solved summary -> file ----
  {
    FlightsConfig cfg;
    cfg.num_rows = 250'000;
    cfg.seed = 42;
    auto table = Unwrap(FlightsGenerator::Generate(cfg));
    AttrId time_a = Unwrap(table->schema().IndexOf("fl_time"));
    AttrId dist_a = Unwrap(table->schema().IndexOf("distance"));
    StatisticSelector sel(SelectionHeuristic::kComposite);
    auto summary = Unwrap(
        EntropySummary::Build(*table, sel.Select(*table, time_a, dist_a, 300)));
    Status s = summary->Save(path);
    if (!s.ok()) {
      std::fprintf(stderr, "save: %s\n", s.ToString().c_str());
      return 1;
    }
    // A whole store persists the same way, as a directory.
    StoreOptions sopts;
    sopts.num_summaries = 2;
    sopts.total_budget = 600;
    auto store = Unwrap(SourceStore::Build(*table, sopts));
    s = store->Save(store_dir);
    if (!s.ok()) {
      std::fprintf(stderr, "store save: %s\n", s.ToString().c_str());
      return 1;
    }
    FILE* f = std::fopen(path.c_str(), "rb");
    std::fseek(f, 0, SEEK_END);
    std::printf("offline: summary of %zu-row table saved to %s (%.1f KB)\n",
                table->num_rows(), path.c_str(),
                std::ftell(f) / 1024.0);
    std::fclose(f);
    // Table and summary go out of scope: nothing survives but the file.
  }

  // ---- online phase: file -> answers ---------------------------------
  {
    Timer load_timer;
    auto summary = Unwrap(EntropySummary::Load(path));
    std::printf("online: loaded in %.1f ms (n = %.0f, %zu attributes)\n",
                load_timer.ElapsedMillis(), summary->n(),
                summary->num_attributes());

    // Queries are expressed in code space against the stored domains; the
    // attribute names travel with the summary.
    const auto& names = summary->attr_names();
    std::printf("attributes:");
    for (const auto& nm : names) std::printf(" %s", nm.c_str());
    std::printf("\n\n");

    // COUNT of mid-range distances (codes 15..30 of the distance domain).
    CountingQuery q(summary->num_attributes());
    q.Where(4, AttrPredicate::Range(15, 30));
    Timer qt;
    auto est = Unwrap(summary->Answer(q));
    std::printf("COUNT(distance in buckets [15,30]) = %.0f +/- %.0f "
                "(answered in %.2f ms)\n",
                est.expectation, 1.96 * est.StdDev(), qt.ElapsedMillis());

    CountingQuery q2(summary->num_attributes());
    q2.Where(3, AttrPredicate::Range(0, 9));
    q2.Where(4, AttrPredicate::Range(40, 80));
    auto est2 = Unwrap(summary->Answer(q2));
    std::printf("COUNT(short time AND long distance) = %.2f (a "
                "near-impossible slice; rounds to %.0f)\n",
                est2.expectation, est2.RoundedCount());

    // The store restores the same way — without re-solving — and routes.
    Timer store_timer;
    auto engine = Unwrap(EntropyEngine::Open(store_dir));
    std::printf("\nstore: loaded %zu summaries in %.1f ms\n",
                engine->num_summaries(), store_timer.ElapsedMillis());
    RouteDecision dec;
    auto est3 =
        Unwrap(engine->Answer(AggregateQuery::Count(q2), &dec)).estimate;
    std::printf("COUNT(short time AND long distance) = %.2f via summary %zu"
                "%s\n",
                est3.expectation, dec.index,
                dec.fallback ? " (fallback)" : " (covering)");
  }
  std::remove(path.c_str());
  std::filesystem::remove_all(store_dir);
  return 0;
}
