// Daemon-side search service: the resident index set and the batch search
// it answers requests with.
//
// A `ServingContext` pins one generation of everything a search needs —
// options, database, plan, and the per-rank warm indexes (mmapped from a
// v3 bundle, or built in memory for tests/benches). `SearchService` holds
// the current generation behind a shared_ptr: workers snapshot it per
// batch, and a SIGHUP hot swap just replaces the pointer — in-flight
// batches finish on the old mapping, which is torn down when the last
// snapshot drops.
//
// `search_batch` reproduces the one-shot distributed merge bit for bit:
// every rank's engine searches the whole batch against its partial index,
// local ids map to global through the plan's mapping table, and the merged
// list per query is sorted with the master's `global_psm_better` total
// order and truncated to top_k, then resolved into report rows.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "app/pipeline.hpp"
#include "common/thread_pool.hpp"
#include "serve/protocol.hpp"

namespace lbe::serve {

/// One generation of serving state. Non-movable: the plan and the warm
/// indexes borrow `db.mods` by address, so the struct lives on the heap and
/// never relocates.
struct ServingContext {
  app::AppOptions opts;
  app::DatabaseBundle db;
  app::PlanBundle plan;
  std::unique_ptr<index::IndexBundle> warm;

  ServingContext() = default;
  ServingContext(const ServingContext&) = delete;
  ServingContext& operator=(const ServingContext&) = delete;

  std::uint32_t top_k() const noexcept {
    return opts.search.search.top_k;
  }
};

/// Builds the context the daemon serves: database (plan file > FASTA >
/// synthetic), LBE plan, and the warm bundle mapped from `opts.index_dir`.
/// Unlike one-shot search, a bundle
/// mismatch is fatal here — a daemon must never silently fall back to a
/// cold rebuild of something else than what the operator pointed it at.
std::shared_ptr<ServingContext> load_serving_context(
    const app::AppOptions& opts);

/// Same context, but the per-rank indexes are built in memory from the
/// plan instead of loaded from disk — benches and tests skip the bundle
/// round-trip.
std::shared_ptr<ServingContext> build_serving_context_in_memory(
    const app::AppOptions& opts);

/// Thread-safe holder of the current ServingContext plus the batch search.
class SearchService {
 public:
  explicit SearchService(std::shared_ptr<const ServingContext> context);

  std::shared_ptr<const ServingContext> snapshot() const;

  /// Atomically replaces the serving generation (SIGHUP hot swap).
  void replace(std::shared_ptr<const ServingContext> context);

  /// Searches one batch against the current generation. Queries are
  /// numbered start_id, start_id+1, ... so daemon psms.tsv rows match the
  /// one-shot pipeline's 0-based query ids when clients batch in order.
  /// `pool`, when non-null, fans each rank's batch loop out over worker
  /// threads (identical results, per-worker arenas).
  SearchResponse search_batch(const std::vector<chem::Spectrum>& spectra,
                              std::uint32_t start_id,
                              ThreadPool* pool = nullptr) const;

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const ServingContext> context_;
};

}  // namespace lbe::serve
