// Per-rank query engine: filtration + rescoring + top-k selection.
//
// This is the code every (simulated) machine runs against its partial index;
// the shared-memory baseline runs the identical engine against the global
// index, which is what makes cross-policy equivalence testable.
#pragma once

#include <cstdint>
#include <vector>

#include "chem/spectrum.hpp"
#include "common/thread_pool.hpp"
#include "index/chunked_index.hpp"
#include "index/query_arena.hpp"
#include "search/preprocess.hpp"
#include "search/scoring.hpp"

namespace lbe::search {

struct SearchParams {
  PreprocessParams preprocess;
  index::QueryParams filter;  ///< ΔF, Shpeak, ΔM
  ScoreParams score;
  std::uint32_t top_k = 5;  ///< PSMs reported per query
  /// Candidates re-scored with the full b/y-aware hyperscore (fragment
  /// regeneration) after filter-score ranking. 0 (default) keeps the O(1)
  /// filtration score — the partition-invariant configuration distributed
  /// runs must use: per-rank full rescoring of rank-local top candidates
  /// would make scores depend on where a peptide lives.
  std::uint32_t rescore_depth = 0;
};

/// One peptide-to-spectrum match (local ids; the master remaps to global).
/// `score` is the filter score — ln(shared!) + ln(1 + matched intensity) —
/// unless the engine ran with rescore_depth > 0, in which case the top
/// candidates carry the full b/y hyperscore instead.
struct Psm {
  LocalPeptideId peptide = kInvalidPeptideId;
  std::uint32_t shared_peaks = 0;
  float score = 0.0f;
};

struct QueryResult {
  std::uint32_t query_id = 0;
  std::vector<Psm> top;           ///< best-first, <= top_k entries
  std::uint64_t candidates = 0;   ///< cPSMs passing filtration
};

/// Deterministic PSM ordering: hyperscore desc, shared desc, id asc.
bool psm_better(const Psm& a, const Psm& b);

class QueryEngine {
 public:
  /// `index` and `mods` must outlive the engine.
  QueryEngine(const index::ChunkedIndex& index,
              const chem::ModificationSet& mods, const SearchParams& params);

  /// Searches one *raw* spectrum (preprocessing applied internally) using
  /// the caller's arena. Thread-safe: concurrent calls with distinct
  /// arenas are independent.
  QueryResult search(const chem::Spectrum& raw, std::uint32_t query_id,
                     index::QueryWork& work, index::QueryArena& arena) const;

  /// Convenience overload using the engine's internal arena. NOT
  /// thread-safe — the single-threaded drivers and tests use this.
  QueryResult search(const chem::Spectrum& raw, std::uint32_t query_id,
                     index::QueryWork& work) const;

  /// Searches a batch; when `pool` is non-null the loop fans out over it
  /// (the hybrid MPI+threads mode of the paper's future work).
  std::vector<QueryResult> search_all(
      const std::vector<chem::Spectrum>& raw_queries,
      index::QueryWork& work, ThreadPool* pool = nullptr) const;

  /// Searches the sub-range [lo, hi) of `raw_queries` into results[lo..hi).
  /// `results` must already span at least `hi` slots. The batched distributed
  /// runtime drives this per result batch so filtration of one batch can
  /// overlap delivery of the previous one. With a pool, each worker gets a
  /// private arena, so preprocessing, filtration and scoring all run in
  /// parallel; results are identical to the serial path.
  ///
  /// When `per_query` is non-null it must also span at least `hi` slots;
  /// slots [lo, hi) are overwritten with each query's own counters (the
  /// scheduling layer's observed-cost records) while `work` still receives
  /// the range total — counters are u64 sums, so totals are identical with
  /// or without the per-query split.
  void search_range(const std::vector<chem::Spectrum>& raw_queries,
                    std::size_t lo, std::size_t hi,
                    std::vector<QueryResult>& results, index::QueryWork& work,
                    ThreadPool* pool = nullptr,
                    std::vector<index::QueryWork>* per_query = nullptr) const;

  const SearchParams& params() const noexcept { return params_; }

 private:
  QueryResult search_preprocessed(const chem::Spectrum& query,
                                  std::uint32_t query_id,
                                  index::QueryWork& work,
                                  index::QueryArena& arena) const;

  const index::ChunkedIndex* index_;
  const chem::ModificationSet* mods_;
  SearchParams params_;
  // Backs the no-arena convenience overload only.
  mutable index::QueryArena internal_arena_;
};

}  // namespace lbe::search
