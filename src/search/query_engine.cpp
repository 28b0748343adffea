#include "search/query_engine.hpp"

#include <algorithm>
#include <atomic>

#include "common/error.hpp"

namespace lbe::search {

bool psm_better(const Psm& a, const Psm& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.shared_peaks != b.shared_peaks) return a.shared_peaks > b.shared_peaks;
  return a.peptide < b.peptide;
}

QueryEngine::QueryEngine(const index::ChunkedIndex& index,
                         const chem::ModificationSet& mods,
                         const SearchParams& params)
    : index_(&index), mods_(&mods), params_(params) {
  LBE_CHECK(params_.top_k >= 1, "top_k must be >= 1");
}

QueryResult QueryEngine::search(const chem::Spectrum& raw,
                                std::uint32_t query_id,
                                index::QueryWork& work,
                                index::QueryArena& arena) const {
  const chem::Spectrum query = preprocess(raw, params_.preprocess);
  return search_preprocessed(query, query_id, work, arena);
}

QueryResult QueryEngine::search(const chem::Spectrum& raw,
                                std::uint32_t query_id,
                                index::QueryWork& work) const {
  return search(raw, query_id, work, internal_arena_);
}

QueryResult QueryEngine::search_preprocessed(const chem::Spectrum& query,
                                             std::uint32_t query_id,
                                             index::QueryWork& work,
                                             index::QueryArena& arena) const {
  QueryResult result;
  result.query_id = query_id;

  std::vector<index::Candidate>& candidates = arena.candidates;
  candidates.clear();
  index_->query(query, params_.filter, candidates, work, arena);
  result.candidates = candidates.size();
  work.candidates_scored += candidates.size();
  if (candidates.empty()) return result;

  // O(1)-per-candidate filter score; selection is the only O(n log k) step.
  const std::size_t keep =
      std::min<std::size_t>(params_.top_k, candidates.size());
  std::partial_sort(
      candidates.begin(),
      candidates.begin() + static_cast<std::ptrdiff_t>(keep),
      candidates.end(),
      [](const index::Candidate& a, const index::Candidate& b) {
        const double sa = filter_score(a.shared_peaks,
                                       static_cast<double>(a.matched_intensity));
        const double sb = filter_score(b.shared_peaks,
                                       static_cast<double>(b.matched_intensity));
        if (sa != sb) return sa > sb;
        if (a.shared_peaks != b.shared_peaks) {
          return a.shared_peaks > b.shared_peaks;
        }
        return a.peptide < b.peptide;
      });

  result.top.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    const auto& candidate = candidates[i];
    result.top.push_back(Psm{
        candidate.peptide, candidate.shared_peaks,
        static_cast<float>(filter_score(
            candidate.shared_peaks,
            static_cast<double>(candidate.matched_intensity)))});
  }

  // Optional full b/y-aware rescoring of the leading candidates. Only
  // meaningful on a complete (shared-memory) index: rank-local rescoring
  // would break cross-partition score comparability.
  if (params_.rescore_depth > 0) {
    const std::size_t depth =
        std::min<std::size_t>(params_.rescore_depth, result.top.size());
    for (std::size_t i = 0; i < depth; ++i) {
      const chem::Peptide peptide =
          index_->store().materialize(result.top[i].peptide);
      const ScoreBreakdown breakdown =
          score_candidate(query, peptide, *mods_, params_.score);
      result.top[i].score = static_cast<float>(breakdown.hyperscore);
    }
    std::sort(result.top.begin(), result.top.end(), psm_better);
  }
  return result;
}

std::vector<QueryResult> QueryEngine::search_all(
    const std::vector<chem::Spectrum>& raw_queries, index::QueryWork& work,
    ThreadPool* pool) const {
  std::vector<QueryResult> results(raw_queries.size());
  search_range(raw_queries, 0, raw_queries.size(), results, work, pool);
  return results;
}

void QueryEngine::search_range(const std::vector<chem::Spectrum>& raw_queries,
                               std::size_t lo, std::size_t hi,
                               std::vector<QueryResult>& results,
                               index::QueryWork& work, ThreadPool* pool,
                               std::vector<index::QueryWork>* per_query) const {
  LBE_CHECK(lo <= hi && hi <= raw_queries.size(), "bad query range");
  LBE_CHECK(results.size() >= hi, "result buffer too small for range");
  LBE_CHECK(per_query == nullptr || per_query->size() >= hi,
            "per-query work buffer too small for range");
  if (pool == nullptr || pool->size() == 1 || hi - lo < 2) {
    if (per_query == nullptr) {
      for (std::size_t i = lo; i < hi; ++i) {
        results[i] =
            search(raw_queries[i], static_cast<std::uint32_t>(i), work);
      }
      return;
    }
    for (std::size_t i = lo; i < hi; ++i) {
      (*per_query)[i] = index::QueryWork{};
      results[i] = search(raw_queries[i], static_cast<std::uint32_t>(i),
                          (*per_query)[i]);
      work += (*per_query)[i];
    }
    return;
  }

  // Hybrid mode: split the range over the pool. Every block runs the whole
  // per-query pipeline — preprocessing, filtration, scoring — against its
  // private arena; the shared index is read-only, so no lock is needed.
  // Work counters are per-block (or per-query) and merged at the end so
  // totals stay exact.
  std::vector<index::QueryWork> block_work(pool->size());
  std::vector<index::QueryArena> block_arenas(pool->size());
  std::atomic<std::size_t> block_counter{0};
  pool->parallel_for(lo, hi, [&](std::size_t block_lo, std::size_t block_hi) {
    const std::size_t block = block_counter.fetch_add(1);
    for (std::size_t i = block_lo; i < block_hi; ++i) {
      if (per_query != nullptr) {
        (*per_query)[i] = index::QueryWork{};
        results[i] = search(raw_queries[i], static_cast<std::uint32_t>(i),
                            (*per_query)[i], block_arenas[block]);
        block_work[block] += (*per_query)[i];
      } else {
        results[i] = search(raw_queries[i], static_cast<std::uint32_t>(i),
                            block_work[block], block_arenas[block]);
      }
    }
  });
  for (const auto& bw : block_work) work += bw;
}

}  // namespace lbe::search
