#include "serve/service.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "search/report.hpp"

namespace lbe::serve {

std::shared_ptr<ServingContext> load_serving_context(
    const app::AppOptions& opts) {
  auto context = std::make_shared<ServingContext>();
  context->opts = opts;
  // Fill in place, in dependency order: the plan and the warm bundle both
  // keep pointers into context->db (the modification set), which is stable
  // from here on because the context never relocates.
  context->db = app::build_database(opts);
  context->plan = app::build_plan(context->db, opts);
  if (opts.index_dir.empty()) {
    auto bundle = app::build_index_bundle(context->plan, context->db, opts);
    context->warm =
        std::make_unique<index::IndexBundle>(std::move(bundle));
  } else {
    context->warm = app::try_load_warm_indexes(opts.index_dir, context->plan,
                                               context->db, opts);
    if (context->warm == nullptr) {
      throw ConfigError(
          "index bundle at '" + opts.index_dir +
          "' does not match this plan/configuration; refusing to serve "
          "a cold rebuild of something else (re-run lbectl prepare)");
    }
  }
  return context;
}

std::shared_ptr<ServingContext> build_serving_context_in_memory(
    const app::AppOptions& opts) {
  app::AppOptions local = opts;
  local.index_dir.clear();
  return load_serving_context(local);
}

SearchService::SearchService(std::shared_ptr<const ServingContext> context)
    : context_(std::move(context)) {
  LBE_CHECK(context_ != nullptr, "SearchService needs a serving context");
}

std::shared_ptr<const ServingContext> SearchService::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return context_;
}

void SearchService::replace(std::shared_ptr<const ServingContext> context) {
  LBE_CHECK(context != nullptr, "hot swap needs a serving context");
  std::lock_guard<std::mutex> lock(mutex_);
  context_ = std::move(context);
}

SearchResponse SearchService::search_batch(
    const std::vector<chem::Spectrum>& spectra, std::uint32_t start_id,
    ThreadPool* pool) const {
  const auto context = snapshot();
  const core::LbePlan& plan = *context->plan.plan;
  const index::IndexBundle& warm = *context->warm;
  const search::SearchParams& params = context->opts.search.search;
  const std::size_t num_queries = spectra.size();

  SearchResponse response;
  response.start_id = start_id;
  response.queries = num_queries;

  // The distributed master's merge: every rank searches the whole batch and
  // its local top lists map into the per-query slots.
  std::vector<search::GlobalQueryResult> merged(num_queries);
  for (int rank = 0; rank < warm.ranks(); ++rank) {
    // Engines are per-call (cheap: pointers + params + an arena) so
    // concurrent batches never share the non-thread-safe internal arena.
    const search::QueryEngine engine(*warm.per_rank[rank], plan.mods(),
                                     params);
    index::QueryWork work;
    const std::vector<search::QueryResult> local =
        engine.search_all(spectra, work, pool);
    for (std::size_t q = 0; q < num_queries; ++q) {
      response.candidates += local[q].candidates;
      merged[q].query_id = start_id + static_cast<std::uint32_t>(q);
      search::merge_rank_top(plan.mapping(), rank, local[q].top, merged[q]);
    }
  }
  search::finish_merge(merged, params.top_k);

  response.rows =
      search::resolve_psms(plan, merged, context->plan.decoy_bases);
  return response;
}

}  // namespace lbe::serve
