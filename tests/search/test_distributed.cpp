// End-to-end protocol tests for the distributed search: result equivalence
// against the shared-memory baseline across policies and rank counts — the
// correctness property that makes the paper's performance comparison fair.
#include "search/distributed.hpp"

#include <gtest/gtest.h>

#include <map>

#include "theospec/fragmenter.hpp"

namespace lbe::search {
namespace {

struct Fixture {
  chem::ModificationSet mods = chem::ModificationSet::paper_default();
  digest::VariantParams variants;
  DistributedParams params;

  Fixture() {
    variants.max_mod_residues = 1;
    params.index.resolution = 0.01;
    params.index.max_fragment_mz = 3000.0;
    params.index.fragments.max_fragment_charge = 1;
    params.search.filter.shared_peak_min = 2;
    params.search.score.fragments = params.index.fragments;
    params.search.top_k = 3;
    params.result_batch = 2;  // small batches exercise the batching path
  }

  std::vector<std::string> database() const {
    return {"PEPTIDEK", "PEPTIDER", "MKWVTFISLLK", "GGGGGGK",
            "WWWWHHHHK", "AAAAAAGK", "CCCCCCK", "NNNNNNK",
            "MMMMMMK", "QQQQQQK", "HHHHHHK", "DDDDDDK"};
  }

  core::LbePlan plan(core::Policy policy, int ranks) const {
    core::LbeParams lbe;
    lbe.partition.policy = policy;
    lbe.partition.ranks = ranks;
    return core::LbePlan(database(), mods, variants, lbe);
  }

  std::vector<chem::Spectrum> queries() const {
    std::vector<chem::Spectrum> out;
    for (const auto& seq : database()) {
      out.push_back(theospec::theoretical_spectrum(
          chem::Peptide(seq), mods, params.index.fragments));
    }
    return out;
  }

  mpi::Cluster cluster(int ranks) const {
    mpi::ClusterOptions options;
    options.ranks = ranks;
    options.engine = mpi::Engine::kVirtual;
    options.measured_time = false;  // deterministic protocol tests
    options.cost = mpi::CostModel::zero();
    return mpi::Cluster(options);
  }
};

using PolicyRanks = std::tuple<core::Policy, int>;

class DistributedEquivalence : public ::testing::TestWithParam<PolicyRanks> {
 protected:
  Fixture fx_;
};

TEST_P(DistributedEquivalence, TopHitMatchesSharedBaseline) {
  const auto [policy, ranks] = GetParam();
  const auto plan = fx_.plan(policy, ranks);
  const auto queries = fx_.queries();

  auto cluster = fx_.cluster(ranks);
  const auto distributed =
      run_distributed_search(cluster, plan, queries, fx_.params);
  const auto shared = run_shared_baseline(plan, queries, fx_.params);

  ASSERT_EQ(distributed.results.size(), queries.size());
  ASSERT_EQ(shared.results.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto& d = distributed.results[q].top;
    const auto& s = shared.results[q].top;
    ASSERT_EQ(d.empty(), s.empty()) << "query " << q;
    if (s.empty()) continue;
    EXPECT_EQ(d[0].peptide, s[0].peptide) << "query " << q;
    EXPECT_EQ(d[0].shared_peaks, s[0].shared_peaks) << "query " << q;
    EXPECT_FLOAT_EQ(d[0].score, s[0].score) << "query " << q;
  }
}

TEST_P(DistributedEquivalence, TotalCandidatesMatchSharedBaseline) {
  const auto [policy, ranks] = GetParam();
  const auto plan = fx_.plan(policy, ranks);
  const auto queries = fx_.queries();

  auto cluster = fx_.cluster(ranks);
  const auto distributed =
      run_distributed_search(cluster, plan, queries, fx_.params);
  const auto shared = run_shared_baseline(plan, queries, fx_.params);

  std::uint64_t distributed_candidates = 0;
  for (const auto& work : distributed.work) {
    distributed_candidates += work.candidates;
  }
  EXPECT_EQ(distributed_candidates, shared.work.candidates);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyBySize, DistributedEquivalence,
    ::testing::Combine(::testing::Values(core::Policy::kChunk,
                                         core::Policy::kCyclic,
                                         core::Policy::kRandom),
                       ::testing::Values(1, 3, 4, 8)),
    [](const auto& info) {
      return std::string(core::policy_name(std::get<0>(info.param))) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

TEST(DistributedSearch, TruePeptideWinsGlobally) {
  Fixture fx;
  const auto plan = fx.plan(core::Policy::kCyclic, 4);
  const auto queries = fx.queries();
  auto cluster = fx.cluster(4);
  const auto report = run_distributed_search(cluster, plan, queries,
                                             fx.params);
  const auto db = fx.database();
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_FALSE(report.results[q].top.empty());
    const auto global = report.results[q].top[0].peptide;
    const auto loc = plan.locate_variant(global);
    EXPECT_EQ(plan.base_sequence(loc.base_id), db[q]) << "query " << q;
  }
}

TEST(DistributedSearch, SourceRankConsistentWithMapping) {
  Fixture fx;
  const auto plan = fx.plan(core::Policy::kRandom, 3);
  const auto queries = fx.queries();
  auto cluster = fx.cluster(3);
  const auto report = run_distributed_search(cluster, plan, queries,
                                             fx.params);
  for (const auto& result : report.results) {
    for (const auto& psm : result.top) {
      EXPECT_EQ(psm.source_rank, plan.mapping().rank_of(psm.peptide));
    }
  }
}

TEST(DistributedSearch, IndexEntriesMatchMapping) {
  Fixture fx;
  const auto plan = fx.plan(core::Policy::kCyclic, 4);
  auto cluster = fx.cluster(4);
  const auto report = run_distributed_search(cluster, plan, fx.queries(),
                                             fx.params);
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(report.index_entries[static_cast<std::size_t>(rank)],
              plan.mapping().rank_count(rank));
  }
  EXPECT_GT(report.mapping_bytes, 0u);
}

TEST(DistributedSearch, PhaseTimesMonotone) {
  Fixture fx;
  const auto plan = fx.plan(core::Policy::kCyclic, 3);
  auto cluster = fx.cluster(3);
  // Use a real cost model + prep so phases are strictly ordered.
  DistributedParams params = fx.params;
  params.prep_seconds = 0.125;
  const auto report = run_distributed_search(cluster, plan, fx.queries(),
                                             params);
  for (const auto& t : report.times) {
    EXPECT_GE(t.start, params.prep_seconds);  // prep charged before barrier
    EXPECT_GE(t.build_done, t.start);
    EXPECT_GE(t.query_start, t.build_done);
    EXPECT_GE(t.query_done, t.query_start);
    EXPECT_GE(t.finish, t.query_done);
  }
  EXPECT_GE(report.makespan, report.times[0].finish);
}

TEST(DistributedSearch, ClusterSizeMismatchRejected) {
  Fixture fx;
  const auto plan = fx.plan(core::Policy::kCyclic, 4);
  auto cluster = fx.cluster(3);
  EXPECT_THROW(
      run_distributed_search(cluster, plan, fx.queries(), fx.params),
      InvariantError);
}

constexpr core::Schedule kSchedules[] = {core::Schedule::kLbeStatic,
                                         core::Schedule::kStealing};

TEST(DistributedSearch, EmptyQuerySetProducesEmptyReport) {
  Fixture fx;
  const auto plan = fx.plan(core::Policy::kCyclic, 2);
  for (const core::Schedule schedule : kSchedules) {
    DistributedParams params = fx.params;
    params.schedule.schedule = schedule;
    auto cluster = fx.cluster(2);
    const auto report = run_distributed_search(cluster, plan, {}, params);
    EXPECT_TRUE(report.results.empty()) << core::schedule_name(schedule);
    for (const auto& work : report.work) {
      EXPECT_EQ(work.peaks_processed, 0u) << core::schedule_name(schedule);
    }
  }
}

TEST(DistributedSearch, HybridThreadsPerRankSameResults) {
  // §VIII future-work mode: per-rank thread pools change timing only.
  Fixture fx;
  const auto plan = fx.plan(core::Policy::kCyclic, 3);
  const auto queries = fx.queries();

  auto cluster_serial = fx.cluster(3);
  const auto serial = run_distributed_search(cluster_serial, plan, queries,
                                             fx.params);
  DistributedParams hybrid_params = fx.params;
  hybrid_params.threads_per_rank = 3;
  auto cluster_hybrid = fx.cluster(3);
  const auto hybrid = run_distributed_search(cluster_hybrid, plan, queries,
                                             hybrid_params);

  ASSERT_EQ(serial.results.size(), hybrid.results.size());
  for (std::size_t q = 0; q < serial.results.size(); ++q) {
    const auto& a = serial.results[q].top;
    const auto& b = hybrid.results[q].top;
    ASSERT_EQ(a.size(), b.size()) << q;
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].peptide, b[k].peptide);
      EXPECT_FLOAT_EQ(a[k].score, b[k].score);
    }
  }
  // Work counters are conserved regardless of the threading mode.
  std::uint64_t serial_postings = 0;
  std::uint64_t hybrid_postings = 0;
  for (const auto& w : serial.work) serial_postings += w.postings_touched;
  for (const auto& w : hybrid.work) hybrid_postings += w.postings_touched;
  EXPECT_EQ(serial_postings, hybrid_postings);
}

// Result equivalence across scheduling policies: stealing must produce
// *exactly* the results of the static schedule — same PSMs, same order —
// on both in-process engines, since the merge order never depends on which
// rank executed a batch.
class ScheduleEquivalence : public ::testing::TestWithParam<mpi::Engine> {
 protected:
  Fixture fx_;

  mpi::Cluster cluster(int ranks, std::vector<double> slowdown = {}) const {
    mpi::ClusterOptions options;
    options.ranks = ranks;
    options.engine = GetParam();
    options.measured_time = GetParam() == mpi::Engine::kVirtual;
    options.slowdown = std::move(slowdown);
    return mpi::Cluster(options);
  }

  static void expect_same_results(const DistributedReport& a,
                                  const DistributedReport& b) {
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t q = 0; q < a.results.size(); ++q) {
      const auto& ra = a.results[q].top;
      const auto& rb = b.results[q].top;
      ASSERT_EQ(ra.size(), rb.size()) << "query " << q;
      for (std::size_t k = 0; k < ra.size(); ++k) {
        EXPECT_EQ(ra[k].peptide, rb[k].peptide) << "query " << q;
        EXPECT_EQ(ra[k].shared_peaks, rb[k].shared_peaks) << "query " << q;
        EXPECT_FLOAT_EQ(ra[k].score, rb[k].score) << "query " << q;
        EXPECT_EQ(ra[k].source_rank, rb[k].source_rank) << "query " << q;
      }
    }
  }
};

TEST_P(ScheduleEquivalence, StealingMatchesStaticExactly) {
  const int ranks = 4;
  const auto plan = fx_.plan(core::Policy::kCyclic, ranks);
  const auto queries = fx_.queries();

  auto cluster_static = cluster(ranks);
  const auto baseline =
      run_distributed_search(cluster_static, plan, queries, fx_.params);

  DistributedParams steal_params = fx_.params;
  steal_params.schedule.schedule = core::Schedule::kStealing;
  auto cluster_steal = cluster(ranks);
  const auto stolen =
      run_distributed_search(cluster_steal, plan, queries, steal_params);

  expect_same_results(baseline, stolen);

  // Ledger invariant: every batch cell merged, so at least one execution
  // per cell; a tail-cut racing its victim may duplicate a batch (the
  // master deduplicates before merging), so `executed` can exceed the grid
  // but never undershoot it.
  const std::uint64_t batches_per_rank =
      (queries.size() + fx_.params.result_batch - 1) / fx_.params.result_batch;
  std::uint64_t executed = 0;
  for (const auto n : stolen.batches_executed) executed += n;
  EXPECT_GE(executed, batches_per_rank * static_cast<std::uint64_t>(ranks));
}

TEST_P(ScheduleEquivalence, StealingOnSlowedClusterMatchesStatic) {
  // A heterogeneous fleet (half the ranks 10x slower) forces real steals on
  // the virtual engine; results must not move. Eight copies of the query
  // set make each queue 48 batches deep, so the slow half is still far
  // behind when the fast half runs dry, even if a host hiccup stretches a
  // fast rank's measured time several-fold — a 6-batch queue at 3x does
  // not clear the 4-batch steal floor reliably.
  const int ranks = 4;
  const auto plan = fx_.plan(core::Policy::kCyclic, ranks);
  std::vector<chem::Spectrum> queries;
  for (int copy = 0; copy < 8; ++copy) {
    const auto once = fx_.queries();
    queries.insert(queries.end(), once.begin(), once.end());
  }

  auto cluster_static = cluster(ranks);
  const auto baseline =
      run_distributed_search(cluster_static, plan, queries, fx_.params);

  DistributedParams steal_params = fx_.params;
  steal_params.schedule.schedule = core::Schedule::kStealing;
  steal_params.schedule.steal_threshold = 1.0;
  auto cluster_steal = cluster(ranks, {1.0, 1.0, 10.0, 10.0});
  const auto stolen =
      run_distributed_search(cluster_steal, plan, queries, steal_params);

  expect_same_results(baseline, stolen);

  // lbe_static speaks the same queue protocol, but every grant is `done`:
  // nothing migrates and no cost model is built.
  for (const auto batches : baseline.batches_stolen) EXPECT_EQ(batches, 0u);
  EXPECT_TRUE(baseline.query_costs.empty());
  // Slowdown factors only bend the virtual engine's clocks, so only there
  // is the slow half guaranteed to fall behind far enough to be robbed.
  if (GetParam() == mpi::Engine::kVirtual) {
    std::uint64_t migrated = 0;
    for (const auto batches : stolen.batches_stolen) migrated += batches;
    EXPECT_GT(migrated, 0u);
  }
}

TEST_P(ScheduleEquivalence, CostModelRecordsCoverEveryQueryOnce) {
  // Any non-static schedule ships per-query predicted/observed cost
  // records: one per (index rank, query), regardless of who executed it.
  const int ranks = 3;
  const auto plan = fx_.plan(core::Policy::kCyclic, ranks);
  const auto queries = fx_.queries();

  DistributedParams params = fx_.params;
  params.schedule.schedule = core::Schedule::kStealing;
  auto steal_cluster = cluster(ranks);
  const auto report =
      run_distributed_search(steal_cluster, plan, queries, params);

  ASSERT_EQ(report.query_costs.size(), queries.size() * ranks);
  std::size_t i = 0;
  for (int rank = 0; rank < ranks; ++rank) {
    for (std::uint32_t q = 0; q < queries.size(); ++q, ++i) {
      EXPECT_EQ(report.query_costs[i].index_rank, rank);
      EXPECT_EQ(report.query_costs[i].query_id, q);
      EXPECT_GE(report.query_costs[i].predicted, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, ScheduleEquivalence,
                         ::testing::Values(mpi::Engine::kVirtual,
                                           mpi::Engine::kThreads),
                         [](const auto& info) {
                           return info.param == mpi::Engine::kVirtual
                                      ? "virtual_engine"
                                      : "threads_engine";
                         });

TEST(DistributedSearch, StealingSingleRankDegradesToStatic) {
  Fixture fx;
  const auto plan = fx.plan(core::Policy::kCyclic, 1);
  const auto queries = fx.queries();
  for (const core::Schedule schedule : kSchedules) {
    DistributedParams params = fx.params;
    params.schedule.schedule = schedule;
    auto cluster = fx.cluster(1);
    const auto report = run_distributed_search(cluster, plan, queries, params);
    ASSERT_EQ(report.results.size(), queries.size())
        << core::schedule_name(schedule);
    EXPECT_EQ(report.batches_stolen[0], 0u) << core::schedule_name(schedule);
  }
}

TEST(DistributedSearch, LargeBatchSizeSingleMessage) {
  Fixture fx;
  fx.params.result_batch = 10000;  // everything in one batch
  const auto plan = fx.plan(core::Policy::kCyclic, 3);
  const auto queries = fx.queries();
  auto cluster = fx.cluster(3);
  const auto report = run_distributed_search(cluster, plan, queries,
                                             fx.params);
  ASSERT_EQ(report.results.size(), queries.size());
  for (const auto& result : report.results) {
    EXPECT_FALSE(result.top.empty());
  }
}

}  // namespace
}  // namespace lbe::search
