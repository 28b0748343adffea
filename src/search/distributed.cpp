#include "search/distributed.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "search/load_model.hpp"
#include "search/wire.hpp"
#include "simmpi/bytes.hpp"

namespace lbe::search {

bool global_psm_better(const GlobalPsm& a, const GlobalPsm& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.shared_peaks != b.shared_peaks) return a.shared_peaks > b.shared_peaks;
  return a.peptide < b.peptide;
}

void merge_rank_top(const index::MappingTable& mapping, RankId index_rank,
                    const std::vector<Psm>& top, GlobalQueryResult& slot) {
  for (const Psm& psm : top) {
    slot.top.push_back(GlobalPsm{mapping.to_global(index_rank, psm.peptide),
                                 psm.shared_peaks, psm.score, index_rank});
  }
}

void finish_merge(std::vector<GlobalQueryResult>& merged, std::size_t top_k) {
  for (GlobalQueryResult& result : merged) {
    std::sort(result.top.begin(), result.top.end(), global_psm_better);
    if (result.top.size() > top_k) result.top.resize(top_k);
  }
}

namespace {

constexpr int kResultTag = 1;
constexpr int kStatsTag = 2;
constexpr int kStealRequestTag = 3;
constexpr int kStealGrantTag = 4;
constexpr int kStealTailTag = 5;

/// One rank's search machinery over one partial index. Under work stealing
/// a rank may hold several of these — its own plus any victim's whose
/// batches it claimed.
struct Executor {
  RankIndex index;
  std::unique_ptr<QueryEngine> engine;
  /// Predicted cost per query against this executor's index (empty under
  /// lbe_static). Predictions depend only on the index and the query set —
  /// never on execution — so they are computed once when the executor is
  /// built: for a rank's own index that is the build phase, keeping the
  /// per-query predict() walk (which re-preprocesses every spectrum) out
  /// of the gated query phase entirely. A thief pays one precompute per
  /// foreign index it steals from, amortized over every batch it claims.
  std::vector<double> predicted;
};

/// Per-rank execution state shared by the master's inline loop and the
/// worker body: executor cache plus full-size scratch rows for results,
/// per-query observed counters, and per-query predicted costs.
class TaskRunner {
 public:
  TaskRunner(const std::vector<chem::Spectrum>& queries,
             const chem::ModificationSet& mods, const SearchParams& search,
             bool cost_model, const RankIndexSource& source, ThreadPool* pool)
      : queries_(&queries),
        mods_(&mods),
        search_(search),
        cost_model_(cost_model),
        source_(&source),
        pool_(pool),
        results_(queries.size()),
        per_query_(queries.size()) {}

  Executor& executor_for(int index_rank) {
    const auto it = executors_.find(index_rank);
    if (it != executors_.end()) return it->second;
    Executor ex;
    ex.index = (*source_)(index_rank);
    ex.engine =
        std::make_unique<QueryEngine>(*ex.index.view, *mods_, search_);
    if (cost_model_) {
      // Built at most once per (executor, index) pair; deliberately skipped
      // under lbe_static — see WorkerSearchConfig::cost_model.
      const QueryCostModel model(*ex.index.view, search_.filter,
                                 search_.preprocess);
      ex.predicted.reserve(queries_->size());
      for (const chem::Spectrum& query : *queries_) {
        ex.predicted.push_back(model.predict(query));
      }
    }
    return executors_.emplace(index_rank, std::move(ex)).first->second;
  }

  /// Searches queries [lo, hi) against `index_rank`'s partial index into
  /// this runner's scratch rows; `work` accumulates the *executing* rank's
  /// total (stolen batches charge the thief, not the victim).
  void run_batch(int index_rank, std::size_t lo, std::size_t hi,
                 index::QueryWork& work) {
    Executor& ex = executor_for(index_rank);
    ex.engine->search_range(*queries_, lo, hi, results_, work, pool_,
                            &per_query_);
  }

  const std::vector<QueryResult>& results() const { return results_; }
  const std::vector<index::QueryWork>& per_query() const { return per_query_; }
  /// Predicted cost of query `i` against `index_rank`'s index; 0 under
  /// lbe_static. The executor must already exist (run_batch builds it).
  double predicted(int index_rank, std::size_t i) const {
    const std::vector<double>& p = executors_.at(index_rank).predicted;
    return p.empty() ? 0.0 : p[i];
  }

 private:
  const std::vector<chem::Spectrum>* queries_;
  const chem::ModificationSet* mods_;
  SearchParams search_;
  bool cost_model_;
  const RankIndexSource* source_;
  ThreadPool* pool_;
  std::map<int, Executor> executors_;
  std::vector<QueryResult> results_;
  std::vector<index::QueryWork> per_query_;
};

// One result batch on the wire: [index_rank][query_lo][count] then per query
// [query_id, predicted, work, psm_count, (local_id, shared, score)*].
// `index_rank` names the partial index the PSMs' local ids refer to — under
// stealing that is not necessarily the sender. `query_lo` identifies the
// batch cell (index_rank, query_lo / batch) so the master can deduplicate a
// victim/thief race before decoding the payload.
mpi::Bytes encode_task_batch(const TaskRunner& runner, int index_rank,
                             std::size_t lo, std::size_t hi) {
  mpi::Bytes bytes;
  mpi::ByteWriter writer(bytes);
  writer.pod(static_cast<std::int32_t>(index_rank));
  writer.pod(static_cast<std::uint64_t>(lo));
  writer.pod(static_cast<std::uint64_t>(hi - lo));
  for (std::size_t i = lo; i < hi; ++i) {
    const QueryResult& result = runner.results()[i];
    writer.pod(result.query_id);
    writer.pod(runner.predicted(index_rank, i));
    wire::write_query_work(writer, runner.per_query()[i]);
    writer.pod(static_cast<std::uint32_t>(result.top.size()));
    for (const Psm& psm : result.top) {
      writer.pod(psm.peptide);
      writer.pod(psm.shared_peaks);
      writer.pod(psm.score);
    }
  }
  return bytes;
}

/// Batch-cell identity read off the front of a result payload without
/// decoding it — what the stealing master's dedup grid keys on. A stolen
/// span may cover several consecutive batch cells (`count` queries from
/// `query_lo`); an owner's own results always cover exactly one.
struct TaskBatchHeader {
  std::int32_t index_rank = -1;
  std::uint64_t query_lo = 0;
  std::uint64_t count = 0;
};

TaskBatchHeader peek_task_batch(const mpi::Bytes& bytes) {
  mpi::ByteReader reader(bytes);
  TaskBatchHeader header;
  header.index_rank = reader.pod<std::int32_t>();
  header.query_lo = reader.pod<std::uint64_t>();
  header.count = reader.pod<std::uint64_t>();
  return header;
}

/// `from_query`: the first query id of the payload that this message won
/// the dedup race for. A stolen span's leading cells may have been executed
/// by their owner before the tail cut landed — those records are read past
/// (the wire format is sequential) but neither merged nor cost-recorded, so
/// every (index_rank, query) stays exactly-once.
void decode_task_batch_into(const mpi::Bytes& bytes, RankId executed_by,
                            int ranks, const index::MappingTable& mapping,
                            std::vector<GlobalQueryResult>& merged,
                            std::vector<QueryCostRecord>* costs,
                            std::uint32_t from_query = 0) {
  mpi::ByteReader reader(bytes);
  const auto index_rank = reader.pod<std::int32_t>();
  LBE_CHECK(index_rank >= 0 && index_rank < ranks,
            "result batch names an unknown index rank");
  reader.pod<std::uint64_t>();  // query_lo: cell identity, used by peek only
  const auto count = reader.pod<std::uint64_t>();
  std::vector<Psm> top;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto query_id = reader.pod<std::uint32_t>();
    const auto predicted = reader.pod<double>();
    const index::QueryWork work = wire::read_query_work(reader);
    const auto psm_count = reader.pod<std::uint32_t>();
    LBE_CHECK(query_id < merged.size(), "result for unknown query id");
    // Grown one read at a time: a corrupt count fails on the truncated
    // payload instead of sizing an allocation.
    top.clear();
    for (std::uint32_t k = 0; k < psm_count; ++k) {
      Psm& psm = top.emplace_back();
      psm.peptide = reader.pod<LocalPeptideId>();
      psm.shared_peaks = reader.pod<std::uint32_t>();
      psm.score = reader.pod<float>();
    }
    if (query_id < from_query) continue;
    if (costs != nullptr) {
      costs->push_back(
          QueryCostRecord{query_id, index_rank, executed_by, predicted, work});
    }
    merged[query_id].query_id = query_id;
    merge_rank_top(mapping, index_rank, top, merged[query_id]);
  }
}

}  // namespace

std::vector<double> DistributedReport::query_phase_seconds() const {
  std::vector<double> out;
  out.reserve(times.size());
  for (const auto& t : times) out.push_back(t.query_seconds());
  return out;
}

void run_search_worker_rank(mpi::Comm& comm,
                            const std::vector<chem::Spectrum>& queries,
                            const chem::ModificationSet& mods,
                            const WorkerSearchConfig& config,
                            const RankIndexSource& index_source) {
  LBE_CHECK(comm.rank() != 0, "rank 0 runs the master protocol, not this");
  LBE_CHECK(config.result_batch >= 1, "result_batch must be >= 1");
  const int rank = comm.rank();
  const std::size_t num_queries = queries.size();
  const std::uint32_t batch = config.result_batch;

  PhaseTimes times;
  index::QueryWork work;
  comm.barrier();
  times.start = comm.vclock();

  // [build] Partial index over this rank's LBE assignment — built, mapped
  // from the shared bundle, or adopted, depending on the backend.
  std::unique_ptr<ThreadPool> pool;
  if (config.threads_per_rank > 1) {
    pool = std::make_unique<ThreadPool>(config.threads_per_rank);
  }
  TaskRunner runner(queries, mods, config.search, config.cost_model,
                    index_source, pool.get());
  const Executor& own = runner.executor_for(rank);
  wire::RankStats stats;
  stats.index_entries = own.index.view->num_peptides();
  stats.index_bytes = own.index.view->memory_bytes();
  stats.mapped_bytes = own.index.view->mapped_bytes();
  times.build_done = comm.vclock();
  comm.barrier();
  times.query_start = comm.vclock();

  // [query] Owner-local claiming, the one protocol of both schedules: this
  // rank executes its own queue [head, tail) with no master round-trip,
  // shipping each result batch to the master as soon as it is complete —
  // the master learns progress from the result stream. When a thief is
  // granted a batch off our unstarted tail (stealing only), the master
  // mails a StealTailCut; we apply cuts between batches (monotonically,
  // min) and stop short of stolen work. A cut can race past us — then both
  // we and the thief run the batch and the master deduplicates the cell —
  // but it can never lose work.
  const std::size_t batches_per_rank = (num_queries + batch - 1) / batch;
  std::uint64_t head = 0;
  std::uint64_t tail = batches_per_rank;
  // The query phase ends when the last executed batch's results exist —
  // the release handshake after it (request, the master's serialized
  // done-grants) is shutdown. Folding it into query_done would bill every
  // rank for the slowest release instead of for query work.
  double last_batch_done = comm.vclock();
  while (head < tail) {
    // Without a blocking call in this loop, the serialized virtual engine
    // would run the whole queue in one physical slice and no cut could ever
    // arrive mid-queue; yield hands the token to ranks behind in virtual
    // time (a no-op on concurrent backends).
    comm.yield();
    while (comm.probe(0, kStealTailTag)) {
      const wire::StealTailCut cut =
          wire::decode_steal_tail_cut(comm.recv(0, kStealTailTag));
      tail = std::min(tail, cut.new_tail);
    }
    if (head >= tail) break;
    const std::uint64_t b = head++;
    const auto lo = static_cast<std::size_t>(b) * batch;
    const std::size_t hi = std::min<std::size_t>(lo + batch, num_queries);
    runner.run_batch(rank, lo, hi, work);
    comm.send(0, kResultTag, encode_task_batch(runner, rank, lo, hi));
    ++stats.batches_executed;
    last_batch_done = comm.vclock();
  }
  // Queue empty: turn thief. The first request tells the master this rank
  // is exhausted (no more cuts will be sent our way; any still in flight are
  // simply left unread). Each grant is one span claimed from the most-loaded
  // rank's tail; `done` — the only answer under lbe_static — releases us to
  // the stats send.
  for (;;) {
    comm.send(0, kStealRequestTag,
              wire::encode_steal_request(
                  wire::StealRequest{stats.batches_executed}));
    const wire::StealGrant grant =
        wire::decode_steal_grant(comm.recv(0, kStealGrantTag));
    if (grant.done) break;
    const auto lo = static_cast<std::size_t>(grant.query_lo);
    const auto hi = static_cast<std::size_t>(grant.query_hi);
    LBE_CHECK(hi <= num_queries, "steal grant out of query range");
    runner.run_batch(grant.index_rank, lo, hi, work);
    comm.send(0, kResultTag,
              encode_task_batch(runner, grant.index_rank, lo, hi));
    // A grant can span several batch cells (steal-half); the counters stay
    // in cell units so the ledger checks add up across schedules.
    const auto cells =
        static_cast<std::uint64_t>((hi - lo + batch - 1) / batch);
    stats.batches_executed += cells;
    stats.batches_stolen += cells;
    last_batch_done = comm.vclock();
  }
  times.query_done = last_batch_done;
  times.finish = comm.vclock();

  // [stats] Shipped after `finish` is captured, so the phase times a rank
  // reports never include the reporting itself.
  stats.times = times;
  stats.work = work;
  comm.send(0, kStatsTag, wire::encode_rank_stats(stats));
}

DistributedReport run_distributed_search(
    mpi::Transport& transport, const core::LbePlan& plan,
    const std::vector<chem::Spectrum>& queries,
    const DistributedParams& params) {
  const int p = plan.ranks();
  LBE_CHECK(transport.ranks() == p,
            "cluster size must match the partition plan");
  LBE_CHECK(params.result_batch >= 1, "result_batch must be >= 1");
  LBE_CHECK(params.preloaded == nullptr ||
                params.preloaded->size() == static_cast<std::size_t>(p),
            "preloaded index set must hold one index per rank");
  params.schedule.validate();

  DistributedReport report;
  report.times.assign(static_cast<std::size_t>(p), PhaseTimes{});
  report.work.assign(static_cast<std::size_t>(p), index::QueryWork{});
  report.index_bytes.assign(static_cast<std::size_t>(p), 0);
  report.mapped_bytes.assign(static_cast<std::size_t>(p), 0);
  report.index_entries.assign(static_cast<std::size_t>(p), 0);
  report.batches_executed.assign(static_cast<std::size_t>(p), 0);
  report.batches_stolen.assign(static_cast<std::size_t>(p), 0);
  report.mapping_bytes = plan.mapping().memory_bytes();

  const std::size_t num_queries = queries.size();
  const std::uint32_t batch = params.result_batch;
  const std::size_t batches_per_rank =
      num_queries == 0 ? 0 : (num_queries + batch - 1) / batch;
  const bool cost_model =
      params.schedule.schedule == core::Schedule::kStealing;

  // Builds (or adopts) rank `rank`'s partial index; shared by the master
  // below and the in-process worker ranks. Under stealing a thief calls it
  // for its victim's rank too — the cost of acquiring the foreign index is
  // charged to the thief's query phase, like a real remote fetch.
  const RankIndexSource index_source = [&](int rank) {
    RankIndex out;
    if (params.preloaded == nullptr) {
      index::PeptideStore store = plan.build_rank_store(rank);
      out.owned = std::make_unique<index::ChunkedIndex>(
          std::move(store), plan.mods(), params.index, params.chunking);
      out.view = out.owned.get();
    } else {
      out.view = (*params.preloaded)[static_cast<std::size_t>(rank)].get();
    }
    return out;
  };

  transport.run([&](mpi::Comm& comm) {
    const int rank = comm.rank();
    if (rank != 0) {
      // In-process worker ranks (the process backend's workers run the
      // same body via the registered rank program instead).
      WorkerSearchConfig config{params.search, batch, params.threads_per_rank,
                                cost_model};
      run_search_worker_rank(comm, queries, plan.mods(), config,
                             index_source);
      return;
    }

    auto& times = report.times[0];

    // [prep] Serial master work (grouping/partitioning happened outside;
    // its measured cost is charged here so total-time figures include it).
    if (params.prep_seconds > 0.0) {
      comm.charge(params.prep_seconds);
    }
    comm.barrier();
    times.start = comm.vclock();

    // [build] The master's own partial index (and engine/cost model).
    std::unique_ptr<ThreadPool> pool;
    if (params.threads_per_rank > 1) {
      pool = std::make_unique<ThreadPool>(params.threads_per_rank);
    }
    TaskRunner runner(queries, plan.mods(), params.search, cost_model,
                      index_source, pool.get());
    const Executor& own = runner.executor_for(0);
    report.index_entries[0] = own.index.view->num_peptides();
    report.index_bytes[0] = own.index.view->memory_bytes();
    report.mapped_bytes[0] = own.index.view->mapped_bytes();
    times.build_done = comm.vclock();
    comm.barrier();
    times.query_start = comm.vclock();

    std::vector<GlobalQueryResult> merged(num_queries);
    std::vector<QueryCostRecord>* costs =
        cost_model ? &report.query_costs : nullptr;
    auto& work = report.work[0];
    std::vector<std::optional<wire::RankStats>> stashed_stats(
        static_cast<std::size_t>(p));

    // [query] Owner-local claiming, the one protocol of both schedules.
    // Ranks execute their own queues without any master round-trip; the
    // master's ledger tracks, per rank v, the unstolen tail `tail[v]` (exact
    // — only the master cuts it) and how many of v's own batches have been
    // *received* (`results_own[v]`, a conservative progress floor, since
    // results in flight undercount). An idle rank sends one StealRequest;
    // under lbe_static it is answered `done` at once, under stealing it is
    // fed batches off the most-loaded rank's tail, one grant per result,
    // until no backlog clears the threshold. Each grant to a worker victim
    // is announced to that victim with a StealTailCut; a cut that loses the
    // race costs one duplicated batch, which the per-cell dedup grid below
    // absorbs before decode — so query_costs and merged PSMs stay
    // exactly-once per (index_rank, batch) cell.
    std::vector<std::uint64_t> tail(static_cast<std::size_t>(p),
                                    batches_per_rank);
    std::vector<std::uint64_t> results_own(static_cast<std::size_t>(p), 0);
    std::vector<char> exhausted(static_cast<std::size_t>(p), 0);
    std::vector<std::vector<char>> cell_merged(
        static_cast<std::size_t>(p), std::vector<char>(batches_per_rank, 0));
    const std::uint64_t total_cells =
        static_cast<std::uint64_t>(p) * batches_per_rank;
    std::uint64_t merged_cells = 0;
    int workers_released = 0;

    // Estimated unfinished own-queue depth of rank v: a slight overestimate
    // (in-flight results), which only errs toward stealing a batch the owner
    // just finished, i.e. a deduplicated no-op, never toward losing work.
    // The master is exhausted before it serves any request, so it is never
    // a victim.
    auto backlog = [&](int v) -> std::uint64_t {
      const auto vv = static_cast<std::size_t>(v);
      if (exhausted[vv]) return 0;
      return tail[vv] > results_own[vv] ? tail[vv] - results_own[vv] : 0;
    };

    auto claim_for = [&](int requester) {
      wire::StealGrant grant;
      grant.done = true;
      if (params.schedule.schedule == core::Schedule::kLbeStatic) {
        return grant;
      }
      // Steal from the most-loaded rank's unstarted tail — but only when
      // that backlog clears the threshold relative to the mean remaining
      // load, with a floor of 4: a victim's last pending batch is likely
      // already being computed by its owner, and a worker's backlog is read
      // through in-flight results, which overstate it by a message or two
      // near the end. The floor keeps a balanced run — where a rank can
      // transiently look a few batches behind from timing noise alone —
      // from churning batches that their owner would finish sooner than a
      // grant round trip anyway.
      int victim = -1;
      std::uint64_t most = 0;
      std::uint64_t total = 0;
      for (int v = 0; v < p; ++v) {
        const std::uint64_t rem = backlog(v);
        total += rem;
        if (rem > most) {
          most = rem;
          victim = v;
        }
      }
      const double mean = static_cast<double>(total) / static_cast<double>(p);
      if (victim < 0 || victim == requester ||
          static_cast<double>(most) <
              std::max(4.0, params.schedule.steal_threshold * mean)) {
        return grant;
      }
      // Steal-half, capped: one grant moves up to half the victim's
      // unstarted tail so a round trip to the master amortizes over several
      // batches — the serving master, not the thief's compute, is the
      // scarce resource when many ranks go idle together.
      const auto v = static_cast<std::size_t>(victim);
      const std::uint64_t take =
          std::max<std::uint64_t>(1, std::min<std::uint64_t>(most / 2, 4));
      tail[v] -= take;
      const std::uint64_t b_lo = tail[v];
      comm.send(victim, kStealTailTag,
                wire::encode_steal_tail_cut(wire::StealTailCut{b_lo}));
      grant.done = false;
      grant.index_rank = victim;
      grant.query_lo = b_lo * batch;
      grant.query_hi =
          std::min<std::uint64_t>((b_lo + take) * batch, num_queries);
      return grant;
    };

    auto serve_request = [&](int src, const mpi::Bytes& payload) {
      wire::decode_steal_request(payload);  // shape check only
      exhausted[static_cast<std::size_t>(src)] = 1;
      const wire::StealGrant grant = claim_for(src);
      if (grant.done) ++workers_released;
      comm.send(src, kStealGrantTag, wire::encode_steal_grant(grant));
    };

    // Worker results are only *peeked* during the query loop — enough for
    // the ledger and the dedup grid. The expensive wire decode is deferred
    // to the merge epilogue after query_done, so the query phase reflects
    // scheduling rather than the master's serial decode bill.
    struct PendingResult {
      int src;
      std::uint32_t from_query;  ///< dedup watermark for the decode
      mpi::Bytes payload;
    };
    std::vector<PendingResult> pending;
    pending.reserve(static_cast<std::size_t>(p - 1) * batches_per_rank);

    auto on_result = [&](int src, mpi::Bytes payload) {
      const TaskBatchHeader header = peek_task_batch(payload);
      LBE_CHECK(header.index_rank >= 0 && header.index_rank < p,
                "result batch names an unknown index rank");
      const std::uint64_t b_lo = header.query_lo / batch;
      const std::uint64_t b_hi =
          header.count == 0 ? b_lo + 1
                            : (header.query_lo + header.count - 1) / batch + 1;
      LBE_CHECK(b_lo < b_hi && b_hi <= batches_per_rank,
                "result batch out of grid range");
      const auto v = static_cast<std::size_t>(header.index_rank);
      // Owner results arrive in batch order (per-pair FIFO) and always cover
      // one cell, so this counts each own cell at most once and is the
      // ledger's progress floor for rank v.
      if (header.index_rank == src) ++results_own[v];
      // Claim the span's unmerged cells. An owner racing a tail cut wins a
      // *prefix* of the span (it executes its queue in order), so the
      // unclaimed part is a contiguous tail and one watermark suffices.
      std::uint64_t first_unmerged = b_hi;
      for (std::uint64_t b = b_lo; b < b_hi; ++b) {
        if (!cell_merged[v][b]) {
          first_unmerged = b;
          break;
        }
      }
      if (first_unmerged == b_hi) return;  // benign duplicate, fully lost
      for (std::uint64_t b = first_unmerged; b < b_hi; ++b) {
        LBE_CHECK(!cell_merged[v][b],
                  "non-contiguous dedup claim in a stolen span");
        cell_merged[v][b] = 1;
        ++merged_cells;
      }
      pending.push_back(PendingResult{
          src, static_cast<std::uint32_t>(first_unmerged * batch),
          std::move(payload)});
    };

    // Drain already-arrived results without blocking — the ledger's progress
    // floor must be as fresh as possible *before* any grant decision, or a
    // balanced run reads laggy results_own as backlog and churns duplicated
    // batches.
    auto drain_results = [&]() {
      while (comm.probe(mpi::kAnySource, kResultTag)) {
        mpi::RecvInfo info;
        mpi::Bytes payload = comm.recv(mpi::kAnySource, kResultTag, &info);
        on_result(info.src, std::move(payload));
      }
    };

    // Phase 1: the master's own queue, same owner-local rule as the
    // workers'. Its rows stay in the runner's scratch until the merge
    // epilogue. Requests and results queue in the mailbox until phase 2:
    // serving mid-queue would interleave drains and grant decisions — real
    // metered work — between the master's own batches, billing its query
    // phase (and, through release waits, every rank's) for merge work.
    // Thieves lose at most one master-batch of grant latency, and only when
    // the master is among the slowest ranks. So nobody cuts the master's
    // tail: it executes every one of its own cells. The yield lets ranks
    // that are behind in virtual time run between batches on the serialized
    // engine (a no-op on concurrent backends).
    double last_batch_done = comm.vclock();
    for (std::uint64_t b = 0; b < batches_per_rank; ++b) {
      comm.yield();
      const auto lo = static_cast<std::size_t>(b) * batch;
      const std::size_t hi = std::min<std::size_t>(lo + batch, num_queries);
      runner.run_batch(0, lo, hi, work);
      cell_merged[0][b] = 1;
      ++merged_cells;
      ++report.batches_executed[0];
      last_batch_done = comm.vclock();
    }
    exhausted[0] = 1;
    times.query_done = last_batch_done;

    // Phase 2: the master is a pure grant server. It does NOT turn thief: a
    // stolen batch would pin it for a full compute while every idle thief's
    // request queues behind it — grant latency is worth more than one extra
    // fast rank of capacity. A worker's stats cannot overtake its own sends
    // (per-pair FIFO) but may arrive before its release is processed —
    // stash them.
    while (workers_released < p - 1) {
      mpi::RecvInfo info;
      mpi::Bytes payload = comm.recv(mpi::kAnySource, mpi::kAnyTag, &info);
      if (info.tag == kStealRequestTag) {
        // The blocking recv jumped the clock to the request's send time;
        // results that became visible with it must feed the ledger before
        // the grant decision.
        drain_results();
        serve_request(info.src, payload);
      } else if (info.tag == kResultTag) {
        on_result(info.src, std::move(payload));
      } else if (info.tag == kStatsTag) {
        stashed_stats[static_cast<std::size_t>(info.src)] =
            wire::decode_rank_stats(payload);
      } else {
        throw CommError("unexpected tag during steal drain");
      }
    }

    // [merge] Straggler results (every worker is already released, so only
    // kResultTag can still be pending besides stats), then the master's own
    // rows and the deferred wire decodes, each payload freed once folded.
    while (merged_cells < total_cells) {
      mpi::RecvInfo info;
      mpi::Bytes payload = comm.recv(mpi::kAnySource, kResultTag, &info);
      on_result(info.src, std::move(payload));
    }
    for (std::size_t i = 0; i < num_queries; ++i) {
      const QueryResult& result = runner.results()[i];
      if (costs != nullptr) {
        costs->push_back(QueryCostRecord{result.query_id, 0, 0,
                                         runner.predicted(0, i),
                                         runner.per_query()[i]});
      }
      merged[result.query_id].query_id = result.query_id;
      merge_rank_top(plan.mapping(), 0, result.top, merged[result.query_id]);
    }
    for (PendingResult& result : pending) {
      decode_task_batch_into(result.payload, result.src, p, plan.mapping(),
                             merged, costs, result.from_query);
      mpi::Bytes().swap(result.payload);
    }
    finish_merge(merged, params.search.top_k);
    report.results = std::move(merged);
    times.finish = comm.vclock();

    // [stats] Collect every worker's phase/work accounting. Received after
    // `finish` so the master's own phase times stay merge-bounded; workers
    // sent these after capturing their own `finish` for the same reason.
    for (int src = 1; src < p; ++src) {
      const auto slot = static_cast<std::size_t>(src);
      const wire::RankStats stats =
          stashed_stats[slot].has_value()
              ? *stashed_stats[slot]
              : wire::decode_rank_stats(comm.recv(src, kStatsTag));
      report.times[slot] = stats.times;
      report.work[slot] = stats.work;
      report.index_bytes[slot] = stats.index_bytes;
      report.mapped_bytes[slot] = stats.mapped_bytes;
      report.index_entries[slot] = stats.index_entries;
      report.batches_executed[slot] = stats.batches_executed;
      report.batches_stolen[slot] = stats.batches_stolen;
    }
  });

  report.makespan = 0.0;
  for (const auto& t : report.times) {
    report.makespan = std::max(report.makespan, t.finish);
  }
  // Executor- and arrival-order-independent record stream for metrics.
  std::sort(report.query_costs.begin(), report.query_costs.end(),
            [](const QueryCostRecord& a, const QueryCostRecord& b) {
              if (a.index_rank != b.index_rank) {
                return a.index_rank < b.index_rank;
              }
              return a.query_id < b.query_id;
            });
  return report;
}

SharedBaselineReport run_shared_baseline(
    const core::LbePlan& plan, const std::vector<chem::Spectrum>& queries,
    const DistributedParams& params) {
  SharedBaselineReport report;

  Stopwatch build_timer;
  const index::ChunkedIndex global(plan.build_global_store(), plan.mods(),
                                   params.index, params.chunking);
  report.build_seconds = build_timer.seconds();
  report.index_bytes = global.memory_bytes();

  const QueryEngine engine(global, plan.mods(), params.search);
  Stopwatch query_timer;
  report.results.resize(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const QueryResult local =
        engine.search(queries[q], static_cast<std::uint32_t>(q), report.work);
    auto& slot = report.results[q];
    slot.query_id = local.query_id;
    for (const Psm& psm : local.top) {
      // Global store: local ids are already global ids.
      slot.top.push_back(
          GlobalPsm{psm.peptide, psm.shared_peaks, psm.score, 0});
    }
  }
  report.query_seconds = query_timer.seconds();
  return report;
}

}  // namespace lbe::search
