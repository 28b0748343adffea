#include "app/rank_programs.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "index/chunked_index.hpp"
#include "index/posting_codec.hpp"
#include "index/serialize.hpp"
#include "search/distributed.hpp"
#include "search/wire.hpp"
#include "simmpi/process.hpp"

namespace lbe::app {

namespace {

// The worker half of `lbectl search --backend process`: one forked process
// per non-master rank runs exactly this, against the same wire protocol the
// in-process engines speak (search/distributed.hpp).
void search_rank_program(mpi::Comm& comm, const mpi::Bytes& setup_payload) {
  const search::wire::SearchSetup setup =
      search::wire::decode_search_setup(setup_payload);

  // Pin the master's resolved SIMD level so every rank decodes postings
  // through the same kernel. The master ships a concrete level (never
  // "auto"); an unsupported request on a heterogeneous host degrades with
  // the usual notice — results are byte-identical at every level anyway.
  if (!setup.simd_level.empty()) {
    namespace codec = index::codec;
    codec::SimdLevel level = codec::SimdLevel::kAuto;
    if (!codec::parse_simd_level(setup.simd_level, level)) {
      throw CommError("master requested unknown simd level: " +
                      setup.simd_level);
    }
    codec::set_simd_level(level);
    if (level != codec::SimdLevel::kAuto &&
        codec::resolved_simd_level() != level) {
      log::warn("rank ", comm.rank(), ": simd level '", setup.simd_level,
                "' is not supported by this CPU; using '",
                codec::simd_level_name(codec::resolved_simd_level()), "'");
    }
  }

  search::WorkerSearchConfig config;
  config.search = setup.search;
  config.result_batch = setup.result_batch;
  config.threads_per_rank = setup.threads_per_rank;
  config.cost_model = setup.schedule.schedule == core::Schedule::kStealing;

  // mmap this rank's file from the shared bundle: co-located ranks mapping
  // the same read-only files share one physical page-cache copy, so the
  // fleet's aggregate resident index stays ~one bundle, not ranks× it.
  const auto index_source = [&setup](int rank) {
    search::RankIndex index;
    index.owned = index::ChunkedIndex::map_file(
        index::bundle_rank_path(setup.bundle_dir, rank), setup.mods,
        setup.index_params);
    index.view = index.owned.get();
    return index;
  };

  search::run_search_worker_rank(comm, setup.queries, setup.mods, config,
                                 index_source);
}

}  // namespace

void register_rank_programs() {
  mpi::register_rank_program(kSearchRankProgram, search_rank_program);
}

}  // namespace lbe::app
