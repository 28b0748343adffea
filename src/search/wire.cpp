#include "search/wire.hpp"

#include "common/error.hpp"

namespace lbe::search::wire {

namespace {

// Stops a small payload from *claiming* enormous element counts; the byte
// content itself is already bounded by the transport's frame-size check.
constexpr std::uint64_t kMaxWireQueries = 1u << 20;
constexpr std::uint64_t kMaxWireMods = 1u << 12;

void require(bool condition, const char* message) {
  if (!condition) throw CommError(message);
}

void write_fragment_params(mpi::ByteWriter& writer,
                           const theospec::FragmentParams& params) {
  writer.pod(params.max_fragment_charge);
  writer.pod(params.a_ions);
  writer.pod(params.neutral_loss_nh3);
  writer.pod(params.neutral_loss_h2o);
}

theospec::FragmentParams read_fragment_params(mpi::ByteReader& reader) {
  theospec::FragmentParams params;
  params.max_fragment_charge = reader.pod<Charge>();
  params.a_ions = reader.pod<bool>();
  params.neutral_loss_nh3 = reader.pod<bool>();
  params.neutral_loss_h2o = reader.pod<bool>();
  return params;
}

}  // namespace

void write_spectrum(mpi::ByteWriter& writer, const chem::Spectrum& spectrum) {
  writer.pod(spectrum.scan_id);
  writer.pod(spectrum.precursor.mz);
  writer.pod(spectrum.precursor.charge);
  writer.pod(spectrum.precursor.neutral_mass);
  writer.string(spectrum.title);
  writer.vector(spectrum.mzs());
  writer.vector(spectrum.intensities());
}

chem::Spectrum read_spectrum(mpi::ByteReader& reader) {
  chem::Spectrum spectrum;
  spectrum.scan_id = reader.pod<std::uint32_t>();
  spectrum.precursor.mz = reader.pod<Mz>();
  spectrum.precursor.charge = reader.pod<Charge>();
  spectrum.precursor.neutral_mass = reader.pod<Mass>();
  spectrum.title = reader.string();
  const auto mzs = reader.vector<Mz>();
  const auto intensities = reader.vector<float>();
  require(mzs.size() == intensities.size(),
          "malformed spectrum: mz/intensity length mismatch");
  // See the header: rebuild WITHOUT finalize() so an already-merged
  // spectrum is not merged a second time.
  for (std::size_t i = 0; i < mzs.size(); ++i) {
    spectrum.add_peak(mzs[i], intensities[i]);
  }
  return spectrum;
}

void write_modifications(mpi::ByteWriter& writer,
                         const chem::ModificationSet& mods) {
  writer.pod(static_cast<std::uint64_t>(mods.size()));
  for (std::size_t i = 0; i < mods.size(); ++i) {
    const chem::Modification& mod = mods[static_cast<chem::ModId>(i)];
    writer.string(mod.name);
    writer.pod(mod.delta);
    writer.string(mod.residues);
    writer.pod(mod.fixed);
  }
}

chem::ModificationSet read_modifications(mpi::ByteReader& reader) {
  const auto count = reader.pod<std::uint64_t>();
  require(count <= kMaxWireMods, "malformed payload: implausible mod count");
  chem::ModificationSet mods;
  for (std::uint64_t i = 0; i < count; ++i) {
    chem::Modification mod;
    mod.name = reader.string();
    mod.delta = reader.pod<Mass>();
    mod.residues = reader.string();
    mod.fixed = reader.pod<bool>();
    mods.add(std::move(mod));
  }
  return mods;
}

void write_index_params(mpi::ByteWriter& writer,
                        const index::IndexParams& params) {
  writer.pod(params.resolution);
  writer.pod(params.max_fragment_mz);
  write_fragment_params(writer, params.fragments);
}

index::IndexParams read_index_params(mpi::ByteReader& reader) {
  index::IndexParams params;
  params.resolution = reader.pod<double>();
  params.max_fragment_mz = reader.pod<Mz>();
  params.fragments = read_fragment_params(reader);
  return params;
}

void write_query_work(mpi::ByteWriter& writer, const index::QueryWork& work) {
  writer.pod(work.peaks_processed);
  writer.pod(work.bins_visited);
  writer.pod(work.postings_touched);
  writer.pod(work.candidates);
  writer.pod(work.spans_walked);
  writer.pod(work.spans_pruned);
  writer.pod(work.blocks_walked);
  writer.pod(work.blocks_pruned);
  writer.pod(work.candidates_scored);
  writer.pod(work.fragment_bins);
}

index::QueryWork read_query_work(mpi::ByteReader& reader) {
  index::QueryWork work;
  work.peaks_processed = reader.pod<std::uint64_t>();
  work.bins_visited = reader.pod<std::uint64_t>();
  work.postings_touched = reader.pod<std::uint64_t>();
  work.candidates = reader.pod<std::uint64_t>();
  work.spans_walked = reader.pod<std::uint64_t>();
  work.spans_pruned = reader.pod<std::uint64_t>();
  work.blocks_walked = reader.pod<std::uint64_t>();
  work.blocks_pruned = reader.pod<std::uint64_t>();
  work.candidates_scored = reader.pod<std::uint64_t>();
  work.fragment_bins = reader.pod<std::uint64_t>();
  return work;
}

void write_search_params(mpi::ByteWriter& writer, const SearchParams& params) {
  writer.pod(params.preprocess.top_peaks);
  writer.pod(params.preprocess.min_mz);
  writer.pod(params.preprocess.max_mz);
  writer.pod(params.preprocess.normalize);
  writer.pod(params.filter.fragment_tolerance);
  writer.pod(params.filter.shared_peak_min);
  writer.pod(params.filter.precursor_tolerance);
  writer.pod(params.filter.prune_blocks);
  writer.pod(params.score.fragment_tolerance);
  write_fragment_params(writer, params.score.fragments);
  writer.pod(params.top_k);
  writer.pod(params.rescore_depth);
}

SearchParams read_search_params(mpi::ByteReader& reader) {
  SearchParams params;
  params.preprocess.top_peaks = reader.pod<std::uint32_t>();
  params.preprocess.min_mz = reader.pod<Mz>();
  params.preprocess.max_mz = reader.pod<Mz>();
  params.preprocess.normalize = reader.pod<bool>();
  params.filter.fragment_tolerance = reader.pod<double>();
  params.filter.shared_peak_min = reader.pod<std::uint32_t>();
  params.filter.precursor_tolerance = reader.pod<double>();
  params.filter.prune_blocks = reader.pod<bool>();
  params.score.fragment_tolerance = reader.pod<double>();
  params.score.fragments = read_fragment_params(reader);
  params.top_k = reader.pod<std::uint32_t>();
  params.rescore_depth = reader.pod<std::uint32_t>();
  return params;
}

mpi::Bytes encode_search_setup(const SearchSetup& setup) {
  mpi::Bytes bytes;
  mpi::ByteWriter writer(bytes);
  writer.string(setup.bundle_dir);
  writer.string(setup.simd_level);
  write_modifications(writer, setup.mods);
  write_index_params(writer, setup.index_params);
  write_search_params(writer, setup.search);
  writer.pod(setup.result_batch);
  writer.pod(setup.threads_per_rank);
  writer.pod(static_cast<std::uint8_t>(setup.schedule.schedule));
  writer.pod(setup.schedule.steal_threshold);
  writer.pod(static_cast<std::uint64_t>(setup.queries.size()));
  for (const auto& spectrum : setup.queries) write_spectrum(writer, spectrum);
  return bytes;
}

SearchSetup decode_search_setup(const mpi::Bytes& payload) {
  mpi::ByteReader reader(payload);
  SearchSetup setup;
  setup.bundle_dir = reader.string();
  setup.simd_level = reader.string();
  setup.mods = read_modifications(reader);
  setup.index_params = read_index_params(reader);
  setup.search = read_search_params(reader);
  setup.result_batch = reader.pod<std::uint32_t>();
  setup.threads_per_rank = reader.pod<std::uint32_t>();
  const auto schedule = reader.pod<std::uint8_t>();
  require(schedule == static_cast<std::uint8_t>(core::Schedule::kLbeStatic) ||
              schedule == static_cast<std::uint8_t>(core::Schedule::kStealing),
          "malformed setup: unknown schedule");
  setup.schedule.schedule = static_cast<core::Schedule>(schedule);
  setup.schedule.steal_threshold = reader.pod<double>();
  const auto count = reader.pod<std::uint64_t>();
  require(count <= kMaxWireQueries,
          "malformed setup: implausible query count");
  setup.queries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    setup.queries.push_back(read_spectrum(reader));
  }
  require(reader.exhausted(), "malformed setup: trailing bytes");
  return setup;
}

mpi::Bytes encode_rank_stats(const RankStats& stats) {
  mpi::Bytes bytes;
  mpi::ByteWriter writer(bytes);
  writer.pod(stats.times.start);
  writer.pod(stats.times.build_done);
  writer.pod(stats.times.query_start);
  writer.pod(stats.times.query_done);
  writer.pod(stats.times.finish);
  write_query_work(writer, stats.work);
  writer.pod(stats.index_bytes);
  writer.pod(stats.mapped_bytes);
  writer.pod(stats.index_entries);
  writer.pod(stats.batches_executed);
  writer.pod(stats.batches_stolen);
  return bytes;
}

mpi::Bytes encode_steal_request(const StealRequest& request) {
  mpi::Bytes bytes;
  mpi::ByteWriter writer(bytes);
  writer.pod(request.batches_executed);
  return bytes;
}

StealRequest decode_steal_request(const mpi::Bytes& payload) {
  mpi::ByteReader reader(payload);
  StealRequest request;
  request.batches_executed = reader.pod<std::uint64_t>();
  require(reader.exhausted(), "malformed steal request: trailing bytes");
  return request;
}

mpi::Bytes encode_steal_grant(const StealGrant& grant) {
  mpi::Bytes bytes;
  mpi::ByteWriter writer(bytes);
  writer.pod(grant.done);
  writer.pod(grant.index_rank);
  writer.pod(grant.query_lo);
  writer.pod(grant.query_hi);
  return bytes;
}

StealGrant decode_steal_grant(const mpi::Bytes& payload) {
  mpi::ByteReader reader(payload);
  StealGrant grant;
  grant.done = reader.pod<bool>();
  grant.index_rank = reader.pod<std::int32_t>();
  grant.query_lo = reader.pod<std::uint64_t>();
  grant.query_hi = reader.pod<std::uint64_t>();
  require(reader.exhausted(), "malformed steal grant: trailing bytes");
  require(grant.done || (grant.index_rank >= 0 && grant.query_lo < grant.query_hi),
          "malformed steal grant: empty batch");
  return grant;
}

mpi::Bytes encode_steal_tail_cut(const StealTailCut& cut) {
  mpi::Bytes bytes;
  mpi::ByteWriter writer(bytes);
  writer.pod(cut.new_tail);
  return bytes;
}

StealTailCut decode_steal_tail_cut(const mpi::Bytes& payload) {
  mpi::ByteReader reader(payload);
  StealTailCut cut;
  cut.new_tail = reader.pod<std::uint64_t>();
  require(reader.exhausted(), "malformed steal tail cut: trailing bytes");
  return cut;
}

RankStats decode_rank_stats(const mpi::Bytes& payload) {
  mpi::ByteReader reader(payload);
  RankStats stats;
  stats.times.start = reader.pod<double>();
  stats.times.build_done = reader.pod<double>();
  stats.times.query_start = reader.pod<double>();
  stats.times.query_done = reader.pod<double>();
  stats.times.finish = reader.pod<double>();
  stats.work = read_query_work(reader);
  stats.index_bytes = reader.pod<std::uint64_t>();
  stats.mapped_bytes = reader.pod<std::uint64_t>();
  stats.index_entries = reader.pod<std::uint64_t>();
  stats.batches_executed = reader.pod<std::uint64_t>();
  stats.batches_stolen = reader.pod<std::uint64_t>();
  require(reader.exhausted(), "malformed rank stats: trailing bytes");
  return stats;
}

}  // namespace lbe::search::wire
