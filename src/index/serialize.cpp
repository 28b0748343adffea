#include "index/serialize.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "common/mmap_file.hpp"

namespace lbe::index {

namespace serialize {

void write_header(std::ostream& out, Kind kind) {
  bin::write_pod(out, kMagic);
  bin::write_pod(out, kFormatVersion);
  bin::write_pod(out, static_cast<std::uint32_t>(kind));
}

namespace {

void check_header_fields(std::uint32_t magic, std::uint32_t version,
                         std::uint32_t kind, Kind expected) {
  if (magic != kMagic) {
    throw IoError("not an LBE index file (bad magic)");
  }
  if (version != kFormatVersion) {
    throw FormatVersionError(
        "unsupported LBE index format version " +
                  std::to_string(version) + " (this build reads version " +
                  std::to_string(kFormatVersion) +
                  "; regenerate with `lbectl prepare`)");
  }
  if (kind != static_cast<std::uint32_t>(expected)) {
    throw IoError("LBE index stream holds a different component (kind " +
                  std::to_string(kind) + ")");
  }
}

}  // namespace

void read_header(std::istream& in, Kind expected) {
  const auto magic = bin::read_pod<std::uint32_t>(in);
  const auto version = bin::read_pod<std::uint32_t>(in);
  const auto kind = bin::read_pod<std::uint32_t>(in);
  check_header_fields(magic, version, kind, expected);
}

void read_header_mapped(bin::ByteReader& reader, Kind expected) {
  const auto magic = reader.read_pod<std::uint32_t>();
  const auto version = reader.read_pod<std::uint32_t>();
  const auto kind = reader.read_pod<std::uint32_t>();
  check_header_fields(magic, version, kind, expected);
}

void require(bool condition, const char* message) {
  if (!condition) {
    throw IoError(std::string("corrupt index stream: ") + message);
  }
}

void write_index_params(std::ostream& out, const IndexParams& params) {
  bin::write_pod(out, params.resolution);
  bin::write_pod(out, params.max_fragment_mz);
  bin::write_pod(out, static_cast<std::uint8_t>(
                          params.fragments.max_fragment_charge));
  bin::write_pod(out, static_cast<std::uint8_t>(params.fragments.a_ions));
  bin::write_pod(out,
                 static_cast<std::uint8_t>(params.fragments.neutral_loss_nh3));
  bin::write_pod(out,
                 static_cast<std::uint8_t>(params.fragments.neutral_loss_h2o));
}

IndexParams read_index_params(std::istream& in) {
  IndexParams params;
  params.resolution = bin::read_pod<double>(in);
  params.max_fragment_mz = bin::read_pod<Mz>(in);
  params.fragments.max_fragment_charge =
      static_cast<Charge>(bin::read_pod<std::uint8_t>(in));
  params.fragments.a_ions = bin::read_pod<std::uint8_t>(in) != 0;
  params.fragments.neutral_loss_nh3 = bin::read_pod<std::uint8_t>(in) != 0;
  params.fragments.neutral_loss_h2o = bin::read_pod<std::uint8_t>(in) != 0;
  require(params.resolution > 0.0 && params.max_fragment_mz > 0.0,
          "non-positive index parameters");
  return params;
}

bool same_index_params(const IndexParams& a, const IndexParams& b) {
  return a.resolution == b.resolution &&
         a.max_fragment_mz == b.max_fragment_mz &&
         a.fragments.max_fragment_charge == b.fragments.max_fragment_charge &&
         a.fragments.a_ions == b.fragments.a_ions &&
         a.fragments.neutral_loss_nh3 == b.fragments.neutral_loss_nh3 &&
         a.fragments.neutral_loss_h2o == b.fragments.neutral_loss_h2o;
}

void write_lbe_params(std::ostream& out, const core::LbeParams& params) {
  bin::write_pod(out, static_cast<std::uint8_t>(params.grouping.criterion));
  bin::write_pod(out, params.grouping.d);
  bin::write_pod(out, params.grouping.d_prime);
  bin::write_pod(out, params.grouping.gsize);
  bin::write_pod(out, static_cast<std::uint8_t>(params.partition.policy));
  bin::write_pod(out, static_cast<std::int32_t>(params.partition.ranks));
  bin::write_pod(out, params.partition.seed);
  bin::write_pod(out,
                 static_cast<std::uint8_t>(params.partition.rotate_groups));
  bin::write_vector(out, params.partition.weights);
}

core::LbeParams read_lbe_params(std::istream& in) {
  core::LbeParams params;
  const auto criterion = bin::read_pod<std::uint8_t>(in);
  require(criterion == 1 || criterion == 2, "bad grouping criterion");
  params.grouping.criterion = static_cast<core::GroupingCriterion>(criterion);
  params.grouping.d = bin::read_pod<std::uint32_t>(in);
  params.grouping.d_prime = bin::read_pod<double>(in);
  params.grouping.gsize = bin::read_pod<std::uint32_t>(in);
  const auto policy = bin::read_pod<std::uint8_t>(in);
  require(policy <= static_cast<std::uint8_t>(core::Policy::kWeighted),
          "bad partition policy");
  params.partition.policy = static_cast<core::Policy>(policy);
  params.partition.ranks = bin::read_pod<std::int32_t>(in);
  require(params.partition.ranks >= 1, "bad rank count");
  params.partition.seed = bin::read_pod<std::uint64_t>(in);
  params.partition.rotate_groups = bin::read_pod<std::uint8_t>(in) != 0;
  params.partition.weights = bin::read_vector<double>(in);
  return params;
}

bool same_lbe_params(const core::LbeParams& a, const core::LbeParams& b) {
  return a.grouping.criterion == b.grouping.criterion &&
         a.grouping.d == b.grouping.d &&
         a.grouping.d_prime == b.grouping.d_prime &&
         a.grouping.gsize == b.grouping.gsize &&
         a.partition.policy == b.partition.policy &&
         a.partition.ranks == b.partition.ranks &&
         a.partition.seed == b.partition.seed &&
         a.partition.rotate_groups == b.partition.rotate_groups &&
         a.partition.weights == b.partition.weights;
}

}  // namespace serialize

std::string bundle_manifest_path(const std::string& dir) {
  return dir + "/index.manifest";
}

std::string bundle_rank_path(const std::string& dir, int rank) {
  return dir + "/rank" + std::to_string(rank) + ".idx";
}

void save_index_manifest(const std::string& dir, const IndexBundle& bundle) {
  namespace sz = serialize;
  std::filesystem::create_directories(dir);

  const std::string manifest_path = bundle_manifest_path(dir);
  std::ofstream out(manifest_path, std::ios::binary);
  if (!out) throw IoError("cannot write index manifest: " + manifest_path);
  sz::write_header(out, sz::Kind::kManifest);
  {
    std::ostringstream payload;
    sz::write_lbe_params(payload, bundle.lbe);
    bin::write_section(out, sz::kSecLbeParams, payload.str());
  }
  {
    std::ostringstream payload;
    sz::write_index_params(payload, bundle.index_params);
    bin::write_pod(payload, static_cast<std::uint64_t>(
                                bundle.chunking.max_chunk_entries));
    // The rank count comes from the mapping table, not per_rank, so a
    // manifest-only save (streamed prepare) records the right value.
    bin::write_pod(payload,
                   static_cast<std::uint32_t>(bundle.mapping.num_ranks()));
    bin::write_pod(payload, bundle.database_crc);
    bin::write_section(out, sz::kSecParams, payload.str());
  }
  bundle.mapping.save(out);
  if (!out) throw IoError("index manifest write failed: " + manifest_path);
}

void save_index_bundle(const std::string& dir, const IndexBundle& bundle) {
  LBE_CHECK(bundle.ranks() == bundle.mapping.num_ranks(),
            "bundle rank set does not match its mapping table");
  save_index_manifest(dir, bundle);
  for (int rank = 0; rank < bundle.ranks(); ++rank) {
    const auto& index = bundle.per_rank[static_cast<std::size_t>(rank)];
    LBE_CHECK(index != nullptr, "bundle rank index missing");
    index->save_file(bundle_rank_path(dir, rank));
  }
}

IndexBundle load_index_bundle(const std::string& dir,
                              const chem::ModificationSet& mods) {
  namespace sz = serialize;
  const std::string manifest_path = bundle_manifest_path(dir);
  std::ifstream in(manifest_path, std::ios::binary);
  if (!in) throw IoError("cannot open index manifest: " + manifest_path);

  IndexBundle bundle;
  sz::read_header(in, sz::Kind::kManifest);
  std::uint32_t rank_count = 0;
  {
    std::istringstream payload(bin::read_section(in, sz::kSecLbeParams));
    bundle.lbe = sz::read_lbe_params(payload);
  }
  {
    std::istringstream payload(bin::read_section(in, sz::kSecParams));
    bundle.index_params = sz::read_index_params(payload);
    bundle.chunking.max_chunk_entries =
        static_cast<std::size_t>(bin::read_pod<std::uint64_t>(payload));
    rank_count = bin::read_pod<std::uint32_t>(payload);
    sz::require(rank_count >= 1 && rank_count <= 1u << 20,
                "implausible rank count");
    bundle.database_crc = bin::read_pod<std::uint32_t>(payload);
  }
  bundle.mapping = MappingTable::load(in);
  sz::require(bundle.mapping.num_ranks() == static_cast<int>(rank_count),
              "mapping table rank count disagrees with the manifest");

  bundle.per_rank.reserve(rank_count);
  for (std::uint32_t rank = 0; rank < rank_count; ++rank) {
    const std::string path = bundle_rank_path(dir, static_cast<int>(rank));
    auto index = ChunkedIndex::map_file(path, mods, bundle.index_params);
    // The store columns are validated at map time (mapping a store is its
    // first touch), so this count is trustworthy even when the chunk
    // payloads behind it are still cold.
    sz::require(index->num_peptides() ==
                    bundle.mapping.rank_count(static_cast<RankId>(rank)),
                "rank index entry count disagrees with the mapping table");
    bundle.per_rank.push_back(std::move(index));
  }
  return bundle;
}

}  // namespace lbe::index
