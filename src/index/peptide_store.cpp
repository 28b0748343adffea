#include "index/peptide_store.hpp"

#include <algorithm>
#include <ostream>

#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "common/mmap_file.hpp"
#include "index/serialize.hpp"

namespace lbe::index {

namespace {

/// The five column views parsed out of one kSecColumns payload. Offsets
/// inside the payload keep the file's mod-8 phase (the payload itself
/// starts 8-aligned), so the views land aligned in the mapping.
struct ColumnViews {
  std::string_view arena;
  std::span<const std::uint64_t> offsets;
  std::span<const chem::ModSite> sites;
  std::span<const std::uint64_t> site_offsets;
  std::span<const Mass> masses;
};

ColumnViews parse_columns(bin::ByteReader& reader) {
  namespace sz = serialize;
  const auto arena_size = reader.read_pod<std::uint64_t>();
  const auto offsets_count = reader.read_pod<std::uint64_t>();
  const auto sites_count = reader.read_pod<std::uint64_t>();
  const auto site_offsets_count = reader.read_pod<std::uint64_t>();
  const auto masses_count = reader.read_pod<std::uint64_t>();
  sz::require(arena_size <= bin::kMaxSectionBytes &&
                  offsets_count <= bin::kMaxElements &&
                  sites_count <= bin::kMaxElements &&
                  site_offsets_count <= bin::kMaxElements &&
                  masses_count <= bin::kMaxElements,
              "implausible peptide store column size");

  ColumnViews v;
  const auto arena_bytes = reader.take(static_cast<std::size_t>(arena_size));
  v.arena = std::string_view(reinterpret_cast<const char*>(arena_bytes.data()),
                             arena_bytes.size());
  reader.align();
  v.offsets = reader.view_array<std::uint64_t>(
      static_cast<std::size_t>(offsets_count));
  reader.align();
  v.sites =
      reader.view_array<chem::ModSite>(static_cast<std::size_t>(sites_count));
  reader.align();
  v.site_offsets = reader.view_array<std::uint64_t>(
      static_cast<std::size_t>(site_offsets_count));
  reader.align();
  v.masses = reader.view_array<Mass>(static_cast<std::size_t>(masses_count));
  reader.align();
  return v;
}

/// Structural validation at bind time: CSR invariants must
/// hold or lookups would read out of bounds later. The CRC catches bit
/// rot; these catch truncated or hand-assembled payloads.
void validate_columns(const ColumnViews& v) {
  namespace sz = serialize;
  sz::require(!v.offsets.empty() && v.offsets.front() == 0 &&
                  v.offsets.back() == v.arena.size(),
              "peptide store sequence offsets");
  sz::require(v.site_offsets.size() == v.offsets.size() &&
                  v.site_offsets.front() == 0 &&
                  v.site_offsets.back() == v.sites.size(),
              "peptide store site offsets");
  sz::require(v.masses.size() == v.offsets.size() - 1,
              "peptide store mass column");
  for (std::size_t i = 1; i < v.offsets.size(); ++i) {
    sz::require(v.offsets[i] >= v.offsets[i - 1] &&
                    v.site_offsets[i] >= v.site_offsets[i - 1],
                "peptide store non-monotone offsets");
  }
}

}  // namespace

PeptideStore::PeptideStore(const PeptideStore& other)
    : mods_(other.mods_),
      arena_(other.arena_),
      offsets_(other.offsets_),
      sites_(other.sites_),
      site_offsets_(other.site_offsets_),
      masses_(other.masses_),
      keepalive_(other.keepalive_) {
  adopt_views_or_rebind(other);
}

PeptideStore& PeptideStore::operator=(const PeptideStore& other) {
  if (this == &other) return *this;
  mods_ = other.mods_;
  arena_ = other.arena_;
  offsets_ = other.offsets_;
  sites_ = other.sites_;
  site_offsets_ = other.site_offsets_;
  masses_ = other.masses_;
  keepalive_ = other.keepalive_;
  adopt_views_or_rebind(other);
  return *this;
}

PeptideStore::PeptideStore(PeptideStore&& other) noexcept
    : mods_(other.mods_),
      arena_(std::move(other.arena_)),
      offsets_(std::move(other.offsets_)),
      sites_(std::move(other.sites_)),
      site_offsets_(std::move(other.site_offsets_)),
      masses_(std::move(other.masses_)),
      keepalive_(std::move(other.keepalive_)) {
  adopt_views_or_rebind(other);
  other.reset_to_empty();  // leave the source a valid empty store
}

PeptideStore& PeptideStore::operator=(PeptideStore&& other) noexcept {
  if (this == &other) return *this;
  mods_ = other.mods_;
  arena_ = std::move(other.arena_);
  offsets_ = std::move(other.offsets_);
  sites_ = std::move(other.sites_);
  site_offsets_ = std::move(other.site_offsets_);
  masses_ = std::move(other.masses_);
  keepalive_ = std::move(other.keepalive_);
  adopt_views_or_rebind(other);
  other.reset_to_empty();
  return *this;
}

void PeptideStore::reset_to_empty() noexcept {
  // A moved-from vector is empty, but an empty *store* needs the CSR
  // sentinel element back or size() would underflow.
  arena_.clear();
  offsets_.assign(1, 0);
  sites_.clear();
  site_offsets_.assign(1, 0);
  masses_.clear();
  keepalive_.reset();
  rebind();
}

void PeptideStore::adopt_views_or_rebind(const PeptideStore& other) noexcept {
  if (keepalive_ != nullptr) {
    // Mapped columns: the views target the mapping, which is shared and
    // address-stable — adopt them verbatim.
    arena_v_ = other.arena_v_;
    offsets_v_ = other.offsets_v_;
    sites_v_ = other.sites_v_;
    site_offsets_v_ = other.site_offsets_v_;
    masses_v_ = other.masses_v_;
  } else {
    rebind();
  }
}

void PeptideStore::rebind() noexcept {
  arena_v_ = arena_;
  offsets_v_ = offsets_;
  sites_v_ = sites_;
  site_offsets_v_ = site_offsets_;
  masses_v_ = masses_;
}

LocalPeptideId PeptideStore::add(const chem::Peptide& peptide,
                                 const chem::ModificationSet& mods) {
  LBE_CHECK(!mapped(), "cannot append to a mapped peptide store");
  LBE_CHECK(size() < kInvalidPeptideId, "peptide store full");
  arena_.append(peptide.sequence());
  offsets_.push_back(arena_.size());
  for (const auto& site : peptide.sites()) sites_.push_back(site);
  site_offsets_.push_back(sites_.size());
  masses_.push_back(peptide.mass(mods));
  if (mods_ == nullptr) mods_ = &mods;
  rebind();
  return static_cast<LocalPeptideId>(size() - 1);
}

void PeptideStore::reserve(std::size_t n, std::size_t avg_len) {
  LBE_CHECK(!mapped(), "cannot reserve in a mapped peptide store");
  arena_.reserve(n * avg_len);
  offsets_.reserve(n + 1);
  site_offsets_.reserve(n + 1);
  masses_.reserve(n);
  rebind();
}

PeptideView PeptideStore::view(LocalPeptideId id) const {
  LBE_CHECK(id < size(), "peptide id out of range");
  PeptideView v;
  const std::uint64_t begin = offsets_v_[id];
  const std::uint64_t end = offsets_v_[id + 1];
  v.sequence = arena_v_.substr(begin, end - begin);
  const std::uint64_t site_begin = site_offsets_v_[id];
  const std::uint64_t site_end = site_offsets_v_[id + 1];
  v.sites = sites_v_.data() + site_begin;
  v.site_count = static_cast<std::uint32_t>(site_end - site_begin);
  v.mass = masses_v_[id];
  return v;
}

chem::Peptide PeptideStore::materialize(LocalPeptideId id) const {
  const PeptideView v = view(id);
  LBE_CHECK(mods_ != nullptr, "store has no modification set");
  std::vector<chem::ModSite> sites(v.sites, v.sites + v.site_count);
  return chem::Peptide(std::string(v.sequence), std::move(sites), *mods_);
}

std::uint64_t PeptideStore::memory_bytes() const noexcept {
  return arena_.capacity() +
         offsets_.capacity() * sizeof(std::uint64_t) +
         sites_.capacity() * sizeof(chem::ModSite) +
         site_offsets_.capacity() * sizeof(std::uint64_t) +
         masses_.capacity() * sizeof(Mass);
}

void PeptideStore::save(std::ostream& out, std::uint64_t& cursor) const {
  namespace sz = serialize;
  sz::write_header(out, sz::Kind::kPeptideStore);
  cursor += sz::kHeaderBytes;

  // Size and CRC are computed over the columns directly (crc32_padded
  // chains the zero padding in), then the payload streams straight to the
  // file — no payload-sized scratch buffer. Payload-relative offsets and
  // file offsets agree mod 8: the section payload starts 8-aligned, so
  // the per-array padding below lands the arrays aligned in the file.
  const std::uint64_t counts[5] = {
      arena_v_.size(), offsets_v_.size(), sites_v_.size(),
      site_offsets_v_.size(), masses_v_.size()};
  const std::uint64_t column_bytes[5] = {
      arena_v_.size(), offsets_v_.size() * sizeof(std::uint64_t),
      sites_v_.size() * sizeof(chem::ModSite),
      site_offsets_v_.size() * sizeof(std::uint64_t),
      masses_v_.size() * sizeof(Mass)};
  const void* const column_data[5] = {arena_v_.data(), offsets_v_.data(),
                                      sites_v_.data(), site_offsets_v_.data(),
                                      masses_v_.data()};
  std::uint64_t pc = 0;
  std::uint32_t crc = 0;
  bin::crc32_padded(counts, sizeof(counts), pc, crc);
  for (std::size_t column = 0; column < 5; ++column) {
    bin::crc32_padded(column_data[column], column_bytes[column], pc, crc);
  }
  bin::write_raw_section_frame(out, cursor, sz::kSecColumns, pc, crc);
  std::uint64_t wc = 0;
  for (const std::uint64_t count : counts) bin::write_pod(out, count);
  wc += sizeof(counts);
  for (std::size_t column = 0; column < 5; ++column) {
    bin::write_padded(out, column_data[column], column_bytes[column], wc);
  }
  LBE_CHECK(wc == pc, "peptide store payload size drift");
  cursor += pc;
}

PeptideStore PeptideStore::bind_mapped(
    bin::ByteReader& reader, const chem::ModificationSet* mods,
    std::shared_ptr<const bin::MmapFile> keepalive) {
  namespace sz = serialize;
  serialize::read_header_mapped(reader, sz::Kind::kPeptideStore);
  bin::ByteReader payload(bin::read_raw_section(reader, sz::kSecColumns),
                          0);
  // Re-seat the payload reader at the payload's *file* offset phase: the
  // payload starts 8-aligned in the file, so phase 0 is correct.
  const ColumnViews v = parse_columns(payload);
  sz::require(payload.remaining() == 0, "peptide store trailing bytes");
  validate_columns(v);

  PeptideStore store(mods);
  store.keepalive_ = std::move(keepalive);
  store.arena_v_ = v.arena;
  store.offsets_v_ = v.offsets;
  store.sites_v_ = v.sites;
  store.site_offsets_v_ = v.site_offsets;
  store.masses_v_ = v.masses;
  return store;
}

std::vector<LocalPeptideId> PeptideStore::ids_by_mass() const {
  std::vector<LocalPeptideId> ids(size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<LocalPeptideId>(i);
  }
  std::sort(ids.begin(), ids.end(), [this](LocalPeptideId a, LocalPeptideId b) {
    if (masses_v_[a] != masses_v_[b]) return masses_v_[a] < masses_v_[b];
    return a < b;  // stable tie-break keeps runs deterministic
  });
  return ids;
}

}  // namespace lbe::index
