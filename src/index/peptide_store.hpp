// Compact columnar storage for the peptide entries behind one index.
//
// Sequences live in one arena string with a CSR offset array; modification
// sites use a second CSR. Precursor masses are precomputed once. This is
// the structure whose bytes Fig. 5 accounts: per entry it costs
// len(seq) + 8 (offsets amortized) + 8 (mass) + 4*sites bytes, far below a
// per-peptide std::string.
//
// Every column is accessed through a non-owning view (`std::span` /
// `std::string_view`) that binds to one of two backings: the store's own
// containers (the cold path — `add` builds them) or a memory-mapped
// format-v3 index file (the warm path, `bind_mapped`, the only way a
// saved store is read back), in which case nothing is copied and the
// kernel pages columns in on first touch. The mapping is kept alive by
// shared ownership.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "chem/modification.hpp"
#include "chem/peptide.hpp"
#include "common/types.hpp"

namespace lbe::bin {
class MmapFile;
class ByteReader;
}  // namespace lbe::bin

namespace lbe::index {

/// Lightweight non-owning view of one stored peptide entry.
struct PeptideView {
  std::string_view sequence;
  const chem::ModSite* sites = nullptr;
  std::uint32_t site_count = 0;
  Mass mass = 0.0;

  bool modified() const noexcept { return site_count > 0; }
};

class PeptideStore {
 public:
  explicit PeptideStore(const chem::ModificationSet* mods = nullptr)
      : mods_(mods) {
    rebind();
  }

  // Copies and moves must re-point the column views: a moved std::string
  // may relocate its bytes (SSO), and a copied container always does. A
  // mapped store's views target the mapping, which both operations share.
  PeptideStore(const PeptideStore& other);
  PeptideStore& operator=(const PeptideStore& other);
  PeptideStore(PeptideStore&& other) noexcept;
  PeptideStore& operator=(PeptideStore&& other) noexcept;

  /// Appends an entry; returns its local id (dense, 0-based). Only valid
  /// on stores backed by their own containers (not mapped ones).
  LocalPeptideId add(const chem::Peptide& peptide,
                     const chem::ModificationSet& mods);

  /// Bulk-reserve for `n` entries of ~`avg_len` residues.
  void reserve(std::size_t n, std::size_t avg_len = 16);

  std::size_t size() const noexcept { return offsets_v_.size() - 1; }
  bool empty() const noexcept { return size() == 0; }

  /// True when the columns are views into a mapped index file.
  bool mapped() const noexcept { return keepalive_ != nullptr; }

  PeptideView view(LocalPeptideId id) const;

  /// Reconstructs a full Peptide value (allocates; for result reporting).
  chem::Peptide materialize(LocalPeptideId id) const;

  Mass mass(LocalPeptideId id) const { return masses_v_[id]; }

  /// Cache hints for a caller about to read `id`'s columns out of store
  /// order (the window path walks ids in mass order): first its mass and
  /// offsets, then — once the offsets are cached — its residues and sites.
  void prefetch_columns(LocalPeptideId id) const noexcept {
    __builtin_prefetch(masses_v_.data() + id);
    __builtin_prefetch(offsets_v_.data() + id);
    __builtin_prefetch(site_offsets_v_.data() + id);
  }
  void prefetch_residues(LocalPeptideId id) const noexcept {
    __builtin_prefetch(arena_v_.data() + offsets_v_[id]);
    __builtin_prefetch(sites_v_.data() + site_offsets_v_[id]);
  }

  /// Exact heap bytes held by the store (Fig. 5 accounting). A mapped
  /// store owns no column heap — its bytes live in the file cache.
  std::uint64_t memory_bytes() const noexcept;

  /// Ids sorted by ascending precursor mass (for chunking, Fig. 1 scheme).
  std::vector<LocalPeptideId> ids_by_mass() const;

  /// Binary serialization (the paper's disk-resident chunks, §II-B): the
  /// store's columns dump verbatim into one aligned raw section; the
  /// modification set is NOT serialized (pass the same one to
  /// bind_mapped — mod ids must mean the same thing). `cursor` is the
  /// file offset the store starts at: it nests inside a rank file, and
  /// format-v3 alignment is file-relative.
  void save(std::ostream& out, std::uint64_t& cursor) const;

  /// Zero-copy load: binds the columns straight into the mapped file
  /// `reader` walks (positioned at this store's nested header). The
  /// columns section is CRC-validated here — mapping a store *is* its
  /// first touch. `keepalive` must own the bytes behind `reader`.
  static PeptideStore bind_mapped(
      bin::ByteReader& reader, const chem::ModificationSet* mods,
      std::shared_ptr<const bin::MmapFile> keepalive);

 private:
  /// Points the views at the store's own containers.
  void rebind() noexcept;
  void adopt_views_or_rebind(const PeptideStore& other) noexcept;
  /// Restores the valid-empty-store state (used on moved-from sources).
  void reset_to_empty() noexcept;

  const chem::ModificationSet* mods_ = nullptr;

  // The access path: every reader goes through these views.
  std::string_view arena_v_;
  std::span<const std::uint64_t> offsets_v_;
  std::span<const chem::ModSite> sites_v_;
  std::span<const std::uint64_t> site_offsets_v_;
  std::span<const Mass> masses_v_;

  // Owned backing (cold path); empty when mapped.
  std::string arena_;
  std::vector<std::uint64_t> offsets_{0};
  std::vector<chem::ModSite> sites_;
  std::vector<std::uint64_t> site_offsets_{0};
  std::vector<Mass> masses_;

  std::shared_ptr<const bin::MmapFile> keepalive_;
};

}  // namespace lbe::index
