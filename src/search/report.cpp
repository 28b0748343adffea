#include "search/report.hpp"

#include <charconv>
#include <fstream>
#include <ostream>

#include "common/error.hpp"

namespace lbe::search {

std::vector<ResolvedPsm> resolve_psms(
    const core::LbePlan& plan, const std::vector<GlobalQueryResult>& results,
    const std::vector<bool>& decoy_bases) {
  std::size_t total = 0;
  for (const auto& result : results) total += result.top.size();
  std::vector<ResolvedPsm> rows;
  rows.reserve(total);
  for (const auto& result : results) {
    for (std::size_t rank = 0; rank < result.top.size(); ++rank) {
      const auto& psm = result.top[rank];
      const auto loc = plan.locate_variant(psm.peptide);
      const chem::Peptide peptide = plan.variant_peptide(psm.peptide);
      ResolvedPsm row;
      row.query_id = result.query_id;
      row.psm_rank = static_cast<std::uint32_t>(rank + 1);
      row.peptide = peptide.annotated(plan.mods());
      row.base_sequence = plan.base_sequence(loc.base_id);
      row.neutral_mass = peptide.mass(plan.mods());
      row.shared_peaks = psm.shared_peaks;
      row.score = psm.score;
      row.source_rank = psm.source_rank;
      row.is_decoy = loc.base_id < decoy_bases.size() &&
                     decoy_bases[loc.base_id];
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

namespace {

/// Formatted rows are handed to the stream once this many bytes collect.
constexpr std::size_t kFlushBytes = std::size_t{1} << 20;

template <typename Int>
void append_int(std::string& buffer, Int value) {
  char digits[24];
  const auto end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  buffer.append(digits, end);
}

/// printf("%.<precision>f") bytes: to_chars with a precision is specified
/// to print exactly what printf prints in the "C" locale.
void append_fixed(std::string& buffer, double value, int precision) {
  char digits[512];  // room for any finite double in fixed notation
  const auto end = std::to_chars(digits, digits + sizeof(digits), value,
                                 std::chars_format::fixed, precision)
                       .ptr;
  buffer.append(digits, end);
}

}  // namespace

void write_psm_rows(std::ostream& out, const std::vector<ResolvedPsm>& rows) {
  std::string buffer =
      "query_id\tpsm_rank\tpeptide\tbase_sequence\tneutral_mass\t"
      "shared_peaks\tscore\tsource_rank\tis_decoy\n";
  buffer.reserve(kFlushBytes + 1024);
  for (const auto& row : rows) {
    append_int(buffer, row.query_id);
    buffer += '\t';
    append_int(buffer, row.psm_rank);
    buffer += '\t';
    buffer += row.peptide;
    buffer += '\t';
    buffer += row.base_sequence;
    buffer += '\t';
    append_fixed(buffer, row.neutral_mass, 5);
    buffer += '\t';
    append_int(buffer, row.shared_peaks);
    buffer += '\t';
    append_fixed(buffer, static_cast<double>(row.score), 4);
    buffer += '\t';
    append_int(buffer, row.source_rank);
    buffer += row.is_decoy ? "\t1\n" : "\t0\n";
    if (buffer.size() >= kFlushBytes) {
      out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      buffer.clear();
    }
  }
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
}

void write_psm_rows_file(const std::string& path,
                         const std::vector<ResolvedPsm>& rows) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open report file for writing: " + path);
  write_psm_rows(out, rows);
  if (!out) throw IoError("report write failed: " + path);
}

void write_psm_report(std::ostream& out, const core::LbePlan& plan,
                      const std::vector<GlobalQueryResult>& results,
                      const std::vector<bool>& decoy_bases) {
  write_psm_rows(out, resolve_psms(plan, results, decoy_bases));
}

void write_psm_report_file(const std::string& path, const core::LbePlan& plan,
                           const std::vector<GlobalQueryResult>& results,
                           const std::vector<bool>& decoy_bases) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open report file for writing: " + path);
  write_psm_report(out, plan, results, decoy_bases);
  if (!out) throw IoError("report write failed: " + path);
}

}  // namespace lbe::search
