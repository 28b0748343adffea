// The benchmark's workloads and the inputs each one generates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "app/options.hpp"

namespace lbe::benchmark {

struct Workload {
  std::string name;
  /// Target-side index entries (modified variants included) the FASTA is
  /// grown to, one protein at a time; decoys roughly double the index.
  std::uint64_t target_entries = 0;
  std::uint32_t spectra = 0;
  /// Share of spectra carrying an unannounced 12-120 Da mass shift.
  double ptm_fraction = 0.0;
  /// Precursor window half-width in Da; "inf" is a fully open search.
  std::string window;
  /// Drives `lbectl serve` instead of one-shot searches.
  bool serve = false;
  /// Lowest acceptable recall (rank-1 base sequence = generating peptide).
  double recall_floor = 0.85;
  /// Offered daemon load, spectra/s, one spectrum per request: the light
  /// and heavy fixed rates, frozen at about 25% and 40% of the capacity
  /// measured when the benchmark was added.
  double light_rate = 0.0;
  double heavy_rate = 0.0;
};

/// The workload table at `scale` ("full", or "tiny" for the self-test).
std::vector<Workload> workloads(const std::string& scale);

/// Looks a workload up by name; throws ConfigError when unknown.
Workload find_workload(const std::string& scale, const std::string& name);

/// What the program under test receives (files only) plus what the
/// benchmark checks its answers against.
struct Inputs {
  std::string fasta_path;
  std::string ms2_path;
  /// The FASTA's digested, deduplicated target peptides.
  std::vector<std::string> targets;
  /// truth[i] = base sequence of the peptide that generated spectrum i.
  std::vector<std::string> truth;
};

/// Writes `dir`/proteome.fasta: synth::generate_family, family by family,
/// cut at the workload's entry target. The same for every seed, the way a
/// lab searches many runs against one reference proteome.
Inputs generate_database(const Workload& workload, const std::string& dir);

/// Writes `dir`/spectra.ms2: synth::generate_spectra over the database's
/// target peptides, drawn from `seed`. Same seed, same bytes.
void generate_spectra(const Workload& workload, std::uint64_t seed,
                      const std::string& dir, Inputs& inputs);

/// The `lbectl` command line every run of `workload` uses for
/// `subcommand` (process backend, 4 ranks, cyclic LBE, lbe_static, top_k 5,
/// one thread per rank, explicit precursor window), before the
/// invocation's own paths.
std::vector<std::string> lbectl_args(const Workload& workload,
                                     const std::string& subcommand);

/// Resolves a command line exactly as `lbectl` does (parse_cli +
/// options_from_config), so in-process runs see the CLI's options.
app::AppOptions options_from_args(const std::vector<std::string>& args);

}  // namespace lbe::benchmark
