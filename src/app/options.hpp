// lbectl option surface.
//
// One `AppOptions` struct carries every knob of the end-to-end pipeline
// (database source, digestion, LBE plan, index/search parameters, runtime
// parallelism, outputs). Options come from a `Config` (key = value file
// and/or `--key value` CLI overrides), so a search is reproducible from a
// single config file checked into an experiment directory.
#pragma once

#include <cstdint>
#include <string>

#include "common/config.hpp"
#include "core/lbe_layer.hpp"
#include "digest/decoy.hpp"
#include "digest/digestor.hpp"
#include "digest/variants.hpp"
#include "search/distributed.hpp"

namespace lbe::app {

struct AppOptions {
  // ---- inputs ----
  std::string fasta_path;  ///< protein FASTA; empty = synthetic proteome
  std::string ms2_path;    ///< query MS2 file; empty = synthetic spectra
  std::string plan_path;   ///< serialized plan from `lbectl prepare`
  std::string out_dir = ".";
  /// `prepare`: where the warm-start index bundle lands (defaults to
  /// out_dir, next to the plan).
  std::string index_out_dir;
  /// `search`: bundle directory from `prepare --index-out`; load instead of
  /// rebuilding per-rank indexes (falls back to rebuild on params mismatch).
  std::string index_dir;
  /// Not a CLI option. Warm starts always map rank files; this only picks
  /// when try_load_warm_indexes validates chunk payloads: true = lazily,
  /// on first query touch; false = materialize and verify every chunk of
  /// every rank at load (prepare's self-check). Kept as a field because
  /// benchmark/src/run.cpp sets it; it could become a parameter of
  /// try_load_warm_indexes in the next change to benchmark/.
  bool index_mmap = true;
  /// `--simd auto|scalar|sse|avx2`: posting-decode kernel
  /// (index/posting_codec.hpp) of every span walk — built indexes pack
  /// their postings at build, so cold and warm searches both decode.
  /// `auto` (default) resolves to the widest ISA the CPU supports; results
  /// are byte-identical at every level — the ctest lbectl_simd_equivalence
  /// checks it.
  std::string simd = "auto";

  // ---- synthetic workload (used when fasta_path is empty) ----
  std::uint64_t target_entries = 50000;
  std::uint32_t num_queries = 64;
  std::uint64_t seed = 2019;
  /// `--ptm_fraction F`: fraction of synthetic queries carrying an
  /// unannounced PTM-like mass shift (synth/spectra.hpp). Those spectra are
  /// findable only with a precursor window wider than the shift — the
  /// open-search workload. 0 (the default) leaves the generator's draw
  /// sequence untouched, so existing workloads stay byte-identical.
  double ptm_fraction = 0.0;

  // ---- digestion / database prep ----
  std::string enzyme_name = "trypsin";
  digest::DigestionParams digestion;
  bool add_decoys = true;
  digest::DecoyMethod decoy_method = digest::DecoyMethod::kPseudoReverse;
  std::string mods_spec = "paper";  ///< "paper" or a ModificationSet::parse spec
  digest::VariantParams variants;

  // ---- LBE grouping + partitioning ----
  core::LbeParams lbe;

  // ---- index + search ----
  search::DistributedParams search;
  double fdr_threshold = 0.02;

  // ---- runtime ----
  std::uint32_t threads = 1;  ///< threads per simulated rank
  std::uint32_t batch = 64;   ///< queries per result batch on the wire
  /// `--backend virtual|threads|process`: rank transport for `search`.
  /// `virtual` (default) and `threads` are the in-process simulated
  /// engines (simmpi/cluster.hpp); `process` forks one OS worker process
  /// per rank over Unix-domain sockets, with co-located ranks sharing one
  /// read-only mmap of the index bundle (simmpi/process.hpp). Results are
  /// byte-identical across backends — the ctest lbectl_backend_equivalence
  /// checks it.
  std::string backend = "virtual";

  // ---- serving (`lbectl serve` / `lbectl query`) ----
  std::string socket_path;          ///< Unix-domain socket the daemon binds
  std::uint32_t queue_depth = 64;   ///< serve: bounded request-queue depth
  std::uint32_t serve_workers = 1;  ///< serve: concurrent search batches
  bool send_shutdown = false;       ///< query: ask the daemon to exit after

  // ---- outputs / behaviour ----
  bool write_report = true;      ///< psms.tsv + metrics.csv under out_dir
  bool verify_baseline = false;  ///< re-run shared-memory engine and compare

  /// The Config these options were built from. A prepared plan stores the
  /// LbeParams it was built with; at load time a key present here overrides
  /// the stored value, an absent key keeps it (see effective_lbe_params).
  Config source;

  /// Throws ConfigError on inconsistent values.
  void validate() const;
};

/// Builds options from a parsed Config; throws ConfigError on unknown keys
/// or unparseable values so typos fail loudly instead of silently defaulting.
AppOptions options_from_config(const Config& config);

/// Parsed command line: `lbectl <subcommand> [--config FILE] [--key value]...`
struct CliInvocation {
  std::string subcommand;  ///< "prepare" | "search" | "stats" | "help"
  Config config;           ///< config file merged with CLI overrides
};

/// Parses argv. `--key value` and `--key=value` both work; a `--flag`
/// followed by another option (or nothing) is treated as a boolean `true`.
/// Throws ConfigError on malformed arguments.
CliInvocation parse_cli(int argc, const char* const* argv);

/// The usage/help text.
const char* usage();

}  // namespace lbe::app
