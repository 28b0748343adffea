#include "workloads.hpp"

#include <filesystem>
#include <unordered_set>

#include "common/error.hpp"
#include "digest/digestor.hpp"
#include "digest/variants.hpp"
#include "io/fasta.hpp"
#include "io/ms2.hpp"
#include "synth/proteome.hpp"
#include "synth/spectra.hpp"

namespace lbe::benchmark {

namespace {

constexpr std::uint64_t kProteomeSeed = 2019;

}  // namespace

std::vector<Workload> workloads(const std::string& scale) {
  // Sized so one run (set-up, warm-up, the 12 s window, checks) takes ~20 s
  // on 4 cores, which the 4-workload run budget needs. Each rank's share of
  // a "large" index is several times its core's L2; a "small" one fits.
  // The daemon rates are ~25% and ~40% of each bundle's measured capacity.
  std::vector<Workload> table = {
      // The common closed search: filtration with mass-bound block
      // skipping dominates the search, index build dominates set-up.
      {.name = "closed_large",
       .target_entries = 150000,
       .spectra = 6000,
       .window = "0.05",
       .light_rate = 650.0,
       .heavy_rate = 1050.0},
      // Open search: mass pruning is bypassed, so only the filtration
      // kernel, the score floor and top-K are at work.
      {.name = "open_large",
       .target_entries = 150000,
       .spectra = 2400,
       .ptm_fraction = 0.3,
       .window = "inf",
       .light_rate = 400.0,
       .heavy_rate = 700.0},
      // Per-spectrum fixed costs dominate instead of filtration: MS2
      // parsing, result traffic, the master merge, FDR, psms.tsv writing.
      {.name = "many_small",
       .target_entries = 20000,
       .spectra = 40000,
       .window = "0.05",
       .light_rate = 3200.0,
       .heavy_rate = 5000.0},
      // The daemon under open-loop single-spectrum requests: the protocol,
      // queueing and the per-request search path (~0.5 ms of search).
      {.name = "serve_small",
       .target_entries = 100000,
       .spectra = 12000,
       .window = "0.05",
       .serve = true,
       .light_rate = 900.0,
       .heavy_rate = 1800.0},
  };
  if (scale == "tiny") {
    for (Workload& workload : table) {
      workload.target_entries = 6000;
      workload.spectra = 300;
      workload.recall_floor = 0.5;
    }
  } else if (scale != "full") {
    throw ConfigError("unknown --scale " + scale + " (expected full|tiny)");
  }
  return table;
}

Workload find_workload(const std::string& scale, const std::string& name) {
  for (Workload& workload : workloads(scale)) {
    if (workload.name == name) return workload;
  }
  throw ConfigError("unknown workload: " + name);
}

std::vector<std::string> lbectl_args(const Workload& workload,
                                     const std::string& subcommand) {
  std::vector<std::string> args = {
      "lbectl",   subcommand,   "--backend", "process",    "--ranks",
      "4",        "--policy",   "cyclic",    "--schedule", "lbe_static",
      "--top_k",  "5",          "--threads", "1",          "--prune",
      "true",     "--open_window", workload.window};
  return args;
}

app::AppOptions options_from_args(const std::vector<std::string>& args) {
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const auto& arg : args) argv.push_back(arg.c_str());
  const app::CliInvocation cli =
      app::parse_cli(static_cast<int>(argv.size()), argv.data());
  return app::options_from_config(cli.config);
}

Inputs generate_database(const Workload& workload, const std::string& dir) {
  // Digestion, modifications and variant limits are the CLI defaults the
  // prepare step will apply to the FASTA.
  const app::AppOptions opts =
      options_from_args(lbectl_args(workload, "prepare"));
  const auto& enzyme = digest::enzyme_by_name(opts.enzyme_name);
  const chem::ModificationSet mods = chem::ModificationSet::paper_default();

  // A small database cut from a seed-dependent proteome varies several-fold
  // in variants per peptide, which would swamp every timing; so the
  // proteome seed is fixed. It grows a protein at a time until the
  // digested targets reach the entry target.
  synth::ProteomeParams proteome;
  proteome.seed = kProteomeSeed;
  std::vector<io::FastaRecord> records;
  std::unordered_set<std::string> seen;
  Inputs inputs;
  std::uint64_t entries = 0;
  for (std::uint32_t family = 0; entries < workload.target_entries; ++family) {
    for (auto& record : synth::generate_family(proteome, family)) {
      if (entries >= workload.target_entries) break;
      for (auto& peptide :
           digest::digest_protein(record.sequence, 0, enzyme, opts.digestion)) {
        if (!seen.insert(peptide.sequence).second) continue;
        entries +=
            digest::count_variants(peptide.sequence, mods, opts.variants);
        inputs.targets.push_back(std::move(peptide.sequence));
      }
      records.push_back(std::move(record));
    }
  }
  std::filesystem::create_directories(dir);
  inputs.fasta_path = dir + "/proteome.fasta";
  io::write_fasta_file(inputs.fasta_path, records);
  return inputs;
}

void generate_spectra(const Workload& workload, std::uint64_t seed,
                      const std::string& dir, Inputs& inputs) {
  const app::AppOptions opts =
      options_from_args(lbectl_args(workload, "search"));
  synth::SpectraParams params;
  params.num_spectra = workload.spectra;
  params.seed = seed ^ 0x5EC7A5EEDull;
  params.fragments = opts.search.index.fragments;
  params.ptm_shift_fraction = workload.ptm_fraction;
  const synth::GeneratedSpectra generated = synth::generate_spectra(
      inputs.targets, chem::ModificationSet::paper_default(), params);
  inputs.ms2_path = dir + "/spectra.ms2";
  io::write_ms2_file(inputs.ms2_path, generated.to_ms2());
  inputs.truth.clear();
  inputs.truth.reserve(generated.truth.size());
  for (const std::uint32_t index : generated.truth) {
    inputs.truth.push_back(inputs.targets[index]);
  }
}

}  // namespace lbe::benchmark
