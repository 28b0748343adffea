#include "app/options.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string_view>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/scheduling.hpp"
#include "index/posting_codec.hpp"

namespace lbe::app {

namespace {

// Every key the driver understands; parse_cli/options_from_config reject
// anything else so a misspelled knob cannot silently fall back to a default.
constexpr std::array<std::string_view, 50> kKnownKeys = {
    "db",          "queries",       "plan",
    "index",       "index_out",     "simd",
    "out",         "entries",       "num_queries",
    "seed",        "enzyme",        "missed_cleavages",
    "min_length",  "max_length",    "min_mass",
    "max_mass",    "decoy",         "mods",
    "max_mod_residues", "max_variants_per_peptide",
    "policy",      "ranks",         "partition_seed",
    "criterion",   "d",             "d_prime",
    "gsize",       "resolution",    "max_fragment_mz",
    "max_fragment_charge", "fragment_tolerance", "shared_peak_min",
    "precursor_tolerance", "open_window", "prune",
    "ptm_fraction", "top_k",        "fdr",
    "threads",     "batch",         "backend",
    "report",      "verify",        "socket",
    "queue_depth", "workers",       "shutdown",
    "schedule",    "steal_threshold",
};

bool known_key(std::string_view key) {
  return std::find(kKnownKeys.begin(), kKnownKeys.end(), key) !=
         kKnownKeys.end();
}

digest::DecoyMethod decoy_method_from_string(const std::string& name,
                                             bool& enabled) {
  const std::string s = str::to_upper(name);
  enabled = true;
  if (s == "NONE" || s == "OFF") {
    enabled = false;
    return digest::DecoyMethod::kPseudoReverse;
  }
  if (s == "REVERSE") return digest::DecoyMethod::kReverse;
  if (s == "PSEUDO" || s == "PSEUDO-REVERSE" || s == "PSEUDO_REVERSE") {
    return digest::DecoyMethod::kPseudoReverse;
  }
  if (s == "SHUFFLE") return digest::DecoyMethod::kShuffle;
  throw ConfigError("unknown decoy method: " + name +
                    " (expected none|reverse|pseudo|shuffle)");
}

std::uint32_t get_u32(const Config& config, const std::string& key,
                      std::uint32_t fallback) {
  const std::int64_t v = config.get_int(key, fallback);
  if (v < 0 || v > std::numeric_limits<std::uint32_t>::max()) {
    throw ConfigError("config key '" + key + "' out of range");
  }
  return static_cast<std::uint32_t>(v);
}

}  // namespace

void AppOptions::validate() const {
  if (lbe.partition.ranks < 1) {
    throw ConfigError("ranks must be >= 1");
  }
  if (threads < 1) {
    throw ConfigError("threads must be >= 1");
  }
  if (batch < 1) {
    throw ConfigError("batch must be >= 1");
  }
  if (queue_depth < 1) {
    throw ConfigError("queue_depth must be >= 1");
  }
  if (serve_workers < 1) {
    throw ConfigError("workers must be >= 1");
  }
  if (fdr_threshold <= 0.0 || fdr_threshold > 1.0) {
    throw ConfigError("fdr must be in (0, 1]");
  }
  if (!plan_path.empty() && !fasta_path.empty()) {
    throw ConfigError("give either 'plan' or 'db', not both");
  }
  digestion.validate();
  lbe.grouping.validate();
  lbe.partition.validate();
  search.schedule.validate();
}

AppOptions options_from_config(const Config& config) {
  for (const auto& key : config.keys()) {
    if (!known_key(key)) {
      throw ConfigError("unknown config key: " + key);
    }
  }

  AppOptions opts;
  opts.fasta_path = config.get_string("db", "");
  opts.ms2_path = config.get_string("queries", "");
  opts.plan_path = config.get_string("plan", "");
  opts.index_dir = config.get_string("index", "");
  opts.index_out_dir = config.get_string("index_out", "");
  opts.simd = config.get_string("simd", "auto");
  {
    index::codec::SimdLevel level;
    if (!index::codec::parse_simd_level(opts.simd, level)) {
      throw ConfigError("unknown simd level: " + opts.simd +
                        " (expected auto|scalar|sse|avx2)");
    }
  }
  opts.out_dir = config.get_string("out", ".");

  opts.target_entries =
      static_cast<std::uint64_t>(config.get_int("entries", 50000));
  opts.num_queries = get_u32(config, "num_queries", 64);
  opts.seed = static_cast<std::uint64_t>(config.get_int("seed", 2019));

  opts.enzyme_name = config.get_string("enzyme", "trypsin");
  opts.digestion.missed_cleavages = get_u32(config, "missed_cleavages", 2);
  opts.digestion.min_length = get_u32(config, "min_length", 6);
  opts.digestion.max_length = get_u32(config, "max_length", 40);
  opts.digestion.min_mass = config.get_double("min_mass", 100.0);
  opts.digestion.max_mass = config.get_double("max_mass", 5000.0);
  opts.decoy_method = decoy_method_from_string(
      config.get_string("decoy", "pseudo"), opts.add_decoys);
  opts.mods_spec = config.get_string("mods", "paper");
  opts.variants.max_mod_residues = get_u32(config, "max_mod_residues", 5);
  opts.variants.max_variants_per_peptide = static_cast<std::uint64_t>(
      config.get_int("max_variants_per_peptide", 0));

  opts.lbe.partition.policy =
      core::policy_from_string(config.get_string("policy", "cyclic"));
  opts.lbe.partition.ranks =
      static_cast<int>(config.get_int("ranks", 4));
  opts.lbe.partition.seed =
      static_cast<std::uint64_t>(config.get_int("partition_seed", 42));
  const std::int64_t criterion = config.get_int("criterion", 2);
  if (criterion != 1 && criterion != 2) {
    throw ConfigError("criterion must be 1 or 2");
  }
  opts.lbe.grouping.criterion = criterion == 1
                                    ? core::GroupingCriterion::kAbsolute
                                    : core::GroupingCriterion::kNormalized;
  opts.lbe.grouping.d = get_u32(config, "d", 2);
  opts.lbe.grouping.d_prime = config.get_double("d_prime", 0.86);
  opts.lbe.grouping.gsize = get_u32(config, "gsize", 20);

  opts.search.index.resolution = config.get_double("resolution", 0.01);
  opts.search.index.max_fragment_mz =
      config.get_double("max_fragment_mz", 2000.0);
  const std::uint32_t max_charge = get_u32(config, "max_fragment_charge", 1);
  if (max_charge < 1 || max_charge > 255) {
    throw ConfigError("max_fragment_charge must be in [1, 255]");
  }
  opts.search.index.fragments.max_fragment_charge =
      static_cast<Charge>(max_charge);
  opts.search.search.filter.fragment_tolerance =
      config.get_double("fragment_tolerance", 0.05);
  opts.search.search.filter.shared_peak_min =
      get_u32(config, "shared_peak_min", 4);
  opts.search.search.filter.precursor_tolerance = config.get_double(
      "precursor_tolerance", std::numeric_limits<double>::infinity());
  // --open-window is the open-search spelling of the precursor window: a
  // half-width in Da, or "inf" for a fully open search. It wins over
  // precursor_tolerance when both are given.
  {
    const std::string open_window = config.get_string("open_window", "");
    if (!open_window.empty()) {
      const std::string upper = str::to_upper(open_window);
      if (upper == "INF" || upper == "INFINITY") {
        opts.search.search.filter.precursor_tolerance =
            std::numeric_limits<double>::infinity();
      } else {
        const double width = config.get_double("open_window", 0.0);
        if (!(width >= 0.0)) {
          throw ConfigError("open_window must be >= 0 Da (or 'inf')");
        }
        opts.search.search.filter.precursor_tolerance = width;
      }
    }
  }
  opts.search.search.filter.prune_blocks = config.get_bool("prune", true);
  opts.ptm_fraction = config.get_double("ptm_fraction", 0.0);
  if (opts.ptm_fraction < 0.0 || opts.ptm_fraction > 1.0) {
    throw ConfigError("ptm_fraction must be in [0, 1]");
  }
  opts.search.search.score.fragments = opts.search.index.fragments;
  opts.search.search.top_k = get_u32(config, "top_k", 5);
  opts.fdr_threshold = config.get_double("fdr", 0.02);

  opts.threads = get_u32(config, "threads", 1);
  opts.batch = get_u32(config, "batch", 64);
  opts.backend = config.get_string("backend", "virtual");
  if (opts.backend != "virtual" && opts.backend != "threads" &&
      opts.backend != "process") {
    throw ConfigError("unknown backend: " + opts.backend +
                      " (expected virtual|threads|process)");
  }
  opts.socket_path = config.get_string("socket", "");
  opts.queue_depth = get_u32(config, "queue_depth", 64);
  opts.serve_workers = get_u32(config, "workers", 1);
  opts.send_shutdown = config.get_bool("shutdown", false);
  opts.search.threads_per_rank = opts.threads;
  opts.search.result_batch = opts.batch;

  opts.search.schedule.schedule =
      core::schedule_from_string(config.get_string("schedule", "lbe_static"));
  opts.search.schedule.steal_threshold =
      config.get_double("steal_threshold", 1.2);

  opts.write_report = config.get_bool("report", true);
  opts.verify_baseline = config.get_bool("verify", false);
  opts.source = config;

  opts.validate();
  return opts;
}

CliInvocation parse_cli(int argc, const char* const* argv) {
  CliInvocation cli;
  if (argc < 2) {
    cli.subcommand = "help";
    return cli;
  }
  cli.subcommand = argv[1];
  if (cli.subcommand == "-h" || cli.subcommand == "--help") {
    cli.subcommand = "help";
    return cli;
  }

  Config overrides;
  std::string config_path;
  int i = 2;
  while (i < argc) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || arg.size() <= 2) {
      throw ConfigError("expected --key [value], got: " + arg);
    }
    arg = arg.substr(2);
    std::string key;
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      ++i;
    } else {
      key = arg;
      // `--flag` followed by another option (or end of line) means `true`.
      if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[i + 1];
        i += 2;
      } else {
        value = "true";
        ++i;
      }
    }
    // CLI convenience: dashes and underscores are interchangeable in option
    // names (--index-out == --index_out); config-file keys stay canonical.
    std::replace(key.begin(), key.end(), '-', '_');
    if (key == "config") {
      config_path = value;
    } else {
      if (!known_key(key)) {
        throw ConfigError("unknown option: --" + key);
      }
      overrides.set(key, value);
    }
  }

  if (!config_path.empty()) {
    cli.config = Config::from_file(config_path);
  }
  // CLI overrides beat the config file.
  for (const auto& key : overrides.keys()) {
    cli.config.set(key, overrides.get_string(key));
  }
  return cli;
}

const char* usage() {
  return R"(lbectl — end-to-end LBE peptide-search driver

Usage:
  lbectl <prepare|search|stats|serve|query> [--config FILE] [--key value]...

Subcommands:
  prepare   build the LBE plan and per-rank indexes, serialize to --out
  search    run the full distributed pipeline and write PSM/metrics reports
  stats     print partition load-balance statistics for the configured plan
  serve     long-lived daemon: map the index bundle once, answer query
            batches over a Unix-domain socket (SIGHUP = hot-swap reload)
  query     client: send the query set to a running daemon, write psms.tsv

Common options (config-file keys and --key overrides are identical;
dashes in CLI option names are accepted as underscores):
  --db FILE            protein FASTA (omit for a synthetic proteome)
  --queries FILE       query MS2 file (omit for synthetic spectra)
  --plan FILE          plan file from `lbectl prepare` (instead of --db)
  --index DIR          warm start: mmap the per-rank index bundle written by
                       `prepare --index-out` instead of rebuilding; each
                       chunk is CRC-checked on first query touch (falls
                       back to a rebuild, with a warning, on any mismatch)
  --simd LEVEL         posting-decode kernel of the span walk, for built
                       and mapped indexes alike: auto|scalar|sse|avx2
                       (default auto = widest ISA the CPU supports).
                       Results are byte-identical at every level;
                       unsupported requests degrade with a notice
  --index_out DIR      prepare: index bundle directory (default: --out)
  --out DIR            output directory (default .)
  --entries N          synthetic index-entry target        (default 50000)
  --num_queries N      synthetic query count               (default 64)
  --seed N             synthetic workload seed             (default 2019)
  --policy NAME        chunk|cyclic|random|weighted        (default cyclic)
  --ranks N            simulated MPI ranks                 (default 4)
  --backend NAME       search rank transport: virtual|threads|process.
                       virtual/threads simulate the cluster in-process;
                       process forks one OS worker per rank, exchanging the
                       same messages over Unix-domain sockets while all
                       ranks share one read-only mmap of the index bundle.
                       Results are byte-identical across backends
  --threads N          threads per rank (hybrid mode)      (default 1)
  --batch N            queries per result batch            (default 64)
  --decoy NAME         none|reverse|pseudo|shuffle         (default pseudo)
  --fdr Q              q-value acceptance threshold        (default 0.02)
  --verify             also run the shared-memory baseline and compare
  --report BOOL        write psms.tsv + metrics.csv        (default true)

Open-search options:
  --open-window W      precursor window half-width in Da, or `inf` for a
                       fully open search (alias for --precursor_tolerance;
                       wins when both are given)
  --prune BOOL         block-max span pruning: skip posting blocks whose
                       v5 mass bounds miss the precursor window (a no-op
                       at `inf`; default true). Results are byte-identical
                       with pruning on or off — the ctest
                       lbectl_open_prune_equivalence checks it
  --ptm_fraction F     synthetic spectra only: fraction of queries carrying
                       an unannounced PTM-like mass shift   (default 0)

Scheduling options (search):
  --schedule NAME      lbe_static|stealing                 (default lbe_static)
                       Both run one protocol: each rank searches its own
                       batch queue, then asks the master for more work.
                       lbe_static: the paper's fixed placement; the master
                       answers `done`. stealing: idle ranks claim query
                       batches from the most-loaded rank's unstarted tail;
                       psms.tsv stays byte-identical to lbe_static on every
                       backend (ctest lbectl_schedule_equivalence)
  --steal_threshold F  steal only from a rank whose backlog is at least F x
                       the mean remaining load                (default 1.2)

Serving options:
  --socket PATH        serve/query: Unix-domain socket path (required)
  --queue_depth N      serve: bounded request-queue depth   (default 64)
  --workers N          serve: concurrent search batches     (default 1)
  --shutdown           query: ask the daemon to exit after the batch

Examples:
  lbectl search --ranks 4 --threads 4 --verify
  lbectl search --open-window 100 --ptm_fraction 0.5
  lbectl prepare --db proteins.fasta --out run1
  lbectl search --plan run1/plan.lbe --queries spectra.ms2 --out run1
  lbectl search --plan run1/plan.lbe --index run1 --out run1
  lbectl search --plan run1/plan.lbe --index run1 --backend process
  lbectl search --ranks 8 --schedule stealing --steal-threshold 1.5
  lbectl serve --plan run1/plan.lbe --index run1 --socket /tmp/lbe.sock
  lbectl query --plan run1/plan.lbe --socket /tmp/lbe.sock --out client
  lbectl stats --policy chunk --ranks 16
)";
}

}  // namespace lbe::app
