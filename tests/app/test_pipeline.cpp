// Integration tests for the lbectl driver layer: the full synthetic
// workload (synth::proteome + synth::spectra) flows through the same
// functions the binary runs, and the distributed result set must equal the
// shared-memory baseline over build_global_store while FDR output stays
// non-empty and deterministic.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "app/commands.hpp"
#include "app/options.hpp"
#include "app/pipeline.hpp"
#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "index/serialize.hpp"
#include "search/distributed.hpp"

namespace lbe::app {
namespace {

AppOptions small_options(const std::string& extra = "") {
  const std::string text =
      "entries = 15000\n"
      "num_queries = 24\n"
      "ranks = 4\n"
      "threads = 4\n"
      "batch = 8\n"
      "report = false\n" +
      extra;
  return options_from_config(Config::from_string(text));
}

AppOptions small_options_without_ranks() {
  return options_from_config(
      Config::from_string("entries = 15000\nreport = false\n"));
}

TEST(LbectlPipeline, DistributedMatchesSharedBaselineExactly) {
  const AppOptions opts = small_options();
  const PipelineInputs inputs = prepare_inputs(opts);
  const PlanBundle plan = build_plan(inputs.database, opts);
  const SearchOutcome outcome =
      run_search_pipeline(plan, inputs.queries, opts);

  // compare_with_baseline runs the identical engine over the global store
  // (plan.build_global_store()) in one address space.
  EXPECT_EQ(compare_with_baseline(plan, inputs.queries, opts, outcome), 0u);
}

TEST(LbectlPipeline, FdrOutputNonEmptyAndDeterministic) {
  const AppOptions opts = small_options();

  auto run_once = [&] {
    const PipelineInputs inputs = prepare_inputs(opts);
    const PlanBundle plan = build_plan(inputs.database, opts);
    return run_search_pipeline(plan, inputs.queries, opts);
  };
  const SearchOutcome first = run_once();
  const SearchOutcome second = run_once();

  ASSERT_FALSE(first.fdr_inputs.empty());
  ASSERT_EQ(first.fdr_inputs.size(), first.qvalues.size());
  EXPECT_GT(first.accepted, 0u);

  ASSERT_EQ(first.fdr_inputs.size(), second.fdr_inputs.size());
  for (std::size_t i = 0; i < first.fdr_inputs.size(); ++i) {
    EXPECT_EQ(first.fdr_inputs[i].score, second.fdr_inputs[i].score) << i;
    EXPECT_EQ(first.fdr_inputs[i].is_decoy, second.fdr_inputs[i].is_decoy)
        << i;
    EXPECT_EQ(first.qvalues[i], second.qvalues[i]) << i;
  }
  EXPECT_EQ(first.accepted, second.accepted);
}

TEST(LbectlPipeline, HybridThreadsDoNotChangeResults) {
  const AppOptions serial = small_options("threads = 1\n");
  const AppOptions hybrid = small_options("threads = 4\nbatch = 5\n");

  const PipelineInputs inputs = prepare_inputs(serial);
  const PlanBundle plan = build_plan(inputs.database, serial);
  const SearchOutcome a = run_search_pipeline(plan, inputs.queries, serial);
  const SearchOutcome b = run_search_pipeline(plan, inputs.queries, hybrid);

  ASSERT_EQ(a.report.results.size(), b.report.results.size());
  for (std::size_t q = 0; q < a.report.results.size(); ++q) {
    const auto& ta = a.report.results[q].top;
    const auto& tb = b.report.results[q].top;
    ASSERT_EQ(ta.size(), tb.size()) << q;
    for (std::size_t k = 0; k < ta.size(); ++k) {
      EXPECT_EQ(ta[k].peptide, tb[k].peptide) << q;
      EXPECT_EQ(ta[k].score, tb[k].score) << q;
    }
  }
}

TEST(LbectlPipeline, DatabaseCarriesDecoysForFdr) {
  const AppOptions opts = small_options();
  const DatabaseBundle db = build_database(opts);
  std::size_t decoys = 0;
  for (const bool flag : db.is_decoy) decoys += flag ? 1 : 0;
  EXPECT_GT(decoys, 0u);
  EXPECT_LT(decoys, db.peptides.size());

  // Decoy flags must survive the clustered permutation.
  const PlanBundle plan = build_plan(db, opts);
  ASSERT_EQ(plan.decoy_bases.size(), db.peptides.size());
  std::size_t clustered_decoys = 0;
  for (const bool flag : plan.decoy_bases) clustered_decoys += flag ? 1 : 0;
  EXPECT_EQ(clustered_decoys, decoys);
}

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The acceptance path for `search --index`: a warm start over the saved
// bundle must produce a byte-identical psms.tsv to the cold rebuild —
// whether chunks materialize lazily (index_mmap, the default) or all up
// front (index_mmap = false, prepare's self-check). Both map every rank.
TEST(LbectlPipeline, WarmStartSearchIsByteIdenticalToColdRebuild) {
  const AppOptions opts = small_options();
  const PipelineInputs inputs = prepare_inputs(opts);
  const PlanBundle plan = build_plan(inputs.database, opts);

  const std::string dir = ::testing::TempDir() + "/lbe_warm_start";
  index::save_index_bundle(dir,
                           build_index_bundle(plan, inputs.database, opts));

  const SearchOutcome cold = run_search_pipeline(plan, inputs.queries, opts);
  const std::string cold_dir = dir + "/cold";
  write_reports(cold_dir, plan, cold);
  const std::string cold_psms = slurp(cold_dir + "/psms.tsv");
  EXPECT_FALSE(cold_psms.empty());

  for (const bool lazy : {true, false}) {
    AppOptions warm_opts = opts;
    warm_opts.index_mmap = lazy;
    const auto warm =
        try_load_warm_indexes(dir, plan, inputs.database, warm_opts);
    ASSERT_NE(warm, nullptr);
    for (const auto& rank : warm->per_rank) {
      EXPECT_TRUE(rank->mapped());
      EXPECT_GT(rank->mapped_bytes(), 0u);
      EXPECT_EQ(rank->num_chunks_loaded(), lazy ? 0u : rank->num_chunks());
    }
    const SearchOutcome warmed =
        run_search_pipeline(plan, inputs.queries, warm_opts, warm.get());
    for (std::size_t rank = 0; rank < warm->per_rank.size(); ++rank) {
      EXPECT_EQ(warmed.report.mapped_bytes[rank],
                warm->per_rank[rank]->mapped_bytes());
    }
    const std::string warm_dir =
        dir + (lazy ? "/warm_lazy" : "/warm_materialized");
    write_reports(warm_dir, plan, warmed);
    EXPECT_EQ(cold_psms, slurp(warm_dir + "/psms.tsv"))
        << (lazy ? "lazy" : "materialized") << " warm start diverged";
  }
  fs::remove_all(dir);
}

// The self-check (index_mmap = false) must still verify every byte of
// every chunk: one flipped byte inside a chunk payload is an IoError at
// load, while a lazy load only finds it on first touch.
TEST(LbectlPipeline, SelfCheckVerifiesEveryChunk) {
  AppOptions opts = small_options();
  opts.search.chunking.max_chunk_entries = 500;  // several chunks per rank
  const PipelineInputs inputs = prepare_inputs(opts);
  const PlanBundle plan = build_plan(inputs.database, opts);

  const std::string dir = ::testing::TempDir() + "/lbe_self_check";
  index::save_index_bundle(dir,
                           build_index_bundle(plan, inputs.database, opts));
  AppOptions self_check = opts;
  self_check.index_mmap = false;
  std::size_t rank0_chunks = 0;
  {
    const auto clean =
        try_load_warm_indexes(dir, plan, inputs.database, self_check);
    ASSERT_NE(clean, nullptr);
    for (const auto& rank : clean->per_rank) {
      EXPECT_GE(rank->num_chunks(), 3u);
      EXPECT_EQ(rank->num_chunks_loaded(), rank->num_chunks());
    }
    rank0_chunks = clean->per_rank[0]->num_chunks();
  }

  // Flip one byte in the middle of rank 0's second chunk payload, located
  // through the chunk directory: a raw-section frame ([tag u32][size u64]
  // [crc u32]) over 40-byte entries, extent offset at +16 and size at +24.
  const std::string rank_file = index::bundle_rank_path(dir, 0);
  std::string bytes = slurp(rank_file);
  const std::uint64_t dir_size = rank0_chunks * 40;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  for (std::size_t p = 16; p + dir_size <= bytes.size(); p += 8) {
    std::uint32_t tag = 0;
    std::uint64_t section_size = 0;
    std::uint32_t crc = 0;
    std::memcpy(&tag, bytes.data() + p - 16, sizeof(tag));
    std::memcpy(&section_size, bytes.data() + p - 12, sizeof(section_size));
    std::memcpy(&crc, bytes.data() + p - 4, sizeof(crc));
    if (tag != index::serialize::kSecChunkDir || section_size != dir_size ||
        bin::crc32(bytes.data() + p, dir_size) != crc) {
      continue;
    }
    std::memcpy(&offset, bytes.data() + p + 40 + 16, sizeof(offset));
    std::memcpy(&size, bytes.data() + p + 40 + 24, sizeof(size));
    break;
  }
  ASSERT_GT(size, 0u);
  ASSERT_LE(offset + size, bytes.size());
  bytes[offset + size / 2] = static_cast<char>(bytes[offset + size / 2] ^ 0x01);
  fs::remove(rank_file);  // a fresh inode: no mapping above sees the edit
  {
    std::ofstream out(rank_file, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  EXPECT_THROW(try_load_warm_indexes(dir, plan, inputs.database, self_check),
               IoError);
  const auto lazy = try_load_warm_indexes(dir, plan, inputs.database, opts);
  ASSERT_NE(lazy, nullptr);
  EXPECT_THROW(lazy->per_rank[0]->materialize_all(), IoError);
  fs::remove_all(dir);
}

// Any parameter drift between the bundle and the invocation must fall back
// to a rebuild (nullptr + warning), never silently search stale indexes.
TEST(LbectlPipeline, WarmStartRejectsMismatchedBundle) {
  const AppOptions opts = small_options();
  const PipelineInputs inputs = prepare_inputs(opts);
  const PlanBundle plan = build_plan(inputs.database, opts);

  const std::string dir = ::testing::TempDir() + "/lbe_warm_mismatch";
  index::save_index_bundle(dir,
                           build_index_bundle(plan, inputs.database, opts));

  // Different fragment resolution => IndexParams mismatch.
  AppOptions finer = opts;
  finer.search.index.resolution = 0.02;
  EXPECT_EQ(try_load_warm_indexes(dir, plan, inputs.database, finer),
            nullptr);

  // Different rank count => LBE-params (and mapping) mismatch.
  const AppOptions more_ranks = small_options("ranks = 6\n");
  const PlanBundle replanned = build_plan(inputs.database, more_ranks);
  EXPECT_EQ(try_load_warm_indexes(dir, replanned, inputs.database,
                                  more_ranks),
            nullptr);

  // A database edit that leaves every parameter and the mapping table
  // intact must still be caught, via the manifest's content fingerprint.
  DatabaseBundle edited = inputs.database;
  edited.variants.max_mod_residues += 1;
  EXPECT_EQ(try_load_warm_indexes(dir, plan, edited, opts), nullptr);
  ASSERT_FALSE(edited.peptides.empty());
  edited = inputs.database;
  edited.peptides.front()[0] = edited.peptides.front()[0] == 'A' ? 'G' : 'A';
  EXPECT_EQ(try_load_warm_indexes(dir, plan, edited, opts), nullptr);

  // The matching invocation still loads.
  EXPECT_NE(try_load_warm_indexes(dir, plan, inputs.database, opts), nullptr);
  fs::remove_all(dir);
}

// Format-version policy at the warm-start boundary: a bundle written in an
// older on-disk layout is stale, not corrupt — the loader warns and falls
// back to a rebuild (nullptr) — while a flipped payload bit in the very
// same files stays a hard IoError. Stale must never mask corrupt.
TEST(LbectlPipeline, StaleFormatVersionRebuildsButCorruptionStillThrows) {
  const AppOptions opts = small_options();
  const PipelineInputs inputs = prepare_inputs(opts);
  const PlanBundle plan = build_plan(inputs.database, opts);

  const std::string dir = ::testing::TempDir() + "/lbe_warm_version";
  index::save_index_bundle(dir,
                           build_index_bundle(plan, inputs.database, opts));
  const std::string manifest = index::bundle_manifest_path(dir);
  const std::string pristine = slurp(manifest);
  const auto rewrite = [&](const std::string& bytes) {
    std::ofstream out(manifest, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  // Patch the header's format-version field (bytes 4..8) down to v3: the
  // previous layout, recognizably LBEX, but not this reader's version.
  std::string stale = pristine;
  stale[4] = 3;
  rewrite(stale);
  EXPECT_EQ(try_load_warm_indexes(dir, plan, inputs.database, opts), nullptr);

  // A flipped bit mid-manifest is a checksum failure, not staleness.
  std::string corrupt = pristine;
  corrupt[pristine.size() / 2] =
      static_cast<char>(corrupt[pristine.size() / 2] ^ 0x20);
  rewrite(corrupt);
  EXPECT_THROW(try_load_warm_indexes(dir, plan, inputs.database, opts),
               IoError);

  // Restored, the bundle warm-starts again.
  rewrite(pristine);
  EXPECT_NE(try_load_warm_indexes(dir, plan, inputs.database, opts), nullptr);
  fs::remove_all(dir);
}

TEST(LbectlPipeline, PlanFileRoundTrips) {
  const AppOptions opts =
      small_options("policy = chunk\nranks = 6\ngsize = 12\n");
  const DatabaseBundle db = build_database(opts);

  std::stringstream buffer;
  save_plan(buffer, db, opts.lbe);
  const DatabaseBundle loaded = load_plan(buffer);

  EXPECT_EQ(loaded.peptides, db.peptides);
  EXPECT_EQ(loaded.is_decoy, db.is_decoy);
  EXPECT_EQ(loaded.mods_spec, db.mods_spec);
  EXPECT_EQ(loaded.variants.max_mod_residues, db.variants.max_mod_residues);
  EXPECT_EQ(loaded.mods.size(), db.mods.size());
  ASSERT_TRUE(loaded.stored_lbe.has_value());
  EXPECT_EQ(loaded.stored_lbe->partition.policy, core::Policy::kChunk);
  EXPECT_EQ(loaded.stored_lbe->partition.ranks, 6);
  EXPECT_EQ(loaded.stored_lbe->grouping.gsize, 12u);
}

TEST(LbectlPipeline, StoredPlanParamsUsedUnlessOverridden) {
  const AppOptions prepare_opts =
      small_options("policy = chunk\nranks = 6\n");
  DatabaseBundle db = build_database(prepare_opts);
  db.stored_lbe = prepare_opts.lbe;

  // No policy/ranks in this invocation: the prepared values win.
  const AppOptions plain = small_options_without_ranks();
  const core::LbeParams reused = effective_lbe_params(db, plain);
  EXPECT_EQ(reused.partition.policy, core::Policy::kChunk);
  EXPECT_EQ(reused.partition.ranks, 6);

  // An explicit --ranks overrides only that key.
  const AppOptions override_ranks = small_options();  // sets ranks = 4
  const core::LbeParams merged = effective_lbe_params(db, override_ranks);
  EXPECT_EQ(merged.partition.policy, core::Policy::kChunk);
  EXPECT_EQ(merged.partition.ranks, 4);
}

TEST(LbectlPipeline, PlanLoadRejectsGarbage) {
  std::stringstream buffer("definitely not a plan file");
  EXPECT_THROW(load_plan(buffer), Error);
}

TEST(LbectlCli, ParsesOverridesAndFlags) {
  const char* argv[] = {"lbectl", "search",    "--ranks", "8",
                        "--policy=chunk",      "--verify"};
  const CliInvocation cli = parse_cli(6, argv);
  EXPECT_EQ(cli.subcommand, "search");
  const AppOptions opts = options_from_config(cli.config);
  EXPECT_EQ(opts.lbe.partition.ranks, 8);
  EXPECT_EQ(opts.lbe.partition.policy, core::Policy::kChunk);
  EXPECT_TRUE(opts.verify_baseline);
}

TEST(LbectlCli, RejectsUnknownKeys) {
  const char* argv[] = {"lbectl", "search", "--rankz", "8"};
  EXPECT_THROW(parse_cli(4, argv), ConfigError);
  // Rank files are always mapped: there is no load-path key.
  EXPECT_THROW(options_from_config(Config::from_string("mmap = off\n")),
               ConfigError);
  EXPECT_THROW(options_from_config(
                   Config::from_string("definitely_unknown = 1\n")),
               ConfigError);
}

TEST(LbectlCli, RejectsInvalidValues) {
  EXPECT_THROW(options_from_config(Config::from_string("ranks = 0\n")),
               ConfigError);
  EXPECT_THROW(options_from_config(Config::from_string("batch = 0\n")),
               ConfigError);
  EXPECT_THROW(options_from_config(Config::from_string("decoy = bogus\n")),
               ConfigError);
  EXPECT_THROW(options_from_config(Config::from_string("fdr = 0\n")),
               ConfigError);
}

}  // namespace
}  // namespace lbe::app
