// Precursor-first filtration: the window path (binary-search the mass
// order, then merge each in-window peptide's fragment bins against the
// query's spans) must emit exactly the span walk's candidates — same
// peptides, same shared-peak counts, bit-identical matched intensities —
// for random non-integer intensities, every window width, built, lazily
// mapped and fully materialized mapped indexes, chunk boundaries
// through a run of equal masses, unfinalized spectra and ties at the top-K
// cutoff. Plus the chooser that picks between the two paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "index/chunked_index.hpp"
#include "index/slm_index.hpp"
#include "search/preprocess.hpp"
#include "search/query_engine.hpp"
#include "synth/workload.hpp"
#include "theospec/fragmenter.hpp"

namespace lbe::search {
namespace {

using index::Candidate;
using index::ChunkedIndex;
using index::PeptideStore;
using index::QueryArena;
using index::QueryParams;
using index::QueryWork;
using index::SlmIndex;

constexpr double kWindows[] = {0.0, 1e-3, 0.05, 1.0, 5.0, 100.0};
constexpr std::uint32_t kSharedPeakMins[] = {1, 4};
constexpr std::size_t kDuplicateCopies = 6;

class WindowPathTest : public ::testing::Test {
 protected:
  WindowPathTest() {
    params_.resolution = 0.01;
    params_.max_fragment_mz = 2000.0;
    params_.fragments.max_fragment_charge = 2;
  }

  static synth::Workload make_workload(std::uint64_t entries) {
    synth::WorkloadParams p;
    p.target_entries = entries;
    p.num_queries = 10;
    p.seed = 2019;
    return synth::make_workload(p);
  }
  static const synth::Workload& small_workload() {
    static const synth::Workload w = make_workload(3000);
    return w;
  }
  /// Dense enough that a handful of in-window peptides cost less to check
  /// than the query's span postings, so the chooser takes the window path.
  static const synth::Workload& dense_workload() {
    static const synth::Workload w = make_workload(40000);
    return w;
  }

  /// The workload's base peptides, an oxidized variant of every
  /// M-containing one, and kDuplicateCopies extra copies of the peptide a
  /// third of the way up the mass order — a run of equal masses.
  PeptideStore make_store(const synth::Workload& workload = small_workload()) {
    PeptideStore store(&mods_);
    for (const auto& seq : workload.base_peptides) {
      store.add(chem::Peptide(seq), mods_);
      const auto m = seq.find('M');
      if (m != std::string::npos) {
        store.add(chem::Peptide(seq, {{static_cast<std::uint16_t>(m), 2}},
                                mods_),
                  mods_);
      }
    }
    const auto order = store.ids_by_mass();
    duplicate_ = store.materialize(order[order.size() / 3]);
    for (std::size_t i = 0; i < kDuplicateCopies; ++i) {
      store.add(duplicate_, mods_);
    }
    return store;
  }

  /// Workload queries plus the duplicate peptide's theoretical spectrum,
  /// all with random non-integer intensities, plus one unfinalized copy
  /// (peaks in descending m/z).
  std::vector<chem::Spectrum> make_queries(
      const synth::Workload& workload = small_workload()) {
    std::vector<chem::Spectrum> raw = workload.queries;
    raw.push_back(theospec::theoretical_spectrum(duplicate_, mods_,
                                                 params_.fragments));
    std::mt19937 rng(7);
    std::uniform_real_distribution<float> intensity(0.013f, 97.7f);
    std::vector<chem::Spectrum> out;
    for (const auto& spectrum : raw) {
      chem::Spectrum noisy;
      noisy.precursor = spectrum.precursor;
      for (std::size_t p = 0; p < spectrum.size(); ++p) {
        noisy.add_peak(spectrum.mz(p), intensity(rng));
      }
      noisy.finalize();
      out.push_back(noisy);
    }
    chem::Spectrum unfinalized;
    unfinalized.precursor = out.back().precursor;
    for (std::size_t p = out.back().size(); p-- > 0;) {
      unfinalized.add_peak(out.back().mz(p), out.back().intensity(p));
    }
    out.push_back(unfinalized);
    return out;
  }

  static QueryParams filter(double window, std::uint32_t shared_peak_min) {
    QueryParams q;
    q.fragment_tolerance = 0.05;
    q.shared_peak_min = shared_peak_min;
    q.precursor_tolerance = window;
    return q;
  }

  static std::vector<Candidate> by_peptide(std::vector<Candidate> v) {
    std::sort(v.begin(), v.end(), [](const Candidate& a, const Candidate& b) {
      return a.peptide < b.peptide;
    });
    return v;
  }

  /// Candidate for candidate, matched intensity compared bit for bit.
  static void expect_identical(const std::vector<Candidate>& expected,
                               const std::vector<Candidate>& actual,
                               const std::string& what) {
    const auto a = by_peptide(expected);
    const auto b = by_peptide(actual);
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].peptide, b[i].peptide) << what;
      EXPECT_EQ(a[i].shared_peaks, b[i].shared_peaks) << what;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(a[i].matched_intensity),
                std::bit_cast<std::uint32_t>(b[i].matched_intensity))
          << what << " peptide " << a[i].peptide;
    }
  }

  chem::ModificationSet mods_ = chem::ModificationSet::paper_default();
  index::IndexParams params_;
  chem::Peptide duplicate_;
};

TEST_F(WindowPathTest, MatchesSpanWalkBitForBit) {
  const PeptideStore store = make_store();
  const auto queries = make_queries();
  const SlmIndex index(store, mods_, params_);
  QueryArena arena;
  std::size_t emitted = 0;
  for (const double window : kWindows) {
    for (const std::uint32_t min : kSharedPeakMins) {
      const QueryParams q = filter(window, min);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        std::vector<Candidate> walk;
        std::vector<Candidate> windowed;
        QueryWork walk_work;
        QueryWork window_work;
        index.query(queries[i], q, walk, walk_work, arena);
        index.query_window(queries[i], q, windowed, window_work, arena);
        expect_identical(walk, windowed,
                         "window " + std::to_string(window) + " min " +
                             std::to_string(min) + " query " +
                             std::to_string(i));
        EXPECT_EQ(walk_work.candidates, window_work.candidates);
        EXPECT_EQ(window_work.postings_touched, 0u);
        emitted += windowed.size();
      }
    }
  }
  EXPECT_GT(emitted, 0u);
}

TEST_F(WindowPathTest, ChunkedChooserMatchesFlatWalkInEveryForm) {
  // The flat single index's span walk is the oracle.
  const PeptideStore flat_store = make_store(dense_workload());
  const SlmIndex flat(flat_store, mods_, params_);

  // Three chunks, the first boundary cutting the run of equal masses.
  const auto order = flat_store.ids_by_mass();
  const Mass dup_mass = duplicate_.mass(mods_);
  const auto first_dup = static_cast<std::size_t>(
      std::find_if(order.begin(), order.end(),
                   [&](LocalPeptideId id) {
                     return flat_store.mass(id) == dup_mass;
                   }) -
      order.begin());
  index::ChunkingParams chunking;
  chunking.max_chunk_entries = first_dup + 3;
  const std::string path = ::testing::TempDir() + "/window_path_chunks.idx";
  {
    const ChunkedIndex built(make_store(dense_workload()), mods_, params_,
                             chunking);
    ASSERT_EQ(built.num_chunks(), 3u);
    ASSERT_EQ(built.chunk_mass_range(0).second,
              built.chunk_mass_range(1).first);
    built.save_file(path);
  }

  std::vector<std::unique_ptr<ChunkedIndex>> forms;
  forms.push_back(std::make_unique<ChunkedIndex>(
      make_store(dense_workload()), mods_, params_, chunking));
  forms.push_back(ChunkedIndex::map_file(path, mods_, params_));
  forms.push_back(ChunkedIndex::map_file(path, mods_, params_));
  forms.back()->materialize_all();
  const char* names[] = {"built", "mapped", "materialized"};

  const auto queries = make_queries(dense_workload());
  QueryArena arena;
  for (std::size_t f = 0; f < forms.size(); ++f) {
    QueryWork narrow_work;
    QueryWork wide_work;
    for (const double window : kWindows) {
      for (const std::uint32_t min : kSharedPeakMins) {
        const QueryParams q = filter(window, min);
        for (std::size_t i = 0; i < queries.size(); ++i) {
          std::vector<Candidate> expected;
          QueryWork flat_work;
          flat.query(queries[i], q, expected, flat_work, arena);
          std::vector<Candidate> actual;
          QueryWork& work = window <= 1.0 ? narrow_work : wide_work;
          forms[f]->query(queries[i], q, actual, work, arena);
          expect_identical(expected, actual,
                           std::string(names[f]) + " window " +
                               std::to_string(window) + " min " +
                               std::to_string(min) + " query " +
                               std::to_string(i));
        }
      }
    }
    // Narrow windows take the window path, the 100 Da one walks.
    EXPECT_GT(narrow_work.fragment_bins, 0u) << names[f];
    EXPECT_GT(wide_work.postings_touched, 0u) << names[f];
  }
}

TEST_F(WindowPathTest, TopKTiesResolveIdenticallyOnEitherPath) {
  // The duplicate's spectrum ties kDuplicateCopies + 1 candidates at the
  // top; top_k = 3 cuts through the tie, which the engine breaks by id.
  const PeptideStore flat_store = make_store(dense_workload());
  const SlmIndex flat(flat_store, mods_, params_);
  const ChunkedIndex chunked(make_store(dense_workload()), mods_, params_,
                             index::ChunkingParams{});
  SearchParams params;
  params.top_k = 3;
  params.rescore_depth = 0;
  params.filter = filter(0.05, 4);
  const QueryEngine engine(chunked, mods_, params);

  const auto queries = make_queries(dense_workload());
  const chem::Spectrum& raw = queries[queries.size() - 2];
  QueryWork work;
  const QueryResult result = engine.search(raw, 0, work);
  ASSERT_GT(work.fragment_bins, 0u) << "the window path did not run";
  EXPECT_EQ(work.postings_touched, 0u);

  std::vector<Candidate> oracle;
  QueryWork flat_work;
  flat.query(preprocess(raw, params.preprocess), params.filter, oracle,
             flat_work);
  std::sort(oracle.begin(), oracle.end(),
            [](const Candidate& a, const Candidate& b) {
              const double sa = filter_score(a.shared_peaks,
                                             a.matched_intensity);
              const double sb = filter_score(b.shared_peaks,
                                             b.matched_intensity);
              if (sa != sb) return sa > sb;
              if (a.shared_peaks != b.shared_peaks) {
                return a.shared_peaks > b.shared_peaks;
              }
              return a.peptide < b.peptide;
            });
  ASSERT_GE(oracle.size(), kDuplicateCopies + 1);
  ASSERT_EQ(result.top.size(), 3u);
  EXPECT_EQ(result.candidates, oracle.size());
  for (std::size_t k = 0; k < result.top.size(); ++k) {
    EXPECT_EQ(result.top[k].peptide, oracle[k].peptide);
    EXPECT_EQ(result.top[k].shared_peaks, oracle[k].shared_peaks);
  }
  // The tie really reaches past the cutoff.
  EXPECT_EQ(oracle[2].shared_peaks, oracle[3].shared_peaks);
  EXPECT_EQ(oracle[2].matched_intensity, oracle[3].matched_intensity);
}

TEST_F(WindowPathTest, ChooserWeighsExactCounts) {
  const PeptideStore store = make_store();
  const SlmIndex index(store, mods_, params_);
  const auto occupancy = index.bin_occupancy();
  const auto queries = make_queries();
  QueryArena arena;
  std::size_t chose_window = 0;
  for (const auto& query : queries) {
    std::vector<Candidate> out;
    QueryWork work;
    index.query(query, filter(0.05, 4), out, work, arena);  // builds spans
    const Mass mass = query.precursor.neutral_mass;

    std::uint64_t postings = 0;
    for (const auto& span : arena.spans) {
      for (index::MzBin b = span.lo; b < span.hi; ++b) postings += occupancy[b];
    }
    std::uint64_t in_window = 0;
    for (LocalPeptideId id = 0; id < store.size(); ++id) {
      if (std::abs(store.mass(id) - mass) <= 0.05) ++in_window;
    }

    const index::FiltrationPlan plan =
        index.plan_filtration(mass, 0.05, arena.spans);
    EXPECT_EQ(plan.span_postings, postings);
    EXPECT_EQ(plan.window_end - plan.window_begin, in_window);
    EXPECT_DOUBLE_EQ(plan.window_bins,
                     static_cast<double>(in_window) *
                         static_cast<double>(index.num_postings()) /
                         static_cast<double>(store.size()));
    EXPECT_EQ(plan.use_window,
              index::kWindowBinCost * plan.window_bins <
                  static_cast<double>(plan.span_postings));
    EXPECT_DOUBLE_EQ(plan.cost(),
                     plan.use_window
                         ? index::kWindowBinCost * plan.window_bins
                         : static_cast<double>(plan.span_postings));
    if (plan.use_window) ++chose_window;

    // An open window never takes the window path; a window holding every
    // peptide costs more than the walk.
    const index::FiltrationPlan open = index.plan_filtration(
        mass, std::numeric_limits<double>::infinity(), arena.spans);
    EXPECT_FALSE(open.use_window);
    EXPECT_EQ(open.window_end, open.window_begin);
    EXPECT_EQ(open.span_postings, postings);
    const index::FiltrationPlan all =
        index.plan_filtration(mass, 1e6, arena.spans);
    EXPECT_EQ(all.window_end - all.window_begin, store.size());
    EXPECT_FALSE(all.use_window);
  }
  EXPECT_GT(chose_window, 0u);
}

}  // namespace
}  // namespace lbe::search
