// Round-trip coverage for the steal-protocol control messages and the setup's
// schedule byte. The search payloads (spectra, setup, result batches) are
// exercised end to end by the process-backend equivalence tests; the control messages are small enough
// that a field dropped from a codec would only show up as a subtle
// scheduling bug, so they get explicit field-by-field checks here.
#include "search/wire.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace lbe::search {
namespace {

TEST(WireSteal, StealRequestRoundTrip) {
  wire::StealRequest request;
  request.batches_executed = 0x1122334455667788ULL;
  const wire::StealRequest out =
      wire::decode_steal_request(wire::encode_steal_request(request));
  EXPECT_EQ(out.batches_executed, request.batches_executed);
}

TEST(WireSteal, StealGrantWorkRoundTrip) {
  wire::StealGrant grant;
  grant.done = false;
  grant.index_rank = 5;
  grant.query_lo = 96;
  grant.query_hi = 128;
  const wire::StealGrant out =
      wire::decode_steal_grant(wire::encode_steal_grant(grant));
  EXPECT_FALSE(out.done);
  EXPECT_EQ(out.index_rank, grant.index_rank);
  EXPECT_EQ(out.query_lo, grant.query_lo);
  EXPECT_EQ(out.query_hi, grant.query_hi);
}

TEST(WireSteal, StealGrantDoneRoundTrip) {
  wire::StealGrant grant;
  grant.done = true;
  const wire::StealGrant out =
      wire::decode_steal_grant(wire::encode_steal_grant(grant));
  EXPECT_TRUE(out.done);
}

TEST(WireSteal, StealTailCutRoundTrip) {
  wire::StealTailCut cut;
  cut.new_tail = 7;
  const wire::StealTailCut out =
      wire::decode_steal_tail_cut(wire::encode_steal_tail_cut(cut));
  EXPECT_EQ(out.new_tail, cut.new_tail);
}

TEST(WireSteal, RankStatsCarriesStealCounters) {
  wire::RankStats stats;
  stats.times.start = 1.0;
  stats.times.build_done = 2.0;
  stats.times.query_start = 3.0;
  stats.times.query_done = 4.0;
  stats.times.finish = 5.0;
  stats.work.postings_touched = 42;
  stats.index_bytes = 1 << 20;
  stats.mapped_bytes = (std::uint64_t{1} << 33) + 7;  // > 4 GiB, odd
  stats.index_entries = 12345;
  stats.batches_executed = 17;
  stats.batches_stolen = 5;
  const wire::RankStats out =
      wire::decode_rank_stats(wire::encode_rank_stats(stats));
  EXPECT_EQ(out.times.query_done, stats.times.query_done);
  EXPECT_EQ(out.work.postings_touched, stats.work.postings_touched);
  EXPECT_EQ(out.index_bytes, stats.index_bytes);
  EXPECT_EQ(out.mapped_bytes, stats.mapped_bytes);
  EXPECT_EQ(out.index_entries, stats.index_entries);
  EXPECT_EQ(out.batches_executed, stats.batches_executed);
  EXPECT_EQ(out.batches_stolen, stats.batches_stolen);
}

// A truncated control payload must surface as CommError (defensive decode),
// never as UB — a dying worker's half-written buffer reaching the master's
// steal loop is exactly the fault-injection scenario tests/app covers.
TEST(WireSteal, TruncatedPayloadThrows) {
  mpi::Bytes bytes = wire::encode_steal_grant(wire::StealGrant{});
  bytes.pop_back();
  EXPECT_THROW(wire::decode_steal_grant(bytes), CommError);

  mpi::Bytes cut = wire::encode_steal_tail_cut(wire::StealTailCut{});
  cut.pop_back();
  EXPECT_THROW(wire::decode_steal_tail_cut(cut), CommError);

  mpi::Bytes request = wire::encode_steal_request(wire::StealRequest{});
  request.pop_back();
  EXPECT_THROW(wire::decode_steal_request(request), CommError);
}

// Trailing garbage after a well-formed message is also a shape error: the
// codecs define the whole payload, so extra bytes mean a framing bug.
TEST(WireSteal, TrailingBytesThrow) {
  mpi::Bytes bytes = wire::encode_steal_request(wire::StealRequest{});
  bytes.push_back(0);
  EXPECT_THROW(wire::decode_steal_request(bytes), CommError);
}

// The setup's schedule byte admits exactly the two live schedules: 1 (the
// retired probe-and-re-plan schedule) and anything above kStealing are a
// typed rejection, not a worker running an unknown protocol.
TEST(WireSetup, ScheduleByteRoundTripsAndRejectsUnknownValues) {
  wire::SearchSetup setup;
  setup.bundle_dir = "bundle";
  setup.schedule.schedule = core::Schedule::kStealing;
  setup.schedule.steal_threshold = 1.5;
  const wire::SearchSetup out =
      wire::decode_search_setup(wire::encode_search_setup(setup));
  EXPECT_EQ(out.schedule.schedule, core::Schedule::kStealing);
  EXPECT_EQ(out.schedule.steal_threshold, 1.5);

  for (const int value : {1, 3, 255}) {
    setup.schedule.schedule = static_cast<core::Schedule>(value);
    EXPECT_THROW(wire::decode_search_setup(wire::encode_search_setup(setup)),
                 CommError)
        << "schedule byte " << value;
  }
}

}  // namespace
}  // namespace lbe::search
