#include "chem/spectrum.hpp"

#include <gtest/gtest.h>

namespace lbe::chem {
namespace {

TEST(Spectrum, EmptyByDefault) {
  const Spectrum s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_DOUBLE_EQ(s.tic(), 0.0);
}

TEST(Spectrum, FinalizeSortsByMz) {
  Spectrum s;
  s.add_peak(500.0, 10.0f);
  s.add_peak(100.0, 5.0f);
  s.add_peak(300.0, 7.0f);
  s.finalize();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.mz(0), 100.0);
  EXPECT_DOUBLE_EQ(s.mz(1), 300.0);
  EXPECT_DOUBLE_EQ(s.mz(2), 500.0);
  EXPECT_FLOAT_EQ(s.intensity(0), 5.0f);
  EXPECT_FLOAT_EQ(s.intensity(2), 10.0f);
}

TEST(Spectrum, FinalizeMergesDuplicateMz) {
  Spectrum s;
  s.add_peak(200.0, 3.0f);
  s.add_peak(200.0, 4.0f);
  s.add_peak(201.0, 1.0f);
  s.finalize();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_FLOAT_EQ(s.intensity(0), 7.0f);
}

TEST(Spectrum, FinalizeMergesNearPeaksOfAscendingInput) {
  // Ascending input skips the sort but must still merge peaks closer than
  // the 1e-6 Th merge tolerance.
  Spectrum s;
  s.add_peak(100.0, 1.0f);
  s.add_peak(100.0 + 5e-7, 2.0f);
  s.add_peak(150.0, 4.0f);
  s.finalize();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.mz(0), 100.0);
  EXPECT_FLOAT_EQ(s.intensity(0), 3.0f);
  EXPECT_DOUBLE_EQ(s.mz(1), 150.0);

  Spectrum settled;
  settled.add_peak(100.0, 1.0f);
  settled.add_peak(100.001, 2.0f);
  settled.finalize();
  ASSERT_EQ(settled.size(), 2u);
  EXPECT_FLOAT_EQ(settled.intensity(1), 2.0f);
}

TEST(Spectrum, FinalizeIdempotent) {
  Spectrum s;
  s.add_peak(100.0, 1.0f);
  s.add_peak(50.0, 2.0f);
  s.finalize();
  s.finalize();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.mz(0), 50.0);
}

TEST(Spectrum, TicSumsIntensities) {
  Spectrum s;
  s.add_peak(100.0, 1.5f);
  s.add_peak(200.0, 2.5f);
  s.finalize();
  EXPECT_DOUBLE_EQ(s.tic(), 4.0);
}

TEST(Spectrum, PrecursorFieldsRoundTrip) {
  Spectrum s;
  s.precursor.mz = 750.5;
  s.precursor.charge = 2;
  s.precursor.neutral_mass = 1499.0;
  s.scan_id = 42;
  s.title = "scan42";
  EXPECT_EQ(s.precursor.charge, 2);
  EXPECT_DOUBLE_EQ(s.precursor.mz, 750.5);
  EXPECT_EQ(s.scan_id, 42u);
}

TEST(Spectrum, SinglePeakFinalizeNoop) {
  Spectrum s;
  s.add_peak(123.4, 9.0f);
  s.finalize();
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.mz(0), 123.4);
}

}  // namespace
}  // namespace lbe::chem
