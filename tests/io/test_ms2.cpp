#include "io/ms2.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "chem/mass.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace lbe::io {
namespace {

constexpr const char* kSample =
    "H\tCreationDate\t2019-03-01\n"
    "H\tExtractor\tmsconvert\n"
    "S\t1\t1\t750.4000\n"
    "Z\t2\t1499.7927\n"
    "100.1 10.5\n"
    "200.2 20.0\n"
    "S\t2\t2\t500.2500\n"
    "150.0 5.0\n";

TEST(Ms2, ParsesHeadersScansAndPeaks) {
  std::istringstream in(kSample);
  const auto file = read_ms2(in);
  EXPECT_EQ(file.headers.at("Extractor"), "msconvert");
  ASSERT_EQ(file.spectra.size(), 2u);

  const auto& first = file.spectra[0];
  EXPECT_EQ(first.scan_id, 1u);
  EXPECT_DOUBLE_EQ(first.precursor.mz, 750.4);
  EXPECT_EQ(first.precursor.charge, 2);
  // Z line stores (M+H)+; neutral = value - proton.
  EXPECT_NEAR(first.precursor.neutral_mass, 1499.7927 - chem::kProton, 1e-6);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_DOUBLE_EQ(first.mz(0), 100.1);
  EXPECT_FLOAT_EQ(first.intensity(1), 20.0f);

  const auto& second = file.spectra[1];
  EXPECT_EQ(second.scan_id, 2u);
  EXPECT_EQ(second.precursor.charge, 0);  // no Z line
  ASSERT_EQ(second.size(), 1u);
}

// msconvert on Windows emits CRLF; a surviving '\r' used to be able to
// corrupt header values and peak fields. The CRLF file must parse exactly
// like its LF twin, with no '\r' anywhere in the parsed values.
TEST(Ms2, CrlfInputParsesIdenticallyToLf) {
  std::string crlf;
  for (const char c : std::string(kSample)) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  std::istringstream lf_in(kSample);
  std::istringstream crlf_in(crlf);
  const auto lf = read_ms2(lf_in);
  const auto windows = read_ms2(crlf_in);

  ASSERT_EQ(windows.headers.size(), lf.headers.size());
  for (const auto& [key, value] : lf.headers) {
    ASSERT_TRUE(windows.headers.count(key)) << key;
    EXPECT_EQ(windows.headers.at(key), value);
    EXPECT_EQ(value.find('\r'), std::string::npos);
  }
  ASSERT_EQ(windows.spectra.size(), lf.spectra.size());
  for (std::size_t s = 0; s < lf.spectra.size(); ++s) {
    const auto& a = lf.spectra[s];
    const auto& b = windows.spectra[s];
    EXPECT_EQ(b.scan_id, a.scan_id);
    EXPECT_DOUBLE_EQ(b.precursor.mz, a.precursor.mz);
    EXPECT_EQ(b.precursor.charge, a.precursor.charge);
    EXPECT_DOUBLE_EQ(b.precursor.neutral_mass, a.precursor.neutral_mass);
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_DOUBLE_EQ(b.mz(i), a.mz(i));
      EXPECT_FLOAT_EQ(b.intensity(i), a.intensity(i));
    }
  }
}

TEST(Ms2, AcceptsSpaceOrTabSeparators) {
  std::istringstream in("S 3 3 400.0\n100.0\t1.0\n");
  const auto file = read_ms2(in);
  ASSERT_EQ(file.spectra.size(), 1u);
  EXPECT_EQ(file.spectra[0].scan_id, 3u);
  EXPECT_EQ(file.spectra[0].size(), 1u);
}

TEST(Ms2, PeaksSortedAfterParse) {
  std::istringstream in("S 1 1 400.0\n300.0 1.0\n100.0 2.0\n200.0 3.0\n");
  const auto file = read_ms2(in);
  const auto& s = file.spectra[0];
  ASSERT_EQ(s.size(), 3u);
  EXPECT_LT(s.mz(0), s.mz(1));
  EXPECT_LT(s.mz(1), s.mz(2));
}

TEST(Ms2, RejectsPeakOutsideScan) {
  std::istringstream in("100.0 1.0\n");
  EXPECT_THROW(read_ms2(in), ParseError);
}

TEST(Ms2, RejectsZOutsideScan) {
  std::istringstream in("Z 2 1000.0\n");
  EXPECT_THROW(read_ms2(in), ParseError);
}

TEST(Ms2, RejectsTruncatedSLine) {
  std::istringstream in("S 1 1\n");
  EXPECT_THROW(read_ms2(in), ParseError);
}

TEST(Ms2, RejectsNegativeValues) {
  std::istringstream in("S 1 1 400.0\n-100.0 1.0\n");
  EXPECT_THROW(read_ms2(in), ParseError);
}

TEST(Ms2, RejectsBadCharge) {
  std::istringstream in("S 1 1 400.0\nZ 999 1000.0\n");
  EXPECT_THROW(read_ms2(in), ParseError);
}

TEST(Ms2, ReportsLineNumbers) {
  std::istringstream in("S 1 1 400.0\n100.0 1.0\njunk here x\n");
  try {
    read_ms2(in, "run.ms2");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), "run.ms2");
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(Ms2, IgnoresInfoLines) {
  std::istringstream in("S 1 1 400.0\nI\tRTime\t12.3\n100.0 1.0\n");
  const auto file = read_ms2(in);
  EXPECT_EQ(file.spectra[0].size(), 1u);
}

TEST(Ms2, WriteReadRoundTrip) {
  Ms2File original;
  original.headers["Extractor"] = "lbe";
  chem::Spectrum s;
  s.scan_id = 7;
  s.precursor.mz = 600.3;
  s.precursor.charge = 2;
  s.precursor.neutral_mass = 1198.58;
  s.add_peak(100.1234, 11.0f);
  s.add_peak(250.5678, 22.5f);
  s.finalize();
  original.spectra.push_back(std::move(s));

  std::ostringstream out;
  write_ms2(out, original);
  std::istringstream in(out.str());
  const auto parsed = read_ms2(in);

  ASSERT_EQ(parsed.spectra.size(), 1u);
  const auto& p = parsed.spectra[0];
  EXPECT_EQ(p.scan_id, 7u);
  EXPECT_EQ(p.precursor.charge, 2);
  EXPECT_NEAR(p.precursor.neutral_mass, 1198.58, 1e-3);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NEAR(p.mz(0), 100.1234, 1e-4);
  EXPECT_NEAR(static_cast<double>(p.intensity(1)), 22.5, 0.1);
}

TEST(Ms2, FileRoundTripAndMissingFile) {
  Ms2File file;
  chem::Spectrum s;
  s.scan_id = 1;
  s.precursor.mz = 500.0;
  s.add_peak(123.4, 1.0f);
  s.finalize();
  file.spectra.push_back(std::move(s));

  const std::string path = ::testing::TempDir() + "/lbe_ms2_test.ms2";
  write_ms2_file(path, file);
  const auto parsed = read_ms2_file(path);
  EXPECT_EQ(parsed.spectra.size(), 1u);
  EXPECT_THROW(read_ms2_file("/nonexistent/x.ms2"), IoError);
}

// Parses `text` from a string stream and, through read_ms2_file, from a
// temporary file, and checks they agree before returning one.
Ms2File read_both(const std::string& text) {
  std::istringstream in(text);
  Ms2File from_stream = read_ms2(in);
  const std::string path = ::testing::TempDir() + "/lbe_ms2_read_both.ms2";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  const Ms2File from_file = read_ms2_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(from_file.headers, from_stream.headers);
  EXPECT_EQ(from_file.spectra.size(), from_stream.spectra.size());
  for (std::size_t s = 0; s < from_file.spectra.size() &&
                          s < from_stream.spectra.size();
       ++s) {
    EXPECT_EQ(from_file.spectra[s].mzs(), from_stream.spectra[s].mzs());
    EXPECT_EQ(from_file.spectra[s].intensities(),
              from_stream.spectra[s].intensities());
  }
  return from_stream;
}

// An I line padded so that the next line starts `offset` bytes before the
// reader's first refill boundary.
std::string pad_to_boundary(std::size_t used, std::size_t offset) {
  const std::size_t target = kMs2ReadChunk - offset;
  const std::string head = "I\tPad\t";
  EXPECT_GT(target, used + head.size() + 1);
  return head + std::string(target - used - head.size() - 1, 'x') + "\n";
}

TEST(Ms2, LineSpanningARefillParses) {
  const std::string scan = "S\t1\t1\t400.0\n";
  // Every split point of a peak line across the first refill boundary,
  // with LF and CRLF endings: from the whole line in the first read (its
  // '\n' the last byte) to only its first byte there.
  for (const char* eol : {"\n", "\r\n"}) {
    const std::string peak = std::string("123.4567 89.5") + eol;
    for (std::size_t offset = 1; offset <= peak.size(); ++offset) {
      const std::string text = scan + pad_to_boundary(scan.size(), offset) +
                               peak + "200.25 1.5" + eol;
      const auto file = read_both(text);
      ASSERT_EQ(file.spectra.size(), 1u);
      const auto& s = file.spectra[0];
      ASSERT_EQ(s.size(), 2u) << offset;
      EXPECT_EQ(s.mz(0), 123.4567) << offset;
      EXPECT_EQ(s.intensity(0), 89.5f) << offset;
      EXPECT_EQ(s.mz(1), 200.25) << offset;
    }
  }
}

TEST(Ms2, LineLongerThanTheWindowParses) {
  const std::string value(kMs2ReadChunk * 2 + 123, 'v');
  const std::string text = "H\tLong\t" + value +
                           "\nS\t1\t1\t400.0\n100.0 1.0\njunk\n";
  try {
    read_both(text);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    // The long line still counts as exactly one line.
    EXPECT_EQ(e.line(), 4u);
  }
  const auto file = read_both(text.substr(0, text.size() - 5));
  EXPECT_EQ(file.headers.at("Long"), value);
  ASSERT_EQ(file.spectra.size(), 1u);
  EXPECT_EQ(file.spectra[0].size(), 1u);
}

TEST(Ms2, WhitespaceLineEndingsBlankAndHeaderLines) {
  // Tabs and runs of spaces, blank and whitespace-only lines, H lines with
  // one, two and three fields, CRLF endings, no final newline.
  const std::string text =
      "H\tExtractor\tmsconvert\r\n"
      "H  Comment   first   second\r\n"
      "H\tNoValue\r\n"
      "H\r\n"
      "\r\n"
      "   \t \n"
      "S \t 5\t\t5   612.25 \r\n"
      "Z\t  2 \t1223.4927\r\n"
      "\n"
      "  300.5\t \t 2.0  \r\n"
      "100.25    7.5\r\n"
      "I\tRTime\t1.5\r\n"
      "D\tWhatever\r\n"
      "S\t6\t6\t500.0\n"
      "150.0 5.0";
  const auto file = read_both(text);
  EXPECT_EQ(file.headers.size(), 3u);
  EXPECT_EQ(file.headers.at("Extractor"), "msconvert");
  EXPECT_EQ(file.headers.at("Comment"), "first");
  EXPECT_EQ(file.headers.at("NoValue"), "");
  ASSERT_EQ(file.spectra.size(), 2u);
  const auto& a = file.spectra[0];
  EXPECT_EQ(a.scan_id, 5u);
  EXPECT_EQ(a.precursor.mz, 612.25);
  EXPECT_EQ(a.precursor.charge, 2);
  EXPECT_EQ(a.precursor.neutral_mass, 1223.4927 - chem::kProton);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.mz(0), 100.25);
  EXPECT_EQ(a.intensity(0), 7.5f);
  EXPECT_EQ(a.mz(1), 300.5);
  EXPECT_EQ(a.intensity(1), 2.0f);
  const auto& b = file.spectra[1];
  EXPECT_EQ(b.scan_id, 6u);
  ASSERT_EQ(b.size(), 1u);  // the last line had no '\n'
  EXPECT_EQ(b.mz(0), 150.0);
}

TEST(Ms2, EveryParseErrorKeepsItsMessageAndLine) {
  struct Case {
    const char* text;
    const char* what;
  };
  const Case cases[] = {
      {"H\ta\tb\n100.0 1.0\n", "run.ms2:2: peak line outside of a scan"},
      {"\nZ 2 1000.0\n", "run.ms2:2: Z line outside of a scan"},
      {"S 1 1\n",
       "run.ms2:1: S line needs: S first-scan last-scan precursor-mz"},
      {"\r\n\r\nS x 1 400.0\r\n", "run.ms2:3: bad scan number"},
      {"S -1 1 400.0\n", "run.ms2:1: bad scan number"},
      {"S 1 1 mz\n", "run.ms2:1: cannot parse precursor m/z: 'mz'"},
      {"S 1 1 400.0\nZ 2\n", "run.ms2:2: Z line needs: Z charge mass"},
      {"S 1 1 400.0\nZ 999 1000.0\n", "run.ms2:2: bad charge"},
      {"S 1 1 400.0\nZ two 1000.0\n", "run.ms2:2: bad charge"},
      {"S 1 1 400.0\nZ 2 1e\n", "run.ms2:2: cannot parse (M+H)+ mass: '1e'"},
      {"S 1 1 400.0\n100.0\n", "run.ms2:2: peak line needs: m/z intensity"},
      {"S 1 1 400.0\n100.0x 1.0\n", "run.ms2:2: cannot parse m/z: '100.0x'"},
      {"S 1 1 400.0\n100.0 1.0\n\n200.0 nan!\n",
       "run.ms2:4: cannot parse intensity: 'nan!'"},
      {"S 1 1 400.0\n-100.0 1.0\n", "run.ms2:2: negative m/z or intensity"},
      {"S 1 1 400.0\n100.0 -1.0", "run.ms2:2: negative m/z or intensity"},
  };
  for (const Case& c : cases) {
    std::istringstream in(c.text);
    try {
      read_ms2(in, "run.ms2");
      ADD_FAILURE() << "expected ParseError for: " << c.text;
    } catch (const ParseError& e) {
      EXPECT_STREQ(e.what(), c.what);
    }
  }
}

TEST(Ms2, SyntheticFileRoundTripsExactly) {
  // Values sit on the writer's grid (m/z to 1e-4, intensities to 0.5), so
  // what comes back must equal the source bit for bit.
  Xoshiro256 rng(2019);
  Ms2File source;
  source.headers["Extractor"] = "lbe";
  source.headers["Comment"] = "synthetic";
  for (std::uint32_t i = 0; i < 2000; ++i) {
    chem::Spectrum s;
    s.scan_id = i + 1;
    s.precursor.mz = static_cast<double>(3000000 + rng.below(9000000)) / 1e4;
    if (!rng.bernoulli(0.1)) {
      s.precursor.charge = static_cast<Charge>(1 + rng.below(4));
      s.precursor.neutral_mass =
          static_cast<double>(5000000 + rng.below(30000000)) / 1e4 -
          chem::kProton;
    }
    std::uint64_t tick = 500000;
    const std::uint64_t peaks = rng.below(90);
    for (std::uint64_t p = 0; p < peaks; ++p) {
      tick += 1 + rng.below(200000);
      s.add_peak(static_cast<double>(tick) / 1e4,
                 static_cast<float>(rng.below(200000)) * 0.5f);
    }
    s.finalize();
    source.spectra.push_back(std::move(s));
  }
  std::ostringstream out;
  write_ms2(out, source);
  ASSERT_GT(out.str().size(), kMs2ReadChunk);  // several refills
  const auto parsed = read_both(out.str());

  EXPECT_EQ(parsed.headers, source.headers);
  ASSERT_EQ(parsed.spectra.size(), source.spectra.size());
  for (std::size_t i = 0; i < source.spectra.size(); ++i) {
    const auto& a = source.spectra[i];
    const auto& b = parsed.spectra[i];
    EXPECT_EQ(b.scan_id, a.scan_id) << i;
    EXPECT_EQ(b.precursor.mz, a.precursor.mz) << i;
    EXPECT_EQ(b.precursor.charge, a.precursor.charge) << i;
    EXPECT_EQ(b.precursor.neutral_mass, a.precursor.neutral_mass) << i;
    EXPECT_EQ(b.mzs(), a.mzs()) << i;
    EXPECT_EQ(b.intensities(), a.intensities()) << i;
  }
}

}  // namespace
}  // namespace lbe::io
