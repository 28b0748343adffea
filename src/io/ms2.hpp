// MS2 file format (McDonald et al. 2004), the query-spectrum interchange
// format the paper produces with msconvert before searching.
//
// Layout:
//   H <tab> key <tab> value          header lines (file scope)
//   S <tab> first-scan <tab> last-scan <tab> precursor-m/z
//   Z <tab> charge <tab> (M+H)+ mass         zero or more per scan
//   I <tab> key <tab> value                  per-scan info (optional)
//   m/z <space> intensity                    peak lines
//
// The reader accepts space or tab separators and arbitrary peak counts; it
// validates numeric fields and monotonically finalizes each spectrum. It
// streams: input is pulled through a fixed window and parsed in place, so
// the memory it holds besides the parsed spectra does not grow with the
// file.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "chem/spectrum.hpp"

namespace lbe::io {

struct Ms2File {
  std::map<std::string, std::string> headers;
  std::vector<chem::Spectrum> spectra;
};

/// Bytes the reader requests per refill of its window. A line longer than
/// the window grows it to fit that line.
inline constexpr std::size_t kMs2ReadChunk = std::size_t{1} << 20;

/// Parses an MS2 stream; throws ParseError with `origin` context, IoError
/// when the stream itself fails.
Ms2File read_ms2(std::istream& in, const std::string& origin = "<stream>");

/// Opens and parses a file; throws IoError if unreadable.
Ms2File read_ms2_file(const std::string& path);

/// Serializes; charges with value 0 are omitted (undetermined precursor).
void write_ms2(std::ostream& out, const Ms2File& file);

void write_ms2_file(const std::string& path, const Ms2File& file);

}  // namespace lbe::io
