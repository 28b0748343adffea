#include "io/ms2.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "chem/mass.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"

namespace lbe::io {

namespace {

double require_double(std::string_view field, const std::string& origin,
                      std::size_t line_no, const char* what) {
  double out = 0.0;
  if (!str::parse_double(field, out)) {
    throw ParseError(origin, line_no,
                     std::string("cannot parse ") + what + ": '" +
                         std::string(field) + "'");
  }
  return out;
}

/// Line-at-a-time MS2 state machine. Lines arrive as views into the
/// reader's buffer, without their '\n'; fields are split off in place.
class Ms2Parser {
 public:
  explicit Ms2Parser(const std::string& origin) : origin_(origin) {}

  void line(std::string_view raw, std::size_t line_no) {
    // CRLF input (e.g. msconvert output from Windows): strip the '\r' up
    // front so no downstream field ever carries one.
    if (!raw.empty() && raw.back() == '\r') raw.remove_suffix(1);
    std::string_view rest = str::trim(raw);
    if (rest.empty()) return;

    switch (rest.front()) {
      case 'H': {
        str::next_field(rest);
        const auto key = str::next_field(rest);
        const auto value = str::next_field(rest);
        if (!key.empty()) file_.headers[std::string(key)] = std::string(value);
        break;
      }
      case 'S': {
        finish_current();
        str::next_field(rest);
        const auto first_scan = str::next_field(rest);
        str::next_field(rest);
        const auto precursor_mz = str::next_field(rest);
        if (precursor_mz.empty()) {
          throw ParseError(origin_, line_no,
                           "S line needs: S first-scan last-scan precursor-mz");
        }
        chem::Spectrum spec;
        std::uint64_t scan = 0;
        if (!str::parse_u64(first_scan, scan)) {
          throw ParseError(origin_, line_no, "bad scan number");
        }
        spec.scan_id = static_cast<std::uint32_t>(scan);
        spec.precursor.mz =
            require_double(precursor_mz, origin_, line_no, "precursor m/z");
        file_.spectra.push_back(std::move(spec));
        in_scan_ = true;
        break;
      }
      case 'Z': {
        if (!in_scan_) {
          throw ParseError(origin_, line_no, "Z line outside of a scan");
        }
        str::next_field(rest);
        const auto charge = str::next_field(rest);
        const auto mass = str::next_field(rest);
        if (mass.empty()) {
          throw ParseError(origin_, line_no, "Z line needs: Z charge mass");
        }
        std::uint64_t z = 0;
        if (!str::parse_u64(charge, z) || z > 255) {
          throw ParseError(origin_, line_no, "bad charge");
        }
        auto& precursor = file_.spectra.back().precursor;
        precursor.charge = static_cast<Charge>(z);
        // Z stores the singly-protonated mass (M+H)+; convert to neutral.
        const double mh = require_double(mass, origin_, line_no, "(M+H)+ mass");
        precursor.neutral_mass = mh - chem::kProton;
        break;
      }
      case 'I':
      case 'D':
        break;  // per-scan metadata we do not interpret
      default: {
        if (!in_scan_) {
          throw ParseError(origin_, line_no, "peak line outside of a scan");
        }
        const auto mz_field = str::next_field(rest);
        const auto intensity_field = str::next_field(rest);
        if (intensity_field.empty()) {
          throw ParseError(origin_, line_no, "peak line needs: m/z intensity");
        }
        const double mz = require_double(mz_field, origin_, line_no, "m/z");
        const double inten =
            require_double(intensity_field, origin_, line_no, "intensity");
        if (mz < 0.0 || inten < 0.0) {
          throw ParseError(origin_, line_no, "negative m/z or intensity");
        }
        file_.spectra.back().add_peak(mz, static_cast<float>(inten));
        break;
      }
    }
  }

  Ms2File finish() {
    finish_current();
    return std::move(file_);
  }

 private:
  void finish_current() {
    if (in_scan_) file_.spectra.back().finalize();
  }

  const std::string& origin_;
  Ms2File file_;
  bool in_scan_ = false;
};

}  // namespace

// Feeds `in`'s bytes to the parser line by line through one window of
// kMs2ReadChunk bytes. A partial line is moved to the window's front before
// each refill; a line longer than the window doubles it, so memory is
// bounded by the longest line, never by the input size. Line numbering
// matches std::getline: a last line without '\n' still counts.
Ms2File read_ms2(std::istream& in, const std::string& origin) {
  Ms2Parser parser(origin);
  std::vector<char> window(kMs2ReadChunk);
  std::size_t begin = 0;  // unconsumed bytes are [begin, end)
  std::size_t end = 0;
  std::size_t line_no = 0;
  bool eof = false;
  while (true) {
    const char* first = window.data() + begin;
    const auto* newline =
        static_cast<const char*>(std::memchr(first, '\n', end - begin));
    if (newline != nullptr) {
      const auto length = static_cast<std::size_t>(newline - first);
      parser.line(std::string_view(first, length), ++line_no);
      begin += length + 1;
      continue;
    }
    if (eof) {
      if (begin < end) {
        parser.line(std::string_view(first, end - begin), ++line_no);
      }
      break;
    }
    std::memmove(window.data(), first, end - begin);
    end -= begin;
    begin = 0;
    if (end == window.size()) window.resize(window.size() * 2);
    in.read(window.data() + end,
            static_cast<std::streamsize>(window.size() - end));
    if (in.bad()) throw IoError("MS2 read failed: " + origin);
    const auto got = static_cast<std::size_t>(in.gcount());
    eof = got == 0;
    end += got;
  }
  return parser.finish();
}

Ms2File read_ms2_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open MS2 file: " + path);
  return read_ms2(in, path);
}

void write_ms2(std::ostream& out, const Ms2File& file) {
  for (const auto& [key, value] : file.headers) {
    out << "H\t" << key << '\t' << value << '\n';
  }
  char buf[64];
  for (const auto& spec : file.spectra) {
    std::snprintf(buf, sizeof(buf), "%.4f", spec.precursor.mz);
    out << "S\t" << spec.scan_id << '\t' << spec.scan_id << '\t' << buf
        << '\n';
    if (spec.precursor.charge > 0) {
      std::snprintf(buf, sizeof(buf), "%.4f",
                    spec.precursor.neutral_mass + chem::kProton);
      out << "Z\t" << static_cast<int>(spec.precursor.charge) << '\t' << buf
          << '\n';
    }
    for (std::size_t i = 0; i < spec.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.4f %.1f", spec.mz(i),
                    static_cast<double>(spec.intensity(i)));
      out << buf << '\n';
    }
  }
}

void write_ms2_file(const std::string& path, const Ms2File& file) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open MS2 file for writing: " + path);
  write_ms2(out, file);
  if (!out) throw IoError("write failed: " + path);
}

}  // namespace lbe::io
