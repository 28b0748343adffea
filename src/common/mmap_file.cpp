#include "common/mmap_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/binary_io.hpp"

namespace lbe::bin {

std::shared_ptr<const MmapFile> MmapFile::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw IoError("cannot open file for mapping: " + path + " (" +
                  std::strerror(errno) + ")");
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    throw IoError("cannot stat file for mapping: " + path + " (" +
                  std::strerror(saved) + ")");
  }
  if (st.st_size <= 0) {
    ::close(fd);
    throw IoError("cannot map empty file: " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping holds its own reference to the file; the descriptor is not
  // needed once mmap succeeds (POSIX keeps the pages valid after close).
  const int saved = errno;
  ::close(fd);
  if (data == MAP_FAILED) {
    throw IoError("cannot mmap file: " + path + " (" + std::strerror(saved) +
                  ")");
  }
  return std::shared_ptr<const MmapFile>(new MmapFile(data, size, path));
}

void MmapFile::release_resident() const noexcept {
  // Advice only: on failure the pages simply stay resident.
  (void)::madvise(data_, size_, MADV_DONTNEED);
}

MmapFile::~MmapFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

std::span<const std::byte> read_raw_section(ByteReader& reader,
                                            std::uint32_t expected_tag) {
  reader.align();
  const auto tag = reader.read_pod<std::uint32_t>();
  if (tag != expected_tag) {
    throw IoError("mapped read failed: unexpected section tag (corrupt "
                  "file?)");
  }
  const auto size = reader.read_pod<std::uint64_t>();
  if (size > kMaxSectionBytes) {
    throw IoError("mapped read failed: implausible section size (corrupt "
                  "file?)");
  }
  const auto stored_crc = reader.read_pod<std::uint32_t>();
  const auto payload = reader.take(static_cast<std::size_t>(size));
  if (crc32(payload.data(), payload.size()) != stored_crc) {
    throw IoError("mapped read failed: section checksum mismatch (corrupt "
                  "file?)");
  }
  return payload;
}

}  // namespace lbe::bin
