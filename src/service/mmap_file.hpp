// RAII read-only memory mapping of a file.
//
// The v2 snapshot format is laid out so that a mapped file can be served
// directly: MmapFile owns the mapping, Snapshot keeps a shared_ptr to it,
// and the table spans alias the mapped bytes, which stay stable for the
// wrapper's lifetime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace msrp::service {

class MmapFile {
 public:
  MmapFile() = default;

  /// Maps `path` read-only; throws std::runtime_error on open/stat/map
  /// failure. Empty files map to a valid zero-length view.
  static MmapFile open(const std::string& path);

  ~MmapFile();

  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  /// Unmaps and resets to the empty state.
  void release() noexcept;

  const std::uint8_t* data_ = nullptr;  // null for an empty file
  std::size_t size_ = 0;
};

}  // namespace msrp::service
