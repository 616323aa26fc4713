// Growable array with stable element addresses, for the simulation
// kernel's slot arena (EventQueue) and other dense, id-indexed tables.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace ignem {

/// Elements live in fixed-size chunks, so growth never move-constructs
/// existing elements (std::vector would relocate every slot — and every
/// inline callback buffer in it — each time capacity doubles). Index access
/// is one shift, one mask, one load. kChunkSize must be a power of two.
template <typename T, std::size_t kChunkSize = 1024>
class ChunkedVector {
  static_assert((kChunkSize & (kChunkSize - 1)) == 0, "chunk size not a power of 2");

 public:
  ChunkedVector() = default;
  ChunkedVector(const ChunkedVector&) = delete;
  ChunkedVector& operator=(const ChunkedVector&) = delete;

  std::size_t size() const { return size_; }

  T& operator[](std::size_t i) {
    return chunks_[i / kChunkSize][i & (kChunkSize - 1)];
  }
  const T& operator[](std::size_t i) const {
    return chunks_[i / kChunkSize][i & (kChunkSize - 1)];
  }

  /// Default-constructs one more element and returns it.
  T& emplace_back() {
    if (size_ == chunks_.size() * kChunkSize) {
      chunks_.push_back(std::make_unique<T[]>(kChunkSize));
    }
    ++size_;
    return (*this)[size_ - 1];
  }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace ignem
