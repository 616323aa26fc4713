// Slab/arena allocation for the simulation kernel's hot paths.
//
// The kernel's steady state recycles the same objects over and over: event
// slots and spilled callback captures. A general heap allocator pays
// lock/metadata cost on every one of those operations and scatters them
// across the address space. This header provides the two shapes the kernel
// needs instead:
//
//   - SlabPool: fixed-size blocks carved out of large chunks, recycled
//     through a free list. Steady state is a two-instruction pop/push; the
//     global allocator is only touched when the pool's high-water mark
//     grows (one chunk per kBlocksPerChunk blocks).
//   - ChunkedVector<T>: an index-addressable growable array whose elements
//     never move. Growth appends a fixed-size chunk instead of reallocating
//     and move-constructing every element, which matters when T carries a
//     48-byte inline callback buffer (EventQueue slots).
//
// Both report into thread-local KernelAllocCounters so benches can prove
// the "zero steady-state heap calls" claim: after warm-up, a churn loop
// must leave every counter unchanged. Counters are per-thread (the sweep
// runner fans one simulation per worker), so no synchronization is needed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace ignem {

/// Thread-local tallies of kernel allocation activity. `heap_allocs` counts
/// every trip to the global allocator (slab chunks, oversized spills,
/// kernel-container growth); `pool_hits` counts allocations served without
/// one. A steady-state workload holds heap_allocs constant.
struct KernelAllocCounters {
  std::uint64_t heap_allocs = 0;      ///< Calls into ::operator new.
  std::uint64_t heap_frees = 0;       ///< Calls into ::operator delete.
  std::uint64_t pool_hits = 0;        ///< Allocations served from a free list.
  std::uint64_t chunk_carves = 0;     ///< Blocks bump-carved from a live chunk.
  std::uint64_t container_growths = 0;///< Kernel vector capacity growths.
};

inline KernelAllocCounters& kernel_alloc_counters() {
  thread_local KernelAllocCounters counters;
  return counters;
}

/// Called by kernel containers (EventQueue's heaps and buckets) just before
/// a push that would exceed capacity, so growth shows up in the counters
/// even though std::vector does the actual allocation.
inline void note_container_growth() {
  ++kernel_alloc_counters().container_growths;
}

/// Fixed-block-size pool. Blocks are raw, max-aligned memory of
/// `kBlockBytes`; they are carved from `kBlocksPerChunk`-block chunks and
/// recycled through an intrusive free list (the first word of a free block
/// points at the next). Not thread-safe — use one pool per thread (see
/// local()).
template <std::size_t kBlockBytes, std::size_t kBlocksPerChunk = 256>
class SlabPool {
  static_assert(kBlockBytes >= sizeof(void*), "block must hold a free-list link");

 public:
  SlabPool() = default;
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  ~SlabPool() {
    for (unsigned char* chunk : chunks_) {
      ::operator delete(chunk, std::align_val_t{alignof(std::max_align_t)});
      ++kernel_alloc_counters().heap_frees;
    }
  }

  void* allocate() {
    KernelAllocCounters& c = kernel_alloc_counters();
    if (free_head_ != nullptr) {
      void* block = free_head_;
      free_head_ = *static_cast<void**>(block);
      ++c.pool_hits;
      return block;
    }
    if (carve_next_ == carve_end_) {
      auto* chunk = static_cast<unsigned char*>(::operator new(
          kBlockBytes * kBlocksPerChunk,
          std::align_val_t{alignof(std::max_align_t)}));
      ++c.heap_allocs;
      chunks_.push_back(chunk);
      carve_next_ = chunk;
      carve_end_ = chunk + kBlockBytes * kBlocksPerChunk;
    }
    void* block = carve_next_;
    carve_next_ += kBlockBytes;
    ++c.chunk_carves;
    return block;
  }

  void deallocate(void* block) {
    *static_cast<void**>(block) = free_head_;
    free_head_ = block;
  }

  static SlabPool& local() {
    thread_local SlabPool pool;
    return pool;
  }

 private:
  void* free_head_ = nullptr;
  unsigned char* carve_next_ = nullptr;
  unsigned char* carve_end_ = nullptr;
  std::vector<unsigned char*> chunks_;
};

/// Growable array with stable element addresses: elements live in
/// fixed-size chunks, so growth never move-constructs existing elements
/// (std::vector would relocate every slot — and every inline callback
/// buffer in it — each time capacity doubles). Index access is one shift,
/// one mask, one load. kChunkSize must be a power of two.
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
      ++kernel_alloc_counters().heap_allocs;
    }
    ++size_;
    return (*this)[size_ - 1];
  }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace ignem
