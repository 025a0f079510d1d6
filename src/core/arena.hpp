// Reusable scratch memory for the lowered-convolution hot path.
//
// The batched im2col/GEMM convolution (core/conv2d.hpp) needs large
// transient buffers — the column matrix, the time plane, the gradient
// columns — whose sizes repeat call after call. Allocating
// them fresh per forward (the seed behaviour) puts a malloc + page-fault
// memset in the serving inner loop; a ScratchArena instead grows once to
// the high-water mark and recycles the same storage for every subsequent
// frame. It is NOT thread-safe: one arena belongs to one execution
// context (a Network replica, a trainer, a standalone layer).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace odenet::core {

/// Frame-scoped bump allocator over one recycled float buffer.
///
/// Usage per call: frame(total) once (recycles storage, grows only when
/// `total` exceeds every previous frame), then alloc() the spans that sum
/// to at most `total`. Pointers stay valid until the next frame() on the
/// same arena. alloc() past the declared frame size throws — callers
/// declare their exact need up front so growth can never invalidate a
/// span mid-frame.
class ScratchArena {
 public:
  ScratchArena() = default;

  // Handing out raw spans makes the arena address-identity sensitive:
  // copying one would silently detach live pointers from the storage that
  // backs them. Moves are allowed (the heap buffer travels, so spans stay
  // valid) — an owner that hands out `this` pointers (Network) rewires
  // them in its own move.
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;
  ScratchArena(ScratchArena&&) noexcept = default;
  ScratchArena& operator=(ScratchArena&&) noexcept = default;

  /// Begins a frame of `total_floats`: resets the bump pointer and ensures
  /// capacity, growing (and counting a growth) only when the request
  /// exceeds the current capacity. Invalidates spans of earlier frames.
  void frame(std::size_t total_floats);

  /// Bump-allocates `floats` from the current frame. The span is NOT
  /// zeroed (every consumer fully overwrites it). Throws odenet::Error
  /// when the frame budget declared to frame() would be exceeded.
  float* alloc(std::size_t floats);

  /// Floats the backing buffer holds (monotonic high-water mark).
  std::size_t capacity() const { return storage_.size(); }
  /// Floats handed out in the current frame.
  std::size_t used() const { return used_; }
  /// Times the backing buffer actually grew (a steady workload shows this
  /// stop moving after the first frame — the "no regrowth" invariant the
  /// tests pin down).
  std::uint64_t growths() const { return growths_; }
  /// Frames begun since construction.
  std::uint64_t frames() const { return frames_; }

 private:
  std::vector<float> storage_;
  std::size_t limit_ = 0;  // current frame budget
  std::size_t used_ = 0;
  std::uint64_t growths_ = 0;
  std::uint64_t frames_ = 0;
};

}  // namespace odenet::core
