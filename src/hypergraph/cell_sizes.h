// The flat count table behind the canonical search's cells
// (hypergraph/canonical.cc).
#ifndef GHD_HYPERGRAPH_CELL_SIZES_H_
#define GHD_HYPERGRAPH_CELL_SIZES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ghd {

/// Cell sizes keyed by color value, for one side (vertices or edges) of the
/// canonical search's coloring: open addressing with linear probing, sized
/// once for every cell that side can hold, so a lookup is a probe or two and
/// a search node allocates nothing. A size of zero marks a free slot;
/// erasing shifts the rest of the probe run back, so no tombstones pile up
/// across the search. Colors are hash outputs, so their low bits index
/// directly. At most `elements` colors may be live at once.
class CellSizes {
 public:
  explicit CellSizes(int elements) {
    size_t capacity = 8;
    while (capacity < 2 * static_cast<size_t>(elements) + 2) capacity <<= 1;
    mask_ = capacity - 1;
    colors_.assign(capacity, 0);
    sizes_.assign(capacity, 0);
  }

  /// The size of `color`'s cell; 0 when no element has that color.
  int Get(uint64_t color) const { return sizes_[Slot(color)]; }

  /// Adds `delta` elements to `color`'s cell, dropping it at size 0.
  void Add(uint64_t color, int delta) {
    const size_t i = Slot(color);
    colors_[i] = color;
    if ((sizes_[i] += delta) == 0) Erase(i);
  }

 private:
  // The slot holding `color`, or the free slot that ends its probe run.
  size_t Slot(uint64_t color) const {
    size_t i = color & mask_;
    while (sizes_[i] != 0 && colors_[i] != color) i = (i + 1) & mask_;
    return i;
  }

  void Erase(size_t hole) {
    for (size_t j = (hole + 1) & mask_; sizes_[j] != 0; j = (j + 1) & mask_) {
      // The entry at j may move back into the hole unless its home slot lies
      // cyclically in (hole, j].
      const size_t home = colors_[j] & mask_;
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        colors_[hole] = colors_[j];
        sizes_[hole] = sizes_[j];
        hole = j;
      }
    }
    sizes_[hole] = 0;
  }

  size_t mask_ = 0;
  std::vector<uint64_t> colors_;
  std::vector<int> sizes_;
};

}  // namespace ghd

#endif  // GHD_HYPERGRAPH_CELL_SIZES_H_
