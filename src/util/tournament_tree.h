// A tournament tree over ids 0..n-1 holding one score each. Every node
// keeps the minimum score below it and how many leaves hold that minimum,
// so the minimum, its number of ties and the k-th tied id (ascending) each
// cost O(log n), and so does changing one score. The greedy elimination
// orderings pick their next vertex with it, and the greedy set cover its
// next set, with the tie lists and Rng draws of a scan over every id.
#ifndef GHD_UTIL_TOURNAMENT_TREE_H_
#define GHD_UTIL_TOURNAMENT_TREE_H_

#include <limits>
#include <vector>

namespace ghd {

class TournamentTree {
 public:
  /// A score no real score reaches: the leaf of an id that is out.
  static constexpr long kNone = std::numeric_limits<long>::max();

  /// n ids, every score kNone.
  explicit TournamentTree(int n = 0) { Reset(n); }

  /// Starts over with n ids, every score kNone, keeping the storage.
  void Reset(int n) {
    leaves_ = 1;
    while (leaves_ < n) leaves_ <<= 1;
    min_.assign(2 * leaves_, kNone);
    count_.assign(2 * leaves_, 0);
  }

  /// Sets id's score without updating the nodes above; Rebuild() does that.
  void Init(int id, long score) {
    min_[leaves_ + id] = score;
    count_[leaves_ + id] = 1;
  }
  void Rebuild() {
    for (int i = leaves_ - 1; i >= 1; --i) Pull(i);
  }

  void Set(int id, long score) {
    int i = leaves_ + id;
    min_[i] = score;
    count_[i] = 1;
    for (i >>= 1; i >= 1; i >>= 1) Pull(i);
  }

  long Min() const { return min_[1]; }
  /// How many ids hold Min().
  int Ties() const { return count_[1]; }

  /// The k-th lowest id (k < Ties()) among the ids whose score is Min().
  int Tied(int k) const {
    int i = 1;
    while (i < leaves_) {
      const int left = 2 * i;
      const int in_left = min_[left] == min_[1] ? count_[left] : 0;
      if (k < in_left) {
        i = left;
      } else {
        k -= in_left;
        i = left + 1;
      }
    }
    return i - leaves_;
  }

 private:
  void Pull(int i) {
    const int l = 2 * i;
    const int r = l + 1;
    if (min_[l] == min_[r]) {
      min_[i] = min_[l];
      count_[i] = count_[l] + count_[r];
    } else {
      const int side = min_[l] < min_[r] ? l : r;
      min_[i] = min_[side];
      count_[i] = count_[side];
    }
  }

  int leaves_ = 1;
  std::vector<long> min_;
  std::vector<int> count_;
};

}  // namespace ghd

#endif  // GHD_UTIL_TOURNAMENT_TREE_H_
