// R-tree spatial access method.
//
// The paper implements getHostPartition(p) "as a point query using a spatial
// access method (e.g., an R-tree) that indexes all partitions" (§III-D2).
// This is that access method: a classic Guttman R-tree with quadratic split
// for dynamic inserts plus an STR (sort-tile-recursive) bulk loader used when
// a whole floor plan is indexed at once.

#ifndef INDOOR_RTREE_RTREE_H_
#define INDOOR_RTREE_RTREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "geometry/rect.h"

namespace indoor {

/// An R-tree mapping rectangles to opaque uint32 ids.
class RTree {
 public:
  /// Tree node; defined in the .cc. Public so file-local helpers (invariant
  /// checker) can traverse; not part of the supported API surface.
  struct Node;

  /// `max_entries` is the node fan-out M; min fill is M * 0.4 (>= 2).
  explicit RTree(int max_entries = 16);
  ~RTree();

  RTree(RTree&&) noexcept;
  RTree& operator=(RTree&&) noexcept;
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  /// Bulk-loads `items` with STR packing; replaces current contents.
  void BulkLoad(std::vector<std::pair<Rect, uint32_t>> items);

  /// Inserts one rectangle.
  void Insert(const Rect& rect, uint32_t id);

  /// Calls visit(id) for every rectangle containing `p` (closed
  /// containment). Descends recursively over the tree's few levels, so a
  /// point query allocates nothing.
  template <typename Visit>
  void QueryPoint(const Point& p, const Visit& visit) const {
    QueryPointErased(p, &visit, [](const void* ctx, uint32_t id) {
      (*static_cast<const Visit*>(ctx))(id);
    });
  }

  /// Ids of all rectangles intersecting `window`.
  std::vector<uint32_t> QueryRect(const Rect& window) const;

  /// Ids of all rectangles within `radius` of `center` (min-distance test).
  std::vector<uint32_t> QueryCircle(const Point& center, double radius) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Height of the tree (0 when empty, 1 for a single leaf).
  int Height() const;

  /// Structural invariants for tests: MBR consistency, fill factors,
  /// uniform leaf depth. Aborts via CHECK on violation.
  void CheckInvariants() const;

 private:
  /// QueryPoint's body: hit(ctx, id) for every containing rectangle.
  void QueryPointErased(const Point& p, const void* ctx,
                        void (*hit)(const void* ctx, uint32_t id)) const;
  Node* ChooseLeaf(Node* node, const Rect& rect) const;
  void SplitNode(Node* node);
  void AdjustUpward(Node* node);

  std::unique_ptr<Node> root_;
  int max_entries_;
  int min_entries_;
  size_t size_ = 0;
};

}  // namespace indoor

#endif  // INDOOR_RTREE_RTREE_H_
