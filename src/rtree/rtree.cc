#include "rtree/rtree.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/metrics.h"

namespace indoor {

struct RTree::Node {
  bool leaf = true;
  Rect mbr = Rect::Empty();
  Node* parent = nullptr;
  // Leaf payload.
  std::vector<std::pair<Rect, uint32_t>> entries;
  // Internal children.
  std::vector<std::unique_ptr<Node>> children;

  void RecomputeMbr() {
    mbr = Rect::Empty();
    if (leaf) {
      for (const auto& [r, id] : entries) mbr = mbr.Union(r);
    } else {
      for (const auto& c : children) mbr = mbr.Union(c->mbr);
    }
  }

  size_t Fanout() const { return leaf ? entries.size() : children.size(); }
};

RTree::RTree(int max_entries)
    : root_(std::make_unique<Node>()), max_entries_(max_entries) {
  INDOOR_CHECK(max_entries >= 4) << "R-tree fan-out must be >= 4";
  min_entries_ = std::max(2, static_cast<int>(max_entries * 0.4));
}

RTree::~RTree() = default;
RTree::RTree(RTree&&) noexcept = default;
RTree& RTree::operator=(RTree&&) noexcept = default;

namespace {

/// Area enlargement of `mbr` needed to cover `rect`.
double Enlargement(const Rect& mbr, const Rect& rect) {
  return mbr.Union(rect).Area() - mbr.Area();
}

}  // namespace

RTree::Node* RTree::ChooseLeaf(Node* node, const Rect& rect) const {
  while (!node->leaf) {
    Node* best = nullptr;
    double best_enlarge = 0.0;
    for (const auto& child : node->children) {
      const double enlarge = Enlargement(child->mbr, rect);
      if (best == nullptr || enlarge < best_enlarge ||
          (enlarge == best_enlarge &&
           child->mbr.Area() < best->mbr.Area())) {
        best = child.get();
        best_enlarge = enlarge;
      }
    }
    node = best;
  }
  return node;
}

void RTree::SplitNode(Node* node) {
  // Guttman quadratic split over the node's entry MBRs.
  std::vector<Rect> rects;
  if (node->leaf) {
    for (const auto& [r, id] : node->entries) rects.push_back(r);
  } else {
    for (const auto& c : node->children) rects.push_back(c->mbr);
  }
  const size_t n = rects.size();

  // Pick seeds: the pair wasting the most area if grouped together.
  size_t seed1 = 0, seed2 = 1;
  double worst = -1.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double waste =
          rects[i].Union(rects[j]).Area() - rects[i].Area() -
          rects[j].Area();
      if (waste > worst) {
        worst = waste;
        seed1 = i;
        seed2 = j;
      }
    }
  }

  std::vector<int> group(n, -1);
  group[seed1] = 0;
  group[seed2] = 1;
  Rect mbr0 = rects[seed1];
  Rect mbr1 = rects[seed2];
  size_t count0 = 1, count1 = 1;
  size_t assigned = 2;

  while (assigned < n) {
    // Force-assign remaining if one group must take all to reach min fill.
    const size_t remaining = n - assigned;
    int forced = -1;
    if (count0 + remaining == static_cast<size_t>(min_entries_)) forced = 0;
    if (count1 + remaining == static_cast<size_t>(min_entries_)) forced = 1;

    // Pick the unassigned entry with maximal preference difference.
    size_t pick = n;
    double best_diff = -1.0;
    for (size_t i = 0; i < n; ++i) {
      if (group[i] != -1) continue;
      const double d0 = Enlargement(mbr0, rects[i]);
      const double d1 = Enlargement(mbr1, rects[i]);
      const double diff = std::fabs(d0 - d1);
      if (diff > best_diff) {
        best_diff = diff;
        pick = i;
      }
    }
    INDOOR_CHECK(pick < n);
    int target;
    if (forced != -1) {
      target = forced;
    } else {
      const double d0 = Enlargement(mbr0, rects[pick]);
      const double d1 = Enlargement(mbr1, rects[pick]);
      if (d0 < d1) {
        target = 0;
      } else if (d1 < d0) {
        target = 1;
      } else {
        target = (count0 <= count1) ? 0 : 1;
      }
    }
    group[pick] = target;
    if (target == 0) {
      mbr0 = mbr0.Union(rects[pick]);
      ++count0;
    } else {
      mbr1 = mbr1.Union(rects[pick]);
      ++count1;
    }
    ++assigned;
  }

  // Materialize the sibling node with group-1 entries.
  auto sibling = std::make_unique<Node>();
  sibling->leaf = node->leaf;
  if (node->leaf) {
    std::vector<std::pair<Rect, uint32_t>> keep;
    for (size_t i = 0; i < n; ++i) {
      if (group[i] == 0) {
        keep.push_back(node->entries[i]);
      } else {
        sibling->entries.push_back(node->entries[i]);
      }
    }
    node->entries = std::move(keep);
  } else {
    std::vector<std::unique_ptr<Node>> keep;
    for (size_t i = 0; i < n; ++i) {
      if (group[i] == 0) {
        keep.push_back(std::move(node->children[i]));
      } else {
        node->children[i]->parent = sibling.get();
        sibling->children.push_back(std::move(node->children[i]));
      }
    }
    node->children = std::move(keep);
  }
  node->RecomputeMbr();
  sibling->RecomputeMbr();

  if (node->parent == nullptr) {
    // Grow a new root.
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    auto old_root = std::move(root_);
    old_root->parent = new_root.get();
    sibling->parent = new_root.get();
    new_root->children.push_back(std::move(old_root));
    new_root->children.push_back(std::move(sibling));
    new_root->RecomputeMbr();
    root_ = std::move(new_root);
  } else {
    Node* parent = node->parent;
    sibling->parent = parent;
    parent->children.push_back(std::move(sibling));
    if (parent->Fanout() > static_cast<size_t>(max_entries_)) {
      SplitNode(parent);
    }
  }
}

void RTree::AdjustUpward(Node* node) {
  for (Node* cur = node; cur != nullptr; cur = cur->parent) {
    cur->RecomputeMbr();
  }
}

void RTree::Insert(const Rect& rect, uint32_t id) {
  Node* leaf = ChooseLeaf(root_.get(), rect);
  leaf->entries.push_back({rect, id});
  AdjustUpward(leaf);
  if (leaf->entries.size() > static_cast<size_t>(max_entries_)) {
    SplitNode(leaf);
  }
  ++size_;
}

void RTree::BulkLoad(std::vector<std::pair<Rect, uint32_t>> items) {
  root_ = std::make_unique<Node>();
  size_ = items.size();
  if (items.empty()) return;

  // STR packing: sort by center x, slice into vertical strips, sort each
  // strip by center y, pack runs of max_entries_ into leaves; then repeat
  // upward over node MBRs.
  const size_t cap = static_cast<size_t>(max_entries_);
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) {
              return a.first.Center().x < b.first.Center().x;
            });
  const size_t leaf_count = (items.size() + cap - 1) / cap;
  const size_t strip_count = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(leaf_count))));
  const size_t per_strip =
      (items.size() + strip_count - 1) / strip_count;

  std::vector<std::unique_ptr<Node>> level;
  for (size_t s = 0; s < strip_count; ++s) {
    const size_t begin = s * per_strip;
    if (begin >= items.size()) break;
    const size_t end = std::min(items.size(), begin + per_strip);
    std::sort(items.begin() + begin, items.begin() + end,
              [](const auto& a, const auto& b) {
                return a.first.Center().y < b.first.Center().y;
              });
    for (size_t i = begin; i < end; i += cap) {
      auto node = std::make_unique<Node>();
      node->leaf = true;
      const size_t run_end = std::min(end, i + cap);
      node->entries.assign(items.begin() + i, items.begin() + run_end);
      node->RecomputeMbr();
      level.push_back(std::move(node));
    }
  }

  // Pack levels upward until a single root remains.
  while (level.size() > 1) {
    std::sort(level.begin(), level.end(),
              [](const auto& a, const auto& b) {
                return a->mbr.Center().x < b->mbr.Center().x;
              });
    const size_t parent_count = (level.size() + cap - 1) / cap;
    const size_t strips = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(parent_count))));
    const size_t per =
        (level.size() + strips - 1) / strips;
    std::vector<std::unique_ptr<Node>> next;
    for (size_t s = 0; s < strips; ++s) {
      const size_t begin = s * per;
      if (begin >= level.size()) break;
      const size_t end = std::min(level.size(), begin + per);
      std::sort(level.begin() + begin, level.begin() + end,
                [](const auto& a, const auto& b) {
                  return a->mbr.Center().y < b->mbr.Center().y;
                });
      for (size_t i = begin; i < end; i += cap) {
        auto node = std::make_unique<Node>();
        node->leaf = false;
        const size_t run_end = std::min(end, i + cap);
        for (size_t j = i; j < run_end; ++j) {
          level[j]->parent = node.get();
          node->children.push_back(std::move(level[j]));
        }
        node->RecomputeMbr();
        next.push_back(std::move(node));
      }
    }
    level = std::move(next);
  }
  root_ = std::move(level.front());
  root_->parent = nullptr;
}

namespace {

/// Calls hit(ctx, id) for every leaf entry under `node` that contains `p`,
/// counting the child nodes it enters in *visits.
void DescendPoint(const RTree::Node& node, const Point& p, const void* ctx,
                  void (*hit)(const void*, uint32_t), uint64_t* visits) {
  if (node.leaf) {
    for (const auto& [r, id] : node.entries) {
      if (r.Contains(p)) hit(ctx, id);
    }
    return;
  }
  for (const auto& c : node.children) {
    if (!c->mbr.Contains(p)) continue;
    ++*visits;
    DescendPoint(*c, p, ctx, hit, visits);
  }
}

}  // namespace

void RTree::QueryPointErased(const Point& p, const void* ctx,
                             void (*hit)(const void*, uint32_t)) const {
  uint64_t node_visits = 1;  // the root
  if (root_->mbr.Contains(p)) DescendPoint(*root_, p, ctx, hit, &node_visits);
  INDOOR_COUNTER_INC("index.rtree.point_queries");
  INDOOR_COUNTER_ADD("index.rtree.node_visits", node_visits);
}

std::vector<uint32_t> RTree::QueryRect(const Rect& window) const {
  std::vector<uint32_t> out;
  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->leaf) {
      for (const auto& [r, id] : node->entries) {
        if (r.Intersects(window)) out.push_back(id);
      }
    } else {
      for (const auto& c : node->children) {
        if (c->mbr.Intersects(window)) stack.push_back(c.get());
      }
    }
  }
  return out;
}

std::vector<uint32_t> RTree::QueryCircle(const Point& center,
                                         double radius) const {
  std::vector<uint32_t> out;
  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->leaf) {
      for (const auto& [r, id] : node->entries) {
        if (r.IntersectsCircle(center, radius)) out.push_back(id);
      }
    } else {
      for (const auto& c : node->children) {
        if (c->mbr.IntersectsCircle(center, radius)) stack.push_back(c.get());
      }
    }
  }
  return out;
}

int RTree::Height() const {
  if (size_ == 0) return 0;
  int h = 1;
  const Node* node = root_.get();
  while (!node->leaf) {
    node = node->children.front().get();
    ++h;
  }
  return h;
}

namespace {

void CheckNode(const RTree::Node* node, bool is_root, int min_entries,
               int max_entries, int depth, int* leaf_depth);

}  // namespace

void RTree::CheckInvariants() const {
  int leaf_depth = -1;
  CheckNode(root_.get(), /*is_root=*/true, min_entries_, max_entries_, 0,
            &leaf_depth);
}

namespace {

void CheckNode(const RTree::Node* node, bool is_root, int min_entries,
               int max_entries, int depth, int* leaf_depth) {
  // Max fan-out always holds. Minimum fill is NOT asserted: STR packing
  // legitimately underfills the trailing node of each level.
  (void)min_entries;
  const size_t fanout = node->Fanout();
  INDOOR_CHECK(fanout <= static_cast<size_t>(max_entries));
  if (!is_root && !node->leaf) {
    INDOOR_CHECK(fanout >= 1) << "empty internal node";
  }
  Rect expect = Rect::Empty();
  if (node->leaf) {
    if (*leaf_depth == -1) {
      *leaf_depth = depth;
    } else {
      INDOOR_CHECK(*leaf_depth == depth) << "leaves at unequal depth";
    }
    for (const auto& [r, id] : node->entries) expect = expect.Union(r);
  } else {
    INDOOR_CHECK(fanout >= 2 || !is_root);
    for (const auto& c : node->children) {
      INDOOR_CHECK(c->parent == node) << "broken parent pointer";
      CheckNode(c.get(), false, min_entries, max_entries, depth + 1,
                leaf_depth);
      expect = expect.Union(c->mbr);
    }
  }
  if (fanout > 0) {
    INDOOR_CHECK(std::fabs(expect.lo.x - node->mbr.lo.x) < 1e-9 &&
                 std::fabs(expect.lo.y - node->mbr.lo.y) < 1e-9 &&
                 std::fabs(expect.hi.x - node->mbr.hi.x) < 1e-9 &&
                 std::fabs(expect.hi.y - node->mbr.hi.y) < 1e-9)
        << "stale MBR";
  }
}

}  // namespace

}  // namespace indoor
