#include "core/index/index_framework.h"

#include <chrono>
#include <utility>

#include "core/query/query_cache.h"
#include "util/metrics.h"

namespace indoor {
namespace {

/// Builds one framework member via `make`, publishing its wall-clock
/// construction time (milliseconds) to the gauge `gauge_name`. Each call
/// site gets its own template instantiation (the lambda type), so the
/// gauge reference caching inside INDOOR_GAUGE_SET stays per-phase.
template <typename Make>
auto TimedBuild([[maybe_unused]] const char* gauge_name, Make&& make) {
#ifdef INDOOR_METRICS_ENABLED
  const auto t0 = std::chrono::steady_clock::now();
  auto built = std::forward<Make>(make)();
  const double elapsed_ms =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count() *
      1e3;
  INDOOR_GAUGE_SET(gauge_name, elapsed_ms);
  return built;
#else
  return std::forward<Make>(make)();
#endif
}

}  // namespace

IndexFramework::IndexFramework(const FloorPlan& plan, IndexOptions options)
    : plan_(&plan),
      options_(options),
      graph_(TimedBuild("build.graph_ms",
                        [&] { return DistanceGraph(plan); })),
      locator_(TimedBuild("build.locator_ms",
                          [&] { return PartitionLocator(plan); })),
      objects_(TimedBuild("build.objects_ms", [&] {
        return ObjectStore(plan, options.grid_cell_size);
      })) {
  BuildStructures(nullptr);
}

IndexFramework::IndexFramework(const FloorPlan& plan, IndexArtifacts artifacts,
                               IndexOptions options)
    : plan_(&plan),
      options_(options),
      graph_(TimedBuild("build.graph_ms",
                        [&] { return DistanceGraph(plan); })),
      locator_(TimedBuild("build.locator_ms",
                          [&] { return PartitionLocator(plan); })),
      objects_(TimedBuild("build.objects_ms", [&] {
        return ObjectStore(plan, options.grid_cell_size);
      })) {
  BuildStructures(&artifacts);
}

void IndexFramework::BuildStructures(IndexArtifacts* artifacts) {
  const size_t doors = plan_->door_count();
  if (artifacts != nullptr) mapping_ = std::move(artifacts->mapping);
  if (options_.use_hierarchy) {
    if (artifacts != nullptr && artifacts->hierarchy.has_value()) {
      hierarchy_ = std::move(*artifacts->hierarchy);
      INDOOR_CHECK(hierarchy_.door_count() == doors)
          << "preloaded hierarchy was built for a different plan";
    } else {
      hierarchy_ = TimedBuild("build.hier_ms", [&] {
        return HierarchyIndex::Build(graph_, options_.build_threads,
                                     options_.hierarchy_cell_target);
      });
    }
  } else {
    if (artifacts != nullptr && artifacts->md2d.has_value()) {
      d2d_matrix_ = std::move(*artifacts->md2d);
      INDOOR_CHECK(d2d_matrix_.door_count() == doors)
          << "preloaded Md2d was built for a different plan";
    } else {
      d2d_matrix_ = TimedBuild("build.md2d_ms", [&] {
        return DistanceMatrix(graph_, options_.build_threads);
      });
    }
    if (artifacts != nullptr && artifacts->midx.has_value()) {
      index_matrix_ = std::move(*artifacts->midx);
      INDOOR_CHECK(index_matrix_.door_count() == doors)
          << "preloaded Midx was built for a different plan";
    } else {
      index_matrix_ = TimedBuild("build.midx_ms", [&] {
        return DistanceIndexMatrix(d2d_matrix_, options_.build_threads);
      });
    }
  }
  if (artifacts != nullptr && artifacts->dpt.has_value()) {
    dpt_ = std::move(*artifacts->dpt);
    INDOOR_CHECK(dpt_.size() == doors)
        << "preloaded DPT was built for a different plan";
  } else {
    dpt_ = TimedBuild("build.dpt_ms", [&] {
      return DoorPartitionTable(graph_, options_.build_threads);
    });
  }
  const size_t landmark_count = options_.landmark_count > 0
                                    ? options_.landmark_count
                                    : AutoLandmarkCount(doors);
  if (options_.use_landmarks && landmark_count > 0) {
    if (artifacts != nullptr && artifacts->landmarks.has_value()) {
      landmarks_ = std::move(*artifacts->landmarks);
      INDOOR_CHECK(landmarks_.door_count() == doors || !landmarks_.valid())
          << "preloaded landmarks were built for a different plan";
    } else {
      landmarks_ = TimedBuild("build.landmarks_ms", [&] {
        return LandmarkIndex::Build(graph_, landmark_count);
      });
    }
  }
  if (artifacts != nullptr && artifacts->approx.has_value()) {
    // Objects are populated after construction, so the ANNX payload waits
    // in the approx index until the first RefreshApproxKnn fingerprints it
    // against the live store.
    approx_.StashPayload(std::move(*artifacts->approx));
  }
  // One hotness cell per partition; sized even in metrics-OFF builds
  // (the array is tiny and keeps the accessor contract unconditional),
  // though only metrics-ON query paths ever feed it.
  hotness_.Reset(plan_->partition_count());
  if (options_.enable_query_cache) {
    QueryCacheOptions cache_options;
    cache_options.field_capacity_bytes = options_.cache_capacity_bytes -
                                         options_.cache_capacity_bytes / 4;
    cache_options.host_capacity_bytes = options_.cache_capacity_bytes / 4;
    cache_options.result_capacity_bytes = options_.cache_capacity_bytes / 4;
    cache_options.shards = options_.cache_shards;
    query_cache_ = std::make_unique<QueryCache>(*plan_, locator_, objects_,
                                                cache_options);
  }
}

IndexFramework::~IndexFramework() = default;

void IndexFramework::RefreshApproxKnn() {
  if (!options_.approx_knn) return;
  // The tier re-ranks through the flat matrices and embeds via landmark
  // rows; without either there is nothing to serve and KnnQuery falls back
  // to the exact path anyway.
  if (!has_flat_matrix() || landmarks() == nullptr) return;
  TimedBuild("build.approx_knn_ms", [&] {
    approx_.Refresh(*plan_, objects_, landmarks_);
    return 0;
  });
}

void IndexFramework::InvalidateQueryCache() const {
  if (query_cache_ != nullptr) query_cache_->Invalidate();
}

}  // namespace indoor
