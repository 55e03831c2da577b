// The INDOORIX container suite (docs/FORMAT.md): round trips through both
// load modes must reproduce every structure bit for bit, and every
// corruption mode — a file too small to hold a header, truncation, bad
// magic, flipped fingerprint, misaligned or oversized sections, invalid
// payload invariants — must surface as a clean Status naming the file and
// section, never a crash (the suite runs under ASan in CI).

#include "core/index/index_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/query/query_engine.h"
#include "gen/building_generator.h"
#include "gen/object_generator.h"
#include "gen/query_generator.h"
#include "indoor/floor_plan_builder.h"
#include "indoor/sample_plans.h"

namespace indoor {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

FloorPlan MakeCampus(uint64_t seed) {
  CampusConfig config;
  config.buildings = 2;
  config.building.floors = 2;
  config.building.rooms_per_floor = 8;
  config.seed = seed;
  config.building.seed = seed;
  return GenerateCampus(config);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Saves a container for `plan` under the given options and returns its
/// path (unique per test via `name`).
std::string SaveContainer(const FloorPlan& plan, const IndexOptions& options,
                          const std::string& name) {
  const IndexFramework index(plan, options);
  const std::string path = TempPath(name);
  EXPECT_TRUE(SaveIndexContainer(index, path).ok());
  return path;
}

bool BitEq(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

/// Three rooms in a row, a -> c through a one-way door and c <-> e through
/// a two-way door: no walk leads back into a, so Md2d holds +inf entries.
FloorPlan MakeOneWayPlan() {
  FloorPlanBuilder b;
  const PartitionId a =
      b.AddPartition("a", PartitionKind::kRoom, 1, Rect(0, 0, 4, 4));
  const PartitionId c =
      b.AddPartition("c", PartitionKind::kRoom, 1, Rect(4, 0, 8, 4));
  const PartitionId e =
      b.AddPartition("e", PartitionKind::kRoom, 1, Rect(8, 0, 12, 4));
  b.AddUnidirectionalDoor("ow", Segment({4, 1.8}, {4, 2.2}), a, c);
  b.AddBidirectionalDoor("bd", Segment({8, 1.8}, {8, 2.2}), c, e);
  auto plan = std::move(b).Build();
  EXPECT_TRUE(plan.ok()) << plan.status();
  return std::move(plan).value();
}

TEST(IndexContainerTest, FlatRoundTripIsBitwiseLossless) {
  std::vector<FloorPlan> plans;
  plans.push_back(MakeCampus(3));
  plans.push_back(MakeOneWayPlan());
  size_t infinite_entries = 0;
  for (const FloorPlan& plan : plans) {
    const IndexFramework built(plan, IndexOptions{});
    const std::string path = TempPath("flat_roundtrip.idx");
    ASSERT_TRUE(SaveIndexContainer(built, path).ok());
    const size_t n = plan.door_count();
    for (DoorId a = 0; a < n; ++a) {
      for (DoorId b = 0; b < n; ++b) {
        if (built.d2d_matrix().At(a, b) == kInfDistance) ++infinite_entries;
      }
    }

    for (const bool mmap_mode : {false, true}) {
      SCOPED_TRACE(testing::Message() << n << " doors, "
                                      << (mmap_mode ? "map" : "load"));
      auto artifacts = mmap_mode ? MapIndexContainer(plan, path)
                                 : LoadIndexContainer(plan, path);
      ASSERT_TRUE(artifacts.ok()) << artifacts.status();
      ASSERT_TRUE(artifacts->md2d.has_value());
      ASSERT_TRUE(artifacts->midx.has_value());
      ASSERT_TRUE(artifacts->dpt.has_value());
      ASSERT_TRUE(artifacts->landmarks.has_value());
      EXPECT_FALSE(artifacts->hierarchy.has_value());
      EXPECT_EQ(artifacts->mapping != nullptr, mmap_mode);

      for (DoorId a = 0; a < n; ++a) {
        for (DoorId b = 0; b < n; ++b) {
          EXPECT_TRUE(BitEq(artifacts->md2d->At(a, b),
                            built.d2d_matrix().At(a, b)));
          EXPECT_EQ(artifacts->midx->At(a, b), built.index_matrix().At(a, b));
        }
        const DptRecord& loaded = (*artifacts->dpt)[a];
        const DptRecord& orig = built.dpt()[a];
        EXPECT_EQ(loaded.door, orig.door);
        EXPECT_EQ(loaded.part1, orig.part1);
        EXPECT_EQ(loaded.part2, orig.part2);
        EXPECT_TRUE(BitEq(loaded.dist1, orig.dist1));
        EXPECT_TRUE(BitEq(loaded.dist2, orig.dist2));
      }
      const LandmarkIndex& landmarks = *artifacts->landmarks;
      ASSERT_EQ(landmarks.count(), built.landmarks()->count());
      EXPECT_TRUE(std::ranges::equal(landmarks.doors(),
                                     built.landmarks()->doors()));
      for (DoorId d = 0; d < n; ++d) {
        for (size_t l = 0; l < landmarks.count(); ++l) {
          EXPECT_TRUE(BitEq(landmarks.ForwardRow(d)[l],
                            built.landmarks()->ForwardRow(d)[l]));
          EXPECT_TRUE(BitEq(landmarks.BackwardRow(d)[l],
                            built.landmarks()->BackwardRow(d)[l]));
        }
      }
    }
    std::remove(path.c_str());
  }
  // The one-way plan's unreachable door pairs made the trip too.
  EXPECT_GT(infinite_entries, 0u);
}

TEST(IndexContainerTest, SavedBytesDependOnlyOnThePlan) {
  // Serial and parallel builds, flat and hierarchical, save the same
  // bytes: no struct padding or other unwritten memory reaches the file.
  const FloorPlan plan = MakeCampus(19);
  for (const bool hierarchy : {false, true}) {
    std::string first;
    for (const unsigned threads : {1u, 4u}) {
      IndexOptions options;
      options.use_hierarchy = hierarchy;
      options.build_threads = threads;
      const std::string path =
          SaveContainer(plan, options, "reproducible.idx");
      const std::string bytes = ReadFile(path);
      std::remove(path.c_str());
      if (first.empty()) {
        first = bytes;
      } else {
        EXPECT_TRUE(bytes == first)
            << (hierarchy ? "hierarchy" : "flat") << " container differs";
      }
    }
  }
}

TEST(IndexContainerTest, FingerprintSensitiveToGeometryAndTopology) {
  BuildingConfig config;
  config.floors = 2;
  config.rooms_per_floor = 6;
  const uint64_t base = PlanDistanceFingerprint(GenerateBuilding(config));
  // Same config reproduces the fingerprint.
  EXPECT_EQ(PlanDistanceFingerprint(GenerateBuilding(config)), base);
  // A different seed moves doors -> different fingerprint.
  config.seed = 43;
  EXPECT_NE(PlanDistanceFingerprint(GenerateBuilding(config)), base);
  // A different staircase length changes metric scales only.
  config.seed = 42;
  config.stair_walk_length = 11.0;
  EXPECT_NE(PlanDistanceFingerprint(GenerateBuilding(config)), base);
}

TEST(IndexContainerTest, HierarchyRoundTripServesIdenticalQueries) {
  const FloorPlan plan = MakeCampus(5);
  IndexOptions options;
  options.use_hierarchy = true;
  options.hierarchy_cell_target = 16;
  const std::string path = SaveContainer(plan, options, "hier_roundtrip.idx");

  // Oracle: the flat engine built from scratch. Both cold-start modes of
  // the hierarchical container must serve bitwise-identical answers.
  QueryEngine flat(plan);
  Rng obj_rng(9);
  PopulateStore(GenerateObjects(flat.plan(), 300, &obj_rng),
                &flat.index().objects());
  for (const bool mmap_mode : {false, true}) {
    auto artifacts = mmap_mode ? MapIndexContainer(plan, path)
                               : LoadIndexContainer(plan, path);
    ASSERT_TRUE(artifacts.ok()) << artifacts.status();
    ASSERT_TRUE(artifacts->hierarchy.has_value());
    EXPECT_FALSE(artifacts->md2d.has_value());
    QueryEngine cold(plan, std::move(artifacts).value(), options);
    Rng cold_rng(9);
    PopulateStore(GenerateObjects(cold.plan(), 300, &cold_rng),
                  &cold.index().objects());

    Rng rng(77);
    const auto pairs = GeneratePositionPairs(plan, 25, &rng);
    const auto positions = GenerateQueryPositions(plan, 25, &rng);
    for (const auto& [a, b] : pairs) {
      EXPECT_TRUE(BitEq(flat.Distance(a, b), cold.Distance(a, b)));
    }
    for (size_t i = 0; i < positions.size(); ++i) {
      EXPECT_EQ(flat.Range(positions[i], 25.0), cold.Range(positions[i], 25.0));
      const auto kf = flat.Nearest(positions[i], 5);
      const auto kc = cold.Nearest(positions[i], 5);
      ASSERT_EQ(kf.size(), kc.size());
      for (size_t j = 0; j < kf.size(); ++j) {
        EXPECT_EQ(kf[j].id, kc[j].id);
        EXPECT_TRUE(BitEq(kf[j].distance, kc[j].distance));
      }
    }
  }
  std::remove(path.c_str());
}

TEST(IndexContainerTest, MappedFrameworkOutlivesArtifacts) {
  // The mapping keepalive must travel with the artifacts into the
  // framework: queries run after the Result and the local artifacts are
  // gone, so any dropped reference would be a use-after-munmap (ASan).
  const FloorPlan plan = MakeCampus(7);
  const std::string path = SaveContainer(plan, {}, "keepalive.idx");
  auto engine = [&] {
    auto artifacts = MapIndexContainer(plan, path);
    EXPECT_TRUE(artifacts.ok()) << artifacts.status();
    return QueryEngine(plan, std::move(artifacts).value());
  }();
  Rng rng(3);
  const auto pairs = GeneratePositionPairs(plan, 10, &rng);
  QueryEngine oracle(plan);
  for (const auto& [a, b] : pairs) {
    EXPECT_TRUE(BitEq(oracle.Distance(a, b), engine.Distance(a, b)));
  }
  std::remove(path.c_str());
}

// ---- Corruption suite ---------------------------------------------------

/// Applies `mutate` to a fresh flat container and expects BOTH load modes
/// to fail cleanly with `code`, with a message naming the file.
void ExpectCorruptionRejected(const std::function<void(std::string*)>& mutate,
                              StatusCode code, const std::string& expect_in,
                              const std::string& name) {
  const FloorPlan plan = MakeCampus(11);
  const std::string path = SaveContainer(plan, {}, name);
  std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 104u);
  mutate(&bytes);
  WriteFile(path, bytes);
  for (const bool mmap_mode : {false, true}) {
    auto artifacts = mmap_mode ? MapIndexContainer(plan, path)
                               : LoadIndexContainer(plan, path);
    ASSERT_FALSE(artifacts.ok()) << (mmap_mode ? "map" : "load")
                                 << " accepted corrupt " << name;
    EXPECT_EQ(artifacts.status().code(), code) << artifacts.status();
    // Satellite contract: every failure names the offending file (and
    // the section, when one is involved — covered by expect_in).
    EXPECT_NE(artifacts.status().message().find(path), std::string::npos)
        << artifacts.status();
    EXPECT_NE(artifacts.status().message().find(expect_in),
              std::string::npos)
        << artifacts.status();
  }
  std::remove(path.c_str());
}

TEST(IndexContainerTest, RejectsBadMagic) {
  ExpectCorruptionRejected([](std::string* b) { (*b)[0] ^= 0xFF; },
                           StatusCode::kParseError, "not an INDOORIX",
                           "bad_magic.idx");
}

TEST(IndexContainerTest, RejectsUnsupportedVersion) {
  ExpectCorruptionRejected([](std::string* b) { (*b)[8] = 99; },
                           StatusCode::kParseError, "version",
                           "bad_version.idx");
}

TEST(IndexContainerTest, RejectsFlippedFingerprint) {
  // Fingerprint lives at header offset 16.
  ExpectCorruptionRejected([](std::string* b) { (*b)[16] ^= 0x01; },
                           StatusCode::kFailedPrecondition,
                           "different floor plan", "bad_fingerprint.idx");
}

TEST(IndexContainerTest, RejectsTruncatedFile) {
  ExpectCorruptionRejected(
      [](std::string* b) { b->resize(b->size() - 100); },
      StatusCode::kParseError, "bytes", "truncated.idx");
}

TEST(IndexContainerTest, RejectsShortTextFile) {
  ExpectCorruptionRejected(
      [](std::string* b) { *b = "hello world, definitely not an index"; },
      StatusCode::kParseError, "too small", "short_text.idx");
}

TEST(IndexContainerTest, RejectsCorruptTrailer) {
  ExpectCorruptionRejected(
      [](std::string* b) { (*b)[b->size() - 1] ^= 0xFF; },
      StatusCode::kParseError, "trailer", "bad_trailer.idx");
}

TEST(IndexContainerTest, RejectsMisalignedSectionOffset) {
  // First section entry sits at byte 64; its offset field at 64 + 8.
  // Nudging it off the 64-byte grid must name the section.
  ExpectCorruptionRejected(
      [](std::string* b) {
        uint64_t off;
        std::memcpy(&off, b->data() + 72, sizeof(off));
        off += 8;
        std::memcpy(b->data() + 72, &off, sizeof(off));
      },
      StatusCode::kParseError, "MD2D", "misaligned.idx");
}

TEST(IndexContainerTest, RejectsOversizedSection) {
  // Blowing up the first section's size field must read as truncation
  // (the payload can no longer fit in the file), naming the section.
  ExpectCorruptionRejected(
      [](std::string* b) {
        const uint64_t huge = 1ull << 40;
        std::memcpy(b->data() + 80, &huge, sizeof(huge));
      },
      StatusCode::kParseError, "MD2D", "oversized.idx");
}

TEST(IndexContainerTest, ReadModeRejectsPayloadBitFlip) {
  // A single flipped payload bit defeats the section checksum on the
  // read path. (The map path intentionally skips content checksums; its
  // guarantees are structural only.)
  const FloorPlan plan = MakeCampus(11);
  const std::string path = SaveContainer(plan, {}, "bitflip.idx");
  std::string bytes = ReadFile(path);
  uint64_t first_offset;
  std::memcpy(&first_offset, bytes.data() + 72, sizeof(first_offset));
  bytes[first_offset + 128] ^= 0x10;  // deep inside the MD2D payload
  WriteFile(path, bytes);
  auto loaded = LoadIndexContainer(plan, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos)
      << loaded.status();
  EXPECT_NE(loaded.status().message().find("MD2D"), std::string::npos)
      << loaded.status();
  std::remove(path.c_str());
}

/// Byte offset of the HIER section payload within a serialized container
/// (located via the section table: 32-byte entries from byte 64), or 0
/// when the section is absent.
uint64_t FindHierOffset(const std::string& bytes) {
  uint32_t section_count;
  std::memcpy(&section_count, bytes.data() + 32, sizeof(section_count));
  for (uint32_t i = 0; i < section_count; ++i) {
    const size_t entry = 64 + i * 32;
    if (std::memcmp(bytes.data() + entry, "HIER    ", 8) == 0) {
      uint64_t offset;
      std::memcpy(&offset, bytes.data() + entry + 8, sizeof(offset));
      return offset;
    }
  }
  return 0;
}

/// Saves a hierarchical container for a fresh campus plan, applies
/// `corrupt` to its bytes (given the HIER payload offset), and expects
/// the map path to reject it with a ParseError naming the section and
/// carrying `expect_in` — pinning WHICH validation fired, since a later
/// check tripping by accident on whatever bytes an out-of-bounds offset
/// lands on would make the test pass while the file is read unsafely.
void ExpectHierCorruptionRejected(
    const std::string& name, const std::string& expect_in,
    const std::function<void(std::string*, uint64_t)>& corrupt) {
  const FloorPlan plan = MakeCampus(13);
  IndexOptions options;
  options.use_hierarchy = true;
  options.hierarchy_cell_target = 8;
  const std::string path = SaveContainer(plan, options, name);
  std::string bytes = ReadFile(path);
  const uint64_t hier_offset = FindHierOffset(bytes);
  ASSERT_NE(hier_offset, 0u);
  corrupt(&bytes, hier_offset);
  WriteFile(path, bytes);
  auto mapped = MapIndexContainer(plan, path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kParseError);
  EXPECT_NE(mapped.status().message().find("HIER"), std::string::npos)
      << mapped.status();
  EXPECT_NE(mapped.status().message().find(expect_in), std::string::npos)
      << mapped.status();
  std::remove(path.c_str());
}

TEST(IndexContainerTest, MapModeValidatesHierarchyInvariants) {
  // Structural validation must catch invalid payload invariants even on
  // the un-checksummed map path: point partition 0 at a nonexistent cell.
  ExpectHierCorruptionRejected(
      "bad_hier.idx", "partition cell out of range",
      [](std::string* bytes, uint64_t hier_offset) {
        // partition_cells[0] sits right after the 64-byte HIER mini-header.
        const uint32_t bogus = 0xFFFFFFF0u;
        std::memcpy(bytes->data() + hier_offset + 64, &bogus, sizeof(bogus));
      });
}

TEST(IndexContainerTest, MapModeRejectsImplausibleHierCellCount) {
  // nc == UINT64_MAX wraps nc + 1 to 0, so the offset arrays decode as
  // zero-length and the validation loops would run off their ends on a
  // crafted section size. Cells cluster partitions, so any nc > np must
  // die at the mini-header, before any nc-driven array decoding.
  ExpectHierCorruptionRejected(
      "huge_nc_hier.idx", "implausible counts",
      [](std::string* bytes, uint64_t hier_offset) {
        const uint64_t bogus = UINT64_MAX;  // mini[1] = cell_count
        std::memcpy(bytes->data() + hier_offset + 8, &bogus, sizeof(bogus));
      });
}

TEST(IndexContainerTest, MapModeRejectsHierBorderOffsetPastTotal) {
  // cell_border_offsets[c + 1] gates indexing into cell_border_locals, so
  // its bound check must fire BEFORE the border-local loop — without it
  // the loop reads past cell_border_locals (and, for a large enough
  // offset, past the mapped file) until some stray byte happens to fail
  // the range test, which is why this test pins the exact message.
  ExpectHierCorruptionRejected(
      "huge_border_offset_hier.idx", "exceeds header total",
      [](std::string* bytes, uint64_t hier_offset) {
        // Walk the 64-byte-aligned payload layout (docs/FORMAT.md) up to
        // cell_border_offsets, using the mini-header's own counts.
        uint64_t mini[7];
        std::memcpy(mini, bytes->data() + hier_offset, sizeof(mini));
        const uint64_t n = mini[0], nc = mini[1], np = mini[3],
                       member_total = mini[4];
        const auto align = [](uint64_t v) { return (v + 63) & ~uint64_t{63}; };
        uint64_t off = 64;                          // mini-header
        off = align(off) + np * 4;                  // partition_cells
        off = align(off) + 2 * n * 4;               // door_cells
        off = align(off) + 2 * n * 4;               // door_locals
        off = align(off) + (nc + 1) * 8;            // member_offsets
        off = align(off) + member_total * 4;        // members (DoorId)
        off = align(off) + member_total * 8;        // escape_radii
        off = align(off) + 8;                       // cell_border_offsets[1]
        const uint64_t huge = uint64_t{1} << 40;
        std::memcpy(bytes->data() + hier_offset + off, &huge, sizeof(huge));
      });
}

/// Byte offset of the ANNX section payload (0 when absent), via the same
/// section-table walk as FindHierOffset.
uint64_t FindAnnxOffset(const std::string& bytes) {
  uint32_t section_count;
  std::memcpy(&section_count, bytes.data() + 32, sizeof(section_count));
  for (uint32_t i = 0; i < section_count; ++i) {
    const size_t entry = 64 + i * 32;
    if (std::memcmp(bytes.data() + entry, "ANNX    ", 8) == 0) {
      uint64_t offset;
      std::memcpy(&offset, bytes.data() + entry + 8, sizeof(offset));
      return offset;
    }
  }
  return 0;
}

/// Saves a container carrying an ANNX section (embedding tier refreshed
/// over a populated store), applies `corrupt` at the payload offset, and
/// expects the map path to reject it naming the section and `expect_in`
/// (same rationale as ExpectHierCorruptionRejected: pin WHICH validation
/// fired).
void ExpectAnnxCorruptionRejected(
    const std::string& name, const std::string& expect_in,
    const std::function<void(std::string*, uint64_t)>& corrupt) {
  const FloorPlan plan = MakeCampus(17);
  IndexOptions options;
  options.use_landmarks = true;
  options.landmark_count = 8;
  options.approx_knn = true;
  IndexFramework index(plan, options);
  Rng rng(71);
  PopulateStore(GenerateObjects(plan, 60, &rng), &index.objects());
  index.RefreshApproxKnn();
  ASSERT_NE(index.approx_knn(), nullptr);
  const std::string path = TempPath(name);
  ASSERT_TRUE(SaveIndexContainer(index, path).ok());
  std::string bytes = ReadFile(path);
  const uint64_t annx_offset = FindAnnxOffset(bytes);
  ASSERT_NE(annx_offset, 0u);
  corrupt(&bytes, annx_offset);
  WriteFile(path, bytes);
  auto mapped = MapIndexContainer(plan, path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kParseError);
  EXPECT_NE(mapped.status().message().find("ANNX"), std::string::npos)
      << mapped.status();
  EXPECT_NE(mapped.status().message().find(expect_in), std::string::npos)
      << mapped.status();
  std::remove(path.c_str());
}

TEST(IndexContainerTest, MapModeRejectsZeroAnnxLandmarkCount) {
  // count gates the fwd/bwd row math; 0 (and anything past kMaxCount)
  // must die at the mini-header before any array decoding.
  ExpectAnnxCorruptionRejected(
      "zero_lm_annx.idx", "implausible landmark count",
      [](std::string* bytes, uint64_t annx_offset) {
        const uint64_t zero = 0;  // mini[1] = landmark_count
        std::memcpy(bytes->data() + annx_offset + 8, &zero, sizeof(zero));
      });
}

TEST(IndexContainerTest, MapModeRejectsOversizedAnnxLandmarkCount) {
  ExpectAnnxCorruptionRejected(
      "big_lm_annx.idx", "implausible landmark count",
      [](std::string* bytes, uint64_t annx_offset) {
        const uint64_t big = 1000;
        std::memcpy(bytes->data() + annx_offset + 8, &big, sizeof(big));
      });
}

/// Offset of leg_offsets[i] within the ANNX payload, computed from the
/// mini-header's own counts (layout: 64-byte mini-header pad, fwd and bwd
/// rows of count * n doubles each, then the n + 1 CSR offsets).
uint64_t AnnxLegOffsetPos(const std::string& bytes, uint64_t annx_offset,
                          uint64_t i) {
  uint64_t n, count;
  std::memcpy(&n, bytes.data() + annx_offset, sizeof(n));
  std::memcpy(&count, bytes.data() + annx_offset + 8, sizeof(count));
  return annx_offset + 64 + 2 * count * n * 8 + i * 8;
}

TEST(IndexContainerTest, MapModeRejectsAnnxLegOffsetsNotStartingAtZero) {
  ExpectAnnxCorruptionRejected(
      "csr_start_annx.idx", "do not start at 0",
      [](std::string* bytes, uint64_t annx_offset) {
        const uint64_t bogus = 5;
        std::memcpy(bytes->data() + AnnxLegOffsetPos(*bytes, annx_offset, 0),
                    &bogus, sizeof(bogus));
      });
}

TEST(IndexContainerTest, MapModeRejectsNonMonotoneAnnxLegOffsets) {
  // leg_offsets[o + 1] gates indexing into the leg pool; an offset past
  // leg_total would make Legs(o) span unrelated payload (or unmapped
  // pages), so the full-CSR walk must reject it before adoption.
  ExpectAnnxCorruptionRejected(
      "csr_mono_annx.idx", "leg offsets corrupt at object",
      [](std::string* bytes, uint64_t annx_offset) {
        const uint64_t huge = uint64_t{1} << 40;
        std::memcpy(bytes->data() + AnnxLegOffsetPos(*bytes, annx_offset, 1),
                    &huge, sizeof(huge));
      });
}

TEST(IndexContainerTest, MapModeRejectsAnnxLegOffsetsEndingShort) {
  // Shrinking the final offset keeps the CSR monotone (every object owns
  // at least one enter-door leg on these plans) but breaks the
  // offsets[n] == leg_total seal that pins the pool's exact extent.
  ExpectAnnxCorruptionRejected(
      "csr_end_annx.idx", "do not end on leg_total",
      [](std::string* bytes, uint64_t annx_offset) {
        uint64_t n;
        std::memcpy(&n, bytes->data() + annx_offset, sizeof(n));
        const uint64_t pos = AnnxLegOffsetPos(*bytes, annx_offset, n);
        uint64_t last;
        std::memcpy(&last, bytes->data() + pos, sizeof(last));
        last -= 1;
        std::memcpy(bytes->data() + pos, &last, sizeof(last));
      });
}

TEST(IndexContainerTest, ReadModeRejectsAnnxPayloadBitFlip) {
  // The ANNX section participates in the same per-section checksum
  // regime as every other section on the read path.
  const FloorPlan plan = MakeCampus(17);
  IndexOptions options;
  options.use_landmarks = true;
  options.landmark_count = 8;
  options.approx_knn = true;
  IndexFramework index(plan, options);
  Rng rng(71);
  PopulateStore(GenerateObjects(plan, 60, &rng), &index.objects());
  index.RefreshApproxKnn();
  const std::string path = TempPath("bitflip_annx.idx");
  ASSERT_TRUE(SaveIndexContainer(index, path).ok());
  std::string bytes = ReadFile(path);
  const uint64_t annx_offset = FindAnnxOffset(bytes);
  ASSERT_NE(annx_offset, 0u);
  bytes[annx_offset + 72] ^= 0x10;  // inside the fwd embedding rows
  WriteFile(path, bytes);
  auto loaded = LoadIndexContainer(plan, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos)
      << loaded.status();
  EXPECT_NE(loaded.status().message().find("ANNX"), std::string::npos)
      << loaded.status();
  std::remove(path.c_str());
}

TEST(IndexContainerTest, MissingFileIsIOError) {
  const FloorPlan plan = MakeRunningExamplePlan();
  const auto loaded = LoadIndexContainer(plan, "/nonexistent/x.idx");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  const auto mapped = MapIndexContainer(plan, "/nonexistent/x.idx");
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().code(), StatusCode::kOk);
}

TEST(IndexContainerTest, RejectsContainerOfDifferentPlan) {
  const FloorPlan plan_a = MakeCampus(11);
  const FloorPlan plan_b = MakeCampus(12);
  const std::string path = SaveContainer(plan_a, {}, "wrong_plan.idx");
  for (const bool mmap_mode : {false, true}) {
    auto artifacts = mmap_mode ? MapIndexContainer(plan_b, path)
                               : LoadIndexContainer(plan_b, path);
    ASSERT_FALSE(artifacts.ok());
    EXPECT_EQ(artifacts.status().code(), StatusCode::kFailedPrecondition);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace indoor
