// Binary persistence for the pre-computed distance structures. Building
// Md2d costs |doors| Dijkstra runs (seconds on a 40-floor building, see
// bench_ablation_matrix_build); a deployment computes it once and loads it
// at startup.
//
// The one on-disk format is the INDOORIX container (SaveIndexContainer /
// LoadIndexContainer / MapIndexContainer): ONE versioned, sectioned,
// mmap-able file holding every persistable structure of an
// IndexFramework — Md2d, Midx, DPT, landmark rows, the hierarchy index and
// the approximate-kNN embeddings. A 64-byte file header (magic, version,
// plan fingerprint, file size, section count, door and partition counts)
// is followed by a table of 32-byte section entries (8-char tag,
// 64-byte-aligned offset, size, checksum) and the payloads themselves,
// each starting on a 64-byte boundary so a mapped file serves array views
// in place; the final 8 bytes repeat the magic to guard truncation.
// docs/FORMAT.md specifies every byte.
//
// LoadIndexContainer reads the file into owning structures and verifies
// every section checksum; MapIndexContainer mmaps it, performs structural
// validation only (bounds, alignment, counts, internal offset invariants
// — page content is NOT checksummed), and returns structures that borrow
// the mapping, which stays alive through IndexArtifacts::mapping. Every
// failure is a clean Status naming the file path and, where one is
// involved, the section; a stale file for a modified floor plan is
// rejected by fingerprint instead of silently reused.

#ifndef INDOOR_CORE_INDEX_INDEX_IO_H_
#define INDOOR_CORE_INDEX_INDEX_IO_H_

#include <cstdint>
#include <string>

#include "core/index/index_artifacts.h"
#include "core/index/index_framework.h"
#include "indoor/floor_plan.h"
#include "util/result.h"

namespace indoor {

/// A fingerprint of the plan's doors and topology; two plans with equal
/// fingerprints produce equal Md2d matrices.
uint64_t PlanDistanceFingerprint(const FloorPlan& plan);

/// Container format version written by SaveIndexContainer. Version 2
/// added the ANNX approximate-kNN embedding section; readers require an
/// exact version match, so version-1 files are rejected cleanly (rebuild
/// with `indoor_tool build`).
inline constexpr uint32_t kIndexContainerVersion = 2;

/// Writes every persistable structure `index` holds into one INDOORIX
/// container at `path`: Md2d + Midx (flat mode) or the hierarchy
/// (use_hierarchy mode), plus the DPT and, when built, the landmark rows.
Status SaveIndexContainer(const IndexFramework& index,
                          const std::string& path);

/// Reads a container into owning structures, verifying the plan
/// fingerprint and every section checksum. Fails with FailedPrecondition
/// when the plan changed, ParseError on corruption (bad magic, truncated
/// or misaligned section, checksum mismatch — the message names the
/// section), IOError when unreadable.
Result<IndexArtifacts> LoadIndexContainer(const FloorPlan& plan,
                                          const std::string& path);

/// Maps a container with mmap and returns structures that borrow the
/// mapped pages (zero copy; the mapping is held alive by the returned
/// IndexArtifacts::mapping and by any IndexFramework the artifacts are
/// moved into). Validation is structural only — header, fingerprint,
/// section bounds/alignment, and every internal count/offset invariant
/// are checked, but payload bytes are not checksummed (the file system is
/// trusted on this path; use LoadIndexContainer to authenticate content).
/// Publishes the `load.mmap_ms` gauge. Unimplemented on platforms
/// without mmap.
Result<IndexArtifacts> MapIndexContainer(const FloorPlan& plan,
                                         const std::string& path);

}  // namespace indoor

#endif  // INDOOR_CORE_INDEX_INDEX_IO_H_
