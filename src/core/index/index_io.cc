#include "core/index/index_io.h"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "util/metrics.h"

namespace indoor {
namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h *= 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 29);
}

uint64_t MixDouble(uint64_t h, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return Mix(h, bits);
}

template <typename T>
void WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

}  // namespace

uint64_t PlanDistanceFingerprint(const FloorPlan& plan) {
  uint64_t h = 0xC0FFEE;
  h = Mix(h, plan.partition_count());
  h = Mix(h, plan.door_count());
  for (const Door& door : plan.doors()) {
    h = MixDouble(h, door.geometry().a.x);
    h = MixDouble(h, door.geometry().a.y);
    h = MixDouble(h, door.geometry().b.x);
    h = MixDouble(h, door.geometry().b.y);
    for (const DoorConnection& c : plan.D2P(door.id())) {
      h = Mix(h, (static_cast<uint64_t>(c.from) << 32) | c.to);
    }
  }
  for (const Partition& part : plan.partitions()) {
    h = MixDouble(h, part.metric_scale());
    for (const Point& v : part.footprint().outer().vertices()) {
      h = MixDouble(h, v.x);
      h = MixDouble(h, v.y);
    }
    for (const Polygon& obs : part.footprint().obstacles()) {
      for (const Point& v : obs.vertices()) {
        h = MixDouble(h, v.x);
        h = MixDouble(h, v.y);
      }
    }
  }
  return h;
}

// ---- The INDOORIX sectioned container ----------------------------------
//
// docs/FORMAT.md is the byte-for-byte specification; this block is the
// reference implementation. The reader is written once over a raw byte
// view and shared by both load modes: LoadIndexContainer hands it a heap
// buffer and copies payloads out (after checksumming them), while
// MapIndexContainer hands it the mmap-ed pages and borrows (structural
// validation only). Every parse failure is a clean Status carrying the
// file path and, once one is in play, the section tag.

namespace {

// "INDOORIX" read as a little-endian u64 (byte 0 = 'I').
constexpr uint64_t kContainerMagic = 0x5849524F4F444E49ULL;
constexpr uint64_t kAlign = 64;

uint64_t AlignUp(uint64_t v) { return (v + (kAlign - 1)) & ~(kAlign - 1); }

/// The fixed 64-byte file header. All integers little-endian (the only
/// byte order the library targets; the magic doubles as an endianness
/// probe since its byte-swapped value never matches).
struct FileHeader {
  uint64_t magic = kContainerMagic;
  uint32_t version = kIndexContainerVersion;
  uint32_t header_size = sizeof(FileHeader);
  uint64_t fingerprint = 0;
  uint64_t file_size = 0;
  uint32_t section_count = 0;
  uint32_t flags = 0;
  uint64_t door_count = 0;
  uint64_t partition_count = 0;
  uint64_t reserved = 0;
};
static_assert(sizeof(FileHeader) == 64, "header must be exactly 64 bytes");
static_assert(std::is_trivially_copyable_v<FileHeader>);

/// One 32-byte section-table entry. `tag` is 8 ASCII characters padded
/// with spaces; `offset` is absolute from the start of the file and
/// 64-byte aligned; `checksum` folds the payload bytes (verified by the
/// read path, trusted by the map path).
struct SectionEntry {
  char tag[8];
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
};
static_assert(sizeof(SectionEntry) == 32, "entry must be exactly 32 bytes");
static_assert(std::is_trivially_copyable_v<SectionEntry>);

// DptRecord is persisted verbatim, so its layout is part of the on-disk
// format; these assertions pin it (docs/FORMAT.md documents the padding).
static_assert(sizeof(DptRecord) == 32, "DptRecord layout is persisted");
static_assert(std::is_trivially_copyable_v<DptRecord>);

constexpr char kTagMd2d[8] = {'M', 'D', '2', 'D', ' ', ' ', ' ', ' '};
constexpr char kTagMidx[8] = {'M', 'I', 'D', 'X', ' ', ' ', ' ', ' '};
constexpr char kTagDpt[8] = {'D', 'P', 'T', ' ', ' ', ' ', ' ', ' '};
constexpr char kTagLmrk[8] = {'L', 'M', 'R', 'K', ' ', ' ', ' ', ' '};
constexpr char kTagHier[8] = {'H', 'I', 'E', 'R', ' ', ' ', ' ', ' '};
constexpr char kTagAnnx[8] = {'A', 'N', 'N', 'X', ' ', ' ', ' ', ' '};

std::string TagName(const char tag[8]) {
  std::string s(tag, tag + 8);
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

bool TagEq(const char a[8], const char b[8]) {
  return std::memcmp(a, b, 8) == 0;
}

/// Folds a payload into a 64-bit checksum: Mix over the bytes taken eight
/// at a time (zero-padded tail), then over the length.
uint64_t SectionChecksum(const uint8_t* data, uint64_t size) {
  uint64_t h = 0x53454354u;  // "SECT"
  uint64_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, 8);
    h = Mix(h, w);
  }
  if (i < size) {
    uint64_t w = 0;
    std::memcpy(&w, data + i, size - i);
    h = Mix(h, w);
  }
  return Mix(h, size);
}

/// Accumulates one section payload in memory: a 64-byte mini-header
/// followed by arrays, each starting on a 64-byte boundary so the offsets
/// survive into the mapped file (section offsets are themselves
/// 64-aligned).
class PayloadBuilder {
 public:
  template <typename T>
  void Pod(T v) {
    const size_t at = bytes_.size();
    bytes_.resize(at + sizeof(T));
    std::memcpy(bytes_.data() + at, &v, sizeof(T));
  }

  void PadTo(size_t boundary) {
    bytes_.resize(AlignUpTo(bytes_.size(), boundary), 0);
  }

  template <typename T>
  void Array(const T* data, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    PadTo(kAlign);
    const size_t at = bytes_.size();
    bytes_.resize(at + count * sizeof(T));
    if (count > 0) std::memcpy(bytes_.data() + at, data, count * sizeof(T));
  }

  template <typename T>
  void Array(std::span<const T> s) {
    Array(s.data(), s.size());
  }

  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  static size_t AlignUpTo(size_t v, size_t b) {
    return (v + (b - 1)) & ~(b - 1);
  }
  std::vector<uint8_t> bytes_;
};

std::vector<uint8_t> BuildMd2dPayload(const DistanceMatrix& m) {
  PayloadBuilder b;
  const uint64_t n = m.door_count();
  b.Pod(n);
  b.PadTo(kAlign);
  b.Array(n > 0 ? m.Row(0) : nullptr, static_cast<size_t>(n * n));
  return b.Take();
}

std::vector<uint8_t> BuildMidxPayload(const DistanceIndexMatrix& m) {
  PayloadBuilder b;
  const uint64_t n = m.door_count();
  b.Pod(n);
  b.PadTo(kAlign);
  b.Array(n > 0 ? m.Row(0) : nullptr, static_cast<size_t>(n * n));
  return b.Take();
}

std::vector<uint8_t> BuildDptPayload(const DoorPartitionTable& dpt) {
  static_assert(sizeof(DptRecord) == 32 && offsetof(DptRecord, dist2) == 24,
                "DPT records are mapped in place: layout per docs/FORMAT.md");
  PayloadBuilder b;
  b.Pod(static_cast<uint64_t>(dpt.size()));
  b.PadTo(kAlign);
  // Field by field, so the 4 padding bytes after part2 are written as
  // zeros rather than whatever the memory under the record held.
  for (const DptRecord& r : dpt.Records()) {
    b.Pod(r.door);
    b.Pod(r.part1);
    b.Pod(r.dist1);
    b.Pod(r.part2);
    b.Pod(uint32_t{0});
    b.Pod(r.dist2);
  }
  return b.Take();
}

std::vector<uint8_t> BuildLandmarkPayload(const LandmarkIndex& lm) {
  PayloadBuilder b;
  b.Pod(static_cast<uint64_t>(lm.door_count()));
  b.Pod(static_cast<uint64_t>(lm.count()));
  b.PadTo(kAlign);
  b.Array(lm.doors());
  b.Array(lm.ForwardPayload());
  b.Array(lm.BackwardPayload());
  return b.Take();
}

std::vector<uint8_t> BuildHierarchyPayload(const HierarchyIndex& h) {
  PayloadBuilder b;
  b.Pod(static_cast<uint64_t>(h.door_count()));
  b.Pod(static_cast<uint64_t>(h.cell_count()));
  b.Pod(static_cast<uint64_t>(h.border_count()));
  b.Pod(static_cast<uint64_t>(h.PartitionCells().size()));
  b.Pod(static_cast<uint64_t>(h.Members().size()));
  b.Pod(static_cast<uint64_t>(h.CellBorderLocalsFlat().size()));
  b.Pod(static_cast<uint64_t>(h.Blocks().size()));
  b.Pod(h.cell_target());
  b.Pod(uint32_t{0});  // reserved
  b.PadTo(kAlign);
  b.Array(h.PartitionCells());
  b.Array(h.DoorCells());
  b.Array(h.DoorLocals());
  b.Array(h.MemberOffsets());
  b.Array(h.Members());
  b.Array(h.EscapeRadii());
  b.Array(h.CellBorderOffsets());
  b.Array(h.CellBorderLocalsFlat());
  b.Array(h.BlockOffsets());
  b.Array(h.Blocks());
  b.Array(h.border_doors());
  b.Array(h.BorderOfDoor());
  b.Array(h.BorderMatrix());
  return b.Take();
}

std::vector<uint8_t> BuildApproxPayload(const ApproxKnnPayload& p) {
  PayloadBuilder b;
  b.Pod(p.object_count);
  b.Pod(p.landmark_count);
  b.Pod(p.leg_total);
  b.Pod(p.fingerprint);
  b.PadTo(kAlign);
  b.Array(p.fwd.data(), p.fwd.size());
  b.Array(p.bwd.data(), p.bwd.size());
  b.Array(p.leg_offsets.data(), p.leg_offsets.size());
  b.Array(p.legs.data(), p.legs.size());
  return b.Take();
}

// ---- Reading ------------------------------------------------------------

/// One section of a parsed container, viewing the underlying bytes.
struct SectionView {
  SectionEntry entry;
  const uint8_t* data = nullptr;
};

struct ContainerView {
  FileHeader header;
  std::vector<SectionView> sections;

  const SectionView* Find(const char tag[8]) const {
    for (const SectionView& s : sections) {
      if (TagEq(s.entry.tag, tag)) return &s;
    }
    return nullptr;
  }
};

/// Validates the container framing — header, fingerprint, trailer,
/// section table, bounds and alignment of every payload — against the raw
/// byte view. Content inside the payloads is NOT touched here.
Status ParseContainerView(const FloorPlan& plan, const std::string& path,
                          const uint8_t* data, uint64_t size,
                          ContainerView* out) {
  if (size < sizeof(FileHeader) + sizeof(uint64_t)) {
    return Status::ParseError("'" + path +
                              "' is too small to be an index container (" +
                              std::to_string(size) + " bytes)");
  }
  std::memcpy(&out->header, data, sizeof(FileHeader));
  const FileHeader& hdr = out->header;
  if (hdr.magic != kContainerMagic) {
    return Status::ParseError("'" + path +
                              "' is not an INDOORIX index container");
  }
  if (hdr.version != kIndexContainerVersion) {
    return Status::ParseError(
        "'" + path + "' uses unsupported container version " +
        std::to_string(hdr.version) + " (this build reads version " +
        std::to_string(kIndexContainerVersion) + ")");
  }
  if (hdr.header_size != sizeof(FileHeader)) {
    return Status::ParseError("'" + path + "' header size " +
                              std::to_string(hdr.header_size) +
                              " does not match the format (64)");
  }
  if (hdr.file_size != size) {
    return Status::ParseError(
        "'" + path + "' header records " + std::to_string(hdr.file_size) +
        " bytes but the file has " + std::to_string(size));
  }
  uint64_t trailer = 0;
  std::memcpy(&trailer, data + size - sizeof(uint64_t), sizeof(uint64_t));
  if (trailer != kContainerMagic) {
    return Status::ParseError("'" + path +
                              "' has a corrupt trailer (truncated write?)");
  }
  if (hdr.fingerprint != PlanDistanceFingerprint(plan)) {
    return Status::FailedPrecondition(
        "'" + path + "' was computed for a different floor plan");
  }
  if (hdr.door_count != plan.door_count() ||
      hdr.partition_count != plan.partition_count()) {
    return Status::FailedPrecondition(
        "door/partition count mismatch in '" + path + "' (file has " +
        std::to_string(hdr.door_count) + "/" +
        std::to_string(hdr.partition_count) + ", plan has " +
        std::to_string(plan.door_count()) + "/" +
        std::to_string(plan.partition_count()) + ")");
  }
  if (hdr.section_count > 16) {
    return Status::ParseError("implausible section count " +
                              std::to_string(hdr.section_count) + " in '" +
                              path + "'");
  }
  const uint64_t table_end =
      sizeof(FileHeader) + uint64_t{hdr.section_count} * sizeof(SectionEntry);
  if (table_end > size - sizeof(uint64_t)) {
    return Status::ParseError("'" + path +
                              "' section table overruns the file");
  }
  out->sections.resize(hdr.section_count);
  for (uint32_t i = 0; i < hdr.section_count; ++i) {
    SectionView& s = out->sections[i];
    std::memcpy(&s.entry,
                data + sizeof(FileHeader) + i * sizeof(SectionEntry),
                sizeof(SectionEntry));
    const std::string tag = TagName(s.entry.tag);
    if (s.entry.offset % kAlign != 0) {
      return Status::ParseError(
          "'" + path + "': section " + tag + " payload misaligned (offset " +
          std::to_string(s.entry.offset) + " is not 64-byte aligned)");
    }
    if (s.entry.offset < table_end ||
        s.entry.size > size - sizeof(uint64_t) ||
        s.entry.offset > size - sizeof(uint64_t) - s.entry.size) {
      return Status::ParseError(
          "'" + path + "': section " + tag + " truncated (need " +
          std::to_string(s.entry.size) + " bytes at offset " +
          std::to_string(s.entry.offset) + ", file has " +
          std::to_string(size) + ")");
    }
    for (uint32_t j = 0; j < i; ++j) {
      if (TagEq(out->sections[j].entry.tag, s.entry.tag)) {
        return Status::ParseError("'" + path + "': duplicate section " + tag);
      }
    }
    s.data = data + s.entry.offset;
  }
  return Status::OK();
}

/// Walks a payload's array sub-layout: mini-header first, then arrays on
/// 64-byte boundaries. Bounds-checked against the section size with
/// overflow-safe arithmetic; Finish() demands the size matches exactly.
class PayloadCursor {
 public:
  PayloadCursor(const SectionView& s) : base_(s.data), limit_(s.entry.size) {}

  /// The next `count` elements of type T, or null once out of bounds.
  template <typename T>
  const T* Array(uint64_t count) {
    if (!ok_) return nullptr;
    off_ = AlignUp(off_);
    if (off_ > limit_ ||
        count > (limit_ - off_) / static_cast<uint64_t>(sizeof(T))) {
      ok_ = false;
      return nullptr;
    }
    const T* p = reinterpret_cast<const T*>(base_ + off_);
    off_ += count * sizeof(T);
    return p;
  }

  bool ok() const { return ok_; }
  /// True when every byte of the section was consumed (padding included).
  bool Finish() { return ok_ && AlignUp(off_) == AlignUp(limit_) &&
                         limit_ >= off_; }

 private:
  const uint8_t* base_;
  uint64_t limit_;
  uint64_t off_ = kAlign;  // the 64-byte mini-header
  bool ok_ = true;
};

Status SectionSizeError(const std::string& path, const char tag[8],
                        uint64_t size) {
  return Status::ParseError("'" + path + "': section " + TagName(tag) +
                            " payload layout inconsistent with its size (" +
                            std::to_string(size) + " bytes)");
}

template <typename T>
std::vector<T> CopyArray(const T* data, uint64_t count) {
  return std::vector<T>(data, data + count);
}

template <typename T>
OwnedSpan<T> Adopt(const T* data, uint64_t count, bool borrow) {
  if (borrow) return OwnedSpan<T>::Borrow(data, count);
  return OwnedSpan<T>::Own(CopyArray(data, count));
}

Status DecodeMd2d(const std::string& path, const FloorPlan& plan,
                  const SectionView& s, bool borrow, IndexArtifacts* out) {
  if (s.entry.size < kAlign) return SectionSizeError(path, s.entry.tag,
                                                     s.entry.size);
  uint64_t n = 0;
  std::memcpy(&n, s.data, sizeof(n));
  if (n != plan.door_count()) {
    return Status::FailedPrecondition(
        "door count mismatch in '" + path + "' section MD2D (file has " +
        std::to_string(n) + ", plan has " +
        std::to_string(plan.door_count()) + ")");
  }
  PayloadCursor cur(s);
  const double* cells = cur.Array<double>(n * n);
  if (!cur.Finish()) return SectionSizeError(path, s.entry.tag, s.entry.size);
  out->md2d = borrow
                  ? DistanceMatrix::FromView(n, cells)
                  : DistanceMatrix::FromRaw(n, CopyArray(cells, n * n));
  return Status::OK();
}

Status DecodeMidx(const std::string& path, const FloorPlan& plan,
                  const SectionView& s, bool borrow, IndexArtifacts* out) {
  if (s.entry.size < kAlign) return SectionSizeError(path, s.entry.tag,
                                                     s.entry.size);
  uint64_t n = 0;
  std::memcpy(&n, s.data, sizeof(n));
  if (n != plan.door_count()) {
    return Status::FailedPrecondition(
        "door count mismatch in '" + path + "' section MIDX (file has " +
        std::to_string(n) + ", plan has " +
        std::to_string(plan.door_count()) + ")");
  }
  PayloadCursor cur(s);
  const DoorId* cells = cur.Array<DoorId>(n * n);
  if (!cur.Finish()) return SectionSizeError(path, s.entry.tag, s.entry.size);
  out->midx = borrow
                  ? DistanceIndexMatrix::FromView(n, cells)
                  : DistanceIndexMatrix::FromRaw(n, CopyArray(cells, n * n));
  return Status::OK();
}

Status DecodeDpt(const std::string& path, const FloorPlan& plan,
                 const SectionView& s, bool borrow, IndexArtifacts* out) {
  if (s.entry.size < kAlign) return SectionSizeError(path, s.entry.tag,
                                                     s.entry.size);
  uint64_t n = 0;
  std::memcpy(&n, s.data, sizeof(n));
  if (n != plan.door_count()) {
    return Status::FailedPrecondition(
        "door count mismatch in '" + path + "' section DPT (file has " +
        std::to_string(n) + ", plan has " +
        std::to_string(plan.door_count()) + ")");
  }
  PayloadCursor cur(s);
  const DptRecord* records = cur.Array<DptRecord>(n);
  if (!cur.Finish()) return SectionSizeError(path, s.entry.tag, s.entry.size);
  out->dpt = borrow ? DoorPartitionTable::FromView(records, n)
                    : DoorPartitionTable::FromRaw(CopyArray(records, n));
  return Status::OK();
}

Status DecodeLandmarks(const std::string& path, const FloorPlan& plan,
                       const SectionView& s, bool borrow,
                       IndexArtifacts* out) {
  if (s.entry.size < kAlign) return SectionSizeError(path, s.entry.tag,
                                                     s.entry.size);
  uint64_t n = 0, count = 0;
  std::memcpy(&n, s.data, sizeof(n));
  std::memcpy(&count, s.data + 8, sizeof(count));
  if (n != plan.door_count()) {
    return Status::FailedPrecondition(
        "door count mismatch in '" + path + "' section LMRK (file has " +
        std::to_string(n) + ", plan has " +
        std::to_string(plan.door_count()) + ")");
  }
  if (count == 0 || count > LandmarkIndex::kMaxCount || count > n) {
    return Status::ParseError("implausible landmark count " +
                              std::to_string(count) + " in '" + path +
                              "' section LMRK");
  }
  PayloadCursor cur(s);
  const DoorId* doors = cur.Array<DoorId>(count);
  const double* fwd = cur.Array<double>(n * count);
  const double* bwd = cur.Array<double>(n * count);
  if (!cur.Finish()) return SectionSizeError(path, s.entry.tag, s.entry.size);
  for (uint64_t l = 0; l < count; ++l) {
    if (doors[l] >= n) {
      return Status::ParseError("landmark door out of range in '" + path +
                                "' section LMRK");
    }
  }
  out->landmarks =
      borrow ? LandmarkIndex::FromView(n, count, doors, fwd, bwd)
             : LandmarkIndex::FromRaw(n, CopyArray(doors, count),
                                      CopyArray(fwd, n * count),
                                      CopyArray(bwd, n * count));
  return Status::OK();
}

Status HierCorrupt(const std::string& path, const std::string& what) {
  return Status::ParseError("'" + path + "': section HIER corrupt (" + what +
                            ")");
}

/// HIER carries cross-array offset invariants that HierarchyIndex::FromRaw
/// re-asserts with INDOOR_CHECK (process-aborting). The mapped path never
/// checksums payloads, so every invariant is validated here first and
/// corruption surfaces as ParseError; FromRaw's CHECKs stay a last-line
/// defense against library bugs, not a file-validation mechanism. Only the
/// small integer arrays are touched — the big double payloads (blocks,
/// border matrix, escape radii) stay cold so a mapped open remains lazy.
Status DecodeHierarchy(const std::string& path, const FloorPlan& plan,
                       const SectionView& s, bool borrow,
                       IndexArtifacts* out) {
  if (s.entry.size < kAlign) return SectionSizeError(path, s.entry.tag,
                                                     s.entry.size);
  uint64_t mini[7];
  std::memcpy(mini, s.data, sizeof(mini));
  const uint64_t n = mini[0], nc = mini[1], nb = mini[2], np = mini[3];
  const uint64_t member_total = mini[4], border_local_total = mini[5],
                 block_total = mini[6];
  uint32_t cell_target = 0;
  std::memcpy(&cell_target, s.data + sizeof(mini), sizeof(cell_target));
  if (n != plan.door_count() || np != plan.partition_count()) {
    return Status::FailedPrecondition(
        "door/partition count mismatch in '" + path +
        "' section HIER (file has " + std::to_string(n) + "/" +
        std::to_string(np) + ", plan has " +
        std::to_string(plan.door_count()) + "/" +
        std::to_string(plan.partition_count()) + ")");
  }
  // Every cell claims at least one partition when built, so nc <= np for
  // any valid file; rejecting larger values also keeps nc + 1 below the
  // array-size computations (no uint64 wrap on nc == UINT64_MAX).
  if (nb > n || member_total < n || member_total > 2 * n ||
      (n > 0 && nc == 0) || nc > np) {
    return HierCorrupt(path, "implausible counts in the mini-header");
  }
  PayloadCursor cur(s);
  const uint32_t* partition_cells = cur.Array<uint32_t>(np);
  const uint32_t* door_cells = cur.Array<uint32_t>(2 * n);
  const uint32_t* door_locals = cur.Array<uint32_t>(2 * n);
  const uint64_t* member_offsets = cur.Array<uint64_t>(nc + 1);
  const DoorId* members = cur.Array<DoorId>(member_total);
  const double* escape_radii = cur.Array<double>(member_total);
  const uint64_t* cell_border_offsets = cur.Array<uint64_t>(nc + 1);
  const uint32_t* cell_border_locals =
      cur.Array<uint32_t>(border_local_total);
  const uint64_t* block_offsets = cur.Array<uint64_t>(nc + 1);
  const double* blocks = cur.Array<double>(block_total);
  const DoorId* border_doors = cur.Array<DoorId>(nb);
  const uint32_t* border_of_door = cur.Array<uint32_t>(n);
  const double* border_matrix = cur.Array<double>(nb * nb);
  if (!cur.Finish()) return SectionSizeError(path, s.entry.tag, s.entry.size);

  // The offset arrays gate every other array's indexing, so they are
  // validated in full: CSR prefixes must start at 0, grow monotonically,
  // stay within the mini-header totals, and land exactly on them at the
  // end. The per-cell upper bound must hold BEFORE the border-local loop
  // below indexes cell_border_locals, or a crafted offset reads past the
  // mapped file.
  if (member_offsets[0] != 0 || cell_border_offsets[0] != 0 ||
      block_offsets[0] != 0) {
    return HierCorrupt(path, "offset arrays do not start at 0");
  }
  for (uint64_t c = 0; c < nc; ++c) {
    if (member_offsets[c + 1] < member_offsets[c] ||
        cell_border_offsets[c + 1] < cell_border_offsets[c]) {
      return HierCorrupt(path,
                         "offset array decreases at cell " + std::to_string(c));
    }
    if (member_offsets[c + 1] > member_total ||
        cell_border_offsets[c + 1] > border_local_total ||
        block_offsets[c + 1] > block_total) {
      return HierCorrupt(path, "offset array exceeds header total at cell " +
                                   std::to_string(c));
    }
    const uint64_t m = member_offsets[c + 1] - member_offsets[c];
    if (m > member_total ||
        block_offsets[c + 1] != block_offsets[c] + m * m) {
      return HierCorrupt(
          path, "block offsets inconsistent at cell " + std::to_string(c));
    }
    for (uint64_t b = cell_border_offsets[c]; b < cell_border_offsets[c + 1];
         ++b) {
      if (cell_border_locals[b] >= m) {
        return HierCorrupt(
            path, "border local out of range in cell " + std::to_string(c));
      }
    }
  }
  if (member_offsets[nc] != member_total ||
      cell_border_offsets[nc] != border_local_total ||
      block_offsets[nc] != block_total) {
    return HierCorrupt(path, "offset arrays do not end on the header totals");
  }
  for (uint64_t p = 0; p < np; ++p) {
    if (partition_cells[p] >= nc) {
      return HierCorrupt(path,
                         "partition cell out of range at " + std::to_string(p));
    }
  }
  for (uint64_t d = 0; d < n; ++d) {
    for (int slot = 0; slot < 2; ++slot) {
      const uint32_t c = door_cells[2 * d + slot];
      if (c == HierarchyIndex::kNone) continue;
      if (c >= nc ||
          door_locals[2 * d + slot] >=
              member_offsets[c + 1] - member_offsets[c]) {
        return HierCorrupt(path,
                           "door cell/local out of range at door " +
                               std::to_string(d));
      }
    }
    if (border_of_door[d] != HierarchyIndex::kNone &&
        border_of_door[d] >= nb) {
      return HierCorrupt(
          path, "border slot out of range at door " + std::to_string(d));
    }
  }
  for (uint64_t i = 0; i < member_total; ++i) {
    if (members[i] >= n) {
      return HierCorrupt(path, "member door id out of range");
    }
  }
  for (uint64_t b = 0; b < nb; ++b) {
    if (border_doors[b] >= n) {
      return HierCorrupt(path, "border door id out of range");
    }
  }

  HierarchyIndex::Raw raw;
  raw.door_count = n;
  raw.cell_count = nc;
  raw.border_count = nb;
  raw.cell_target = cell_target;
  raw.partition_cells = Adopt(partition_cells, np, borrow);
  raw.door_cells = Adopt(door_cells, 2 * n, borrow);
  raw.door_locals = Adopt(door_locals, 2 * n, borrow);
  raw.member_offsets = Adopt(member_offsets, nc + 1, borrow);
  raw.members = Adopt(members, member_total, borrow);
  raw.escape_radii = Adopt(escape_radii, member_total, borrow);
  raw.cell_border_offsets = Adopt(cell_border_offsets, nc + 1, borrow);
  raw.cell_border_locals = Adopt(cell_border_locals, border_local_total,
                                 borrow);
  raw.block_offsets = Adopt(block_offsets, nc + 1, borrow);
  raw.blocks = Adopt(blocks, block_total, borrow);
  raw.border_doors = Adopt(border_doors, nb, borrow);
  raw.border_of_door = Adopt(border_of_door, n, borrow);
  raw.border_matrix = Adopt(border_matrix, nb * nb, borrow);
  out->hierarchy = HierarchyIndex::FromRaw(std::move(raw));
  return Status::OK();
}

/// ANNX structural validation mirrors HIER's: the CSR leg offsets gate the
/// leg pool's indexing, so they are checked in full (start at 0, monotone,
/// land exactly on leg_total) before any adoption. What CANNOT be checked
/// here is whether the embeddings describe the live object population —
/// objects are inserted after the container is parsed — so the payload is
/// stashed for deferred adoption and ApproxKnnIndex::Refresh re-checks the
/// fingerprint plus per-object leg counts against the real store.
Status DecodeApprox(const std::string& path, const SectionView& s,
                    bool borrow, IndexArtifacts* out) {
  if (s.entry.size < kAlign) return SectionSizeError(path, s.entry.tag,
                                                     s.entry.size);
  uint64_t n = 0, count = 0, leg_total = 0, fingerprint = 0;
  std::memcpy(&n, s.data, sizeof(n));
  std::memcpy(&count, s.data + 8, sizeof(count));
  std::memcpy(&leg_total, s.data + 16, sizeof(leg_total));
  std::memcpy(&fingerprint, s.data + 24, sizeof(fingerprint));
  if (count == 0 || count > LandmarkIndex::kMaxCount) {
    return Status::ParseError("implausible landmark count " +
                              std::to_string(count) + " in '" + path +
                              "' section ANNX");
  }
  // count <= kMaxCount (32), so count * n cannot wrap once n itself fits
  // the cursor's bounds math; reject absurd n up front to keep n + 1 and
  // count * n honest.
  if (n > (std::numeric_limits<uint64_t>::max() >> 8)) {
    return Status::ParseError("implausible object count in '" + path +
                              "' section ANNX");
  }
  PayloadCursor cur(s);
  const double* fwd = cur.Array<double>(count * n);
  const double* bwd = cur.Array<double>(count * n);
  const uint64_t* leg_offsets = cur.Array<uint64_t>(n + 1);
  const double* legs = cur.Array<double>(leg_total);
  if (!cur.Finish()) return SectionSizeError(path, s.entry.tag, s.entry.size);
  if (leg_offsets[0] != 0) {
    return Status::ParseError("'" + path +
                              "': section ANNX leg offsets do not start at 0");
  }
  for (uint64_t o = 0; o < n; ++o) {
    if (leg_offsets[o + 1] < leg_offsets[o] ||
        leg_offsets[o + 1] > leg_total) {
      return Status::ParseError("'" + path +
                                "': section ANNX leg offsets corrupt at "
                                "object " +
                                std::to_string(o));
    }
  }
  if (leg_offsets[n] != leg_total) {
    return Status::ParseError(
        "'" + path +
        "': section ANNX leg offsets do not end on leg_total");
  }
  ApproxKnnPayload p;
  p.object_count = n;
  p.landmark_count = count;
  p.leg_total = leg_total;
  p.fingerprint = fingerprint;
  p.fwd = Adopt(fwd, count * n, borrow);
  p.bwd = Adopt(bwd, count * n, borrow);
  p.leg_offsets = Adopt(leg_offsets, n + 1, borrow);
  p.legs = Adopt(legs, leg_total, borrow);
  out->approx = std::move(p);
  return Status::OK();
}

/// Decodes every known section of a parsed container into artifacts.
/// Unknown tags are skipped (forward compatibility within a version:
/// readers take what they understand).
Status DecodeSections(const std::string& path, const FloorPlan& plan,
                      const ContainerView& view, bool borrow,
                      IndexArtifacts* out) {
  for (const SectionView& s : view.sections) {
    if (TagEq(s.entry.tag, kTagMd2d)) {
      INDOOR_RETURN_NOT_OK(DecodeMd2d(path, plan, s, borrow, out));
    } else if (TagEq(s.entry.tag, kTagMidx)) {
      INDOOR_RETURN_NOT_OK(DecodeMidx(path, plan, s, borrow, out));
    } else if (TagEq(s.entry.tag, kTagDpt)) {
      INDOOR_RETURN_NOT_OK(DecodeDpt(path, plan, s, borrow, out));
    } else if (TagEq(s.entry.tag, kTagLmrk)) {
      INDOOR_RETURN_NOT_OK(DecodeLandmarks(path, plan, s, borrow, out));
    } else if (TagEq(s.entry.tag, kTagHier)) {
      INDOOR_RETURN_NOT_OK(DecodeHierarchy(path, plan, s, borrow, out));
    } else if (TagEq(s.entry.tag, kTagAnnx)) {
      INDOOR_RETURN_NOT_OK(DecodeApprox(path, s, borrow, out));
    }
  }
  return Status::OK();
}

#ifndef _WIN32
/// RAII mmap of a whole file; the pages live until the last shared_ptr
/// referencing the mapping (IndexArtifacts::mapping and the IndexFramework
/// it moves into) is gone.
class MappedFile {
 public:
  static Result<std::shared_ptr<MappedFile>> Open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status::IOError("cannot open '" + path + "' for mapping");
    }
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      return Status::IOError("cannot stat '" + path + "'");
    }
    const size_t size = static_cast<size_t>(st.st_size);
    if (size == 0) {
      ::close(fd);
      return Status::ParseError("'" + path + "' is empty");
    }
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping keeps its own reference
    if (addr == MAP_FAILED) {
      return Status::IOError("mmap of '" + path + "' failed");
    }
    return std::make_shared<MappedFile>(addr, size);
  }

  MappedFile(void* addr, size_t size) : addr_(addr), size_(size) {}
  ~MappedFile() { ::munmap(addr_, size_); }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const uint8_t* data() const {
    return static_cast<const uint8_t*>(addr_);
  }
  size_t size() const { return size_; }

 private:
  void* addr_;
  size_t size_;
};
#endif  // !_WIN32

}  // namespace

Status SaveIndexContainer(const IndexFramework& index,
                          const std::string& path) {
  const FloorPlan& plan = index.plan();
  std::vector<std::pair<const char*, std::vector<uint8_t>>> sections;
  if (index.has_flat_matrix()) {
    sections.emplace_back(kTagMd2d, BuildMd2dPayload(index.d2d_matrix()));
    sections.emplace_back(kTagMidx, BuildMidxPayload(index.index_matrix()));
  } else if (index.hierarchy_index().valid()) {
    sections.emplace_back(kTagHier,
                          BuildHierarchyPayload(index.hierarchy_index()));
  }
  sections.emplace_back(kTagDpt, BuildDptPayload(index.dpt()));
  if (index.landmarks() != nullptr) {
    sections.emplace_back(kTagLmrk,
                          BuildLandmarkPayload(*index.landmarks()));
  }
  // The embedding section is written only while it still describes the
  // store's exact population — a stale tier would otherwise be saved with
  // a fingerprint the loader has no way to distinguish from a fresh one.
  if (const ApproxKnnIndex* approx = index.approx_knn();
      approx != nullptr && index.landmarks() != nullptr &&
      approx->FreshFor(index.objects())) {
    sections.emplace_back(
        kTagAnnx, BuildApproxPayload(approx->BuildPayload(
                      index.objects(), *index.landmarks())));
  }

  FileHeader hdr;
  hdr.fingerprint = PlanDistanceFingerprint(plan);
  hdr.section_count = static_cast<uint32_t>(sections.size());
  hdr.door_count = plan.door_count();
  hdr.partition_count = plan.partition_count();

  std::vector<SectionEntry> entries(sections.size());
  uint64_t offset = AlignUp(sizeof(FileHeader) +
                            sections.size() * sizeof(SectionEntry));
  for (size_t i = 0; i < sections.size(); ++i) {
    SectionEntry& e = entries[i];
    std::memcpy(e.tag, sections[i].first, 8);
    e.offset = offset;
    e.size = sections[i].second.size();
    e.checksum = SectionChecksum(sections[i].second.data(), e.size);
    offset = AlignUp(offset + e.size);
  }
  hdr.file_size = offset + sizeof(uint64_t);  // trailer magic at the end

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  WritePod(out, hdr);
  for (const SectionEntry& e : entries) WritePod(out, e);
  uint64_t written = sizeof(FileHeader) +
                     sections.size() * sizeof(SectionEntry);
  static constexpr char kZeros[kAlign] = {};
  for (size_t i = 0; i < sections.size(); ++i) {
    out.write(kZeros, static_cast<std::streamsize>(entries[i].offset -
                                                   written));
    out.write(reinterpret_cast<const char*>(sections[i].second.data()),
              static_cast<std::streamsize>(entries[i].size));
    written = entries[i].offset + entries[i].size;
  }
  out.write(kZeros,
            static_cast<std::streamsize>(AlignUp(written) - written));
  WritePod(out, kContainerMagic);
  if (!out) {
    return Status::IOError("failed writing '" + path + "'");
  }
  return Status::OK();
}

Result<IndexArtifacts> LoadIndexContainer(const FloorPlan& plan,
                                          const std::string& path) {
  const auto t0 = std::chrono::steady_clock::now();
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) {
    return Status::IOError("failed reading '" + path + "'");
  }
  ContainerView view;
  INDOOR_RETURN_NOT_OK(ParseContainerView(plan, path, bytes.data(),
                                          bytes.size(), &view));
  for (const SectionView& s : view.sections) {
    if (SectionChecksum(s.data, s.entry.size) != s.entry.checksum) {
      return Status::ParseError("'" + path + "': section " +
                                TagName(s.entry.tag) + " checksum mismatch");
    }
  }
  IndexArtifacts artifacts;
  INDOOR_RETURN_NOT_OK(
      DecodeSections(path, plan, view, /*borrow=*/false, &artifacts));
  [[maybe_unused]] const double elapsed_ms =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count() *
      1e3;
  INDOOR_GAUGE_SET("load.read_ms", elapsed_ms);
  return artifacts;
}

Result<IndexArtifacts> MapIndexContainer(const FloorPlan& plan,
                                         const std::string& path) {
#ifdef _WIN32
  (void)plan;
  return Status::Unimplemented("mmap container loading ('" + path +
                               "') is not implemented on this platform; "
                               "use LoadIndexContainer");
#else
  const auto t0 = std::chrono::steady_clock::now();
  auto mapped = MappedFile::Open(path);
  INDOOR_RETURN_NOT_OK(mapped.status());
  const std::shared_ptr<MappedFile>& file = mapped.value();
  ContainerView view;
  INDOOR_RETURN_NOT_OK(
      ParseContainerView(plan, path, file->data(), file->size(), &view));
  IndexArtifacts artifacts;
  INDOOR_RETURN_NOT_OK(
      DecodeSections(path, plan, view, /*borrow=*/true, &artifacts));
  artifacts.mapping = file;  // keeps the pages alive for the borrowers
  [[maybe_unused]] const double elapsed_ms =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count() *
      1e3;
  INDOOR_GAUGE_SET("load.mmap_ms", elapsed_ms);
  return artifacts;
#endif
}

}  // namespace indoor
