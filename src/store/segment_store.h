// Persistent columnar segment storage (the on-disk half of src/store/).
//
// One relation = one `.gseg` file, laid out for mmap + selective fault-in:
//
//   +--------------------------------------------------------------+
//   | header     magic, version, content fingerprint, row/segment  |
//   |            counts, offsets of the meta and directory blocks  |
//   +--------------------------------------------------------------+
//   | pages      fixed-size row-group segments, one little-endian  |
//   |            page per column per segment (int64/float64: raw   |
//   |            8-byte values; strings: 4-byte codes into the     |
//   |            global dictionary) plus one row-major lineage     |
//   |            page per segment                                  |
//   +--------------------------------------------------------------+
//   | meta       relation name, schema, lineage schema, global     |
//   |            string dictionary                                 |
//   +--------------------------------------------------------------+
//   | directory  per segment: row range, Checksum64 over its       |
//   |            pages, per-column page extents + zone map         |
//   |            (min/max, null count), per-dim lineage id range   |
//   +--------------------------------------------------------------+
//
// Version 2 (the only version this build reads) checksums pages with
// util/checksum.h Checksum64; version 1 used bytewise FNV-1a and fails at
// Open with "unsupported version 1".
//
// Segments are fixed-size row groups (`segment_rows` rows each, short
// tail), so segment s covers rows [s*segment_rows, ...) and a scan knows
// which segment holds a row without touching the directory. Zone maps and
// lineage ranges are what the SegmentPruner (store/pruner.h) intersects
// with predicate footprints and sampler keep-sets to skip whole segments
// before they are ever faulted.
//
// The stored content fingerprint is computed with the exact hash chain of
// rel/column_batch.h ContentFingerprint, so a SegmentCatalog and an
// in-memory ColumnarCatalog holding the same rows agree byte-for-byte —
// the shard/serving protocols cannot tell the difference.
//
// Pages are raw little-endian; the store refuses to open or create files
// on big-endian hosts (Status::NotImplemented) instead of byte-swapping.

#ifndef GUS_STORE_SEGMENT_STORE_H_
#define GUS_STORE_SEGMENT_STORE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rel/column_batch.h"
#include "util/status.h"

namespace gus {

/// Default rows per segment. Equal to plan/executor.h kDefaultMorselRows,
/// so default sharded/morsel splits align 1:1 with segment boundaries and
/// whole-segment skipping translates directly into skipped morsels.
inline constexpr int64_t kDefaultSegmentRows = 32768;

/// File extension for relation segment files inside a catalog directory.
inline constexpr const char* kSegmentFileExt = ".gseg";

/// \brief Zone map of one column over one segment.
///
/// `kind` tells the pruner how much the bounds can be trusted:
///   kEmpty   — the segment holds no rows (or no values) for this column;
///              it can never contribute a kept row.
///   kRanged  — min/max are exact inclusive bounds over the stored values.
///   kUnknown — bounds unavailable (e.g. a float page containing NaN);
///              the pruner must keep the segment.
/// null_count is carried for format completeness (this engine stores no
/// nulls today, so writers emit 0), and a pruner treats a fully-null page
/// (null_count == row_count) as kEmpty.
struct ColumnZone {
  enum Kind : uint8_t { kEmpty = 0, kRanged = 1, kUnknown = 2 };
  Kind kind = kEmpty;
  int64_t min_i64 = 0, max_i64 = 0;  ///< kInt64 bounds
  double min_f64 = 0.0, max_f64 = 0.0;  ///< kFloat64 bounds
  uint32_t min_code = 0, max_code = 0;  ///< kString: codes of the bounds
  std::string min_str, max_str;  ///< kString bounds, resolved at Open
  uint64_t null_count = 0;
};

/// \brief Directory entry of one segment: where its pages live and what
/// the pruner may assume about them.
struct SegmentInfo {
  int64_t row_begin = 0;
  int64_t row_count = 0;
  /// Checksum64 chained over the segment's raw pages, columns in order
  /// and then lineage (`sum = Checksum64(page, len, sum)` from 0);
  /// verified on every decode so a flipped bit fails loudly.
  uint64_t checksum = 0;
  std::vector<ColumnZone> zones;  ///< per column
  /// Per-column (file offset, byte length) of the value page.
  std::vector<std::pair<uint64_t, uint64_t>> column_pages;
  std::pair<uint64_t, uint64_t> lineage_page{0, 0};
  /// Per lineage dim: inclusive [min, max] id over the segment's rows.
  std::vector<std::pair<uint64_t, uint64_t>> lineage_range;
  /// Total page bytes of this segment (columns + lineage) — the I/O cost
  /// of faulting it.
  int64_t page_bytes = 0;
};

/// \brief A relation opened read-only from a `.gseg` file.
///
/// Immutable and internally synchronization-free after Open — safe to
/// share across threads. Decoding is segment-at-a-time; the pinned-segment
/// cache (store/segment_cache.h) sits on top.
class StoredRelation {
 public:
  static Result<std::unique_ptr<StoredRelation>> Open(const std::string& path);
  ~StoredRelation();

  StoredRelation(const StoredRelation&) = delete;
  StoredRelation& operator=(const StoredRelation&) = delete;

  const std::string& name() const { return name_; }
  const std::string& path() const { return path_; }
  const LayoutPtr& layout_ptr() const { return layout_; }
  const DictPtr& dict() const { return dict_; }

  int64_t num_rows() const { return num_rows_; }
  int64_t segment_rows() const { return segment_rows_; }
  int64_t num_segments() const {
    return static_cast<int64_t>(segments_.size());
  }
  const SegmentInfo& segment(int64_t s) const {
    return segments_[static_cast<size_t>(s)];
  }
  /// The segment holding global row `row` (fixed-size row groups).
  int64_t SegmentOfRow(int64_t row) const { return row / segment_rows_; }

  /// The content fingerprint recorded at write time (ContentFingerprint
  /// chain; equals the in-memory catalog's fingerprint for the same rows).
  uint64_t content_fingerprint() const { return content_fingerprint_; }

  /// Total page bytes across all segments.
  int64_t total_page_bytes() const { return total_page_bytes_; }

  /// \brief Mean on-disk bytes per row (>= 1), from the page directory.
  ///
  /// This is what auto morsel sizing uses for segment-backed pivots, so
  /// the working-set clamp reflects what a morsel actually faults in.
  int64_t OnDiskRowBytes() const;

  /// \brief Decodes segment `s` into a materialized batch (checksum
  /// verified; Internal on mismatch).
  Result<ColumnBatch> DecodeSegment(int64_t s) const;

  /// \brief Streams every page to recompute the content fingerprint
  /// (identical chain to rel/column_batch.h ContentFingerprint).
  ///
  /// Used by the writer to stamp the header and by integrity checks; a
  /// normal open trusts the stored value.
  Result<uint64_t> ComputeContentFingerprint() const;

 private:
  StoredRelation() = default;

  Status Parse();

  std::string path_;
  std::string name_;
  int fd_ = -1;
  const uint8_t* base_ = nullptr;
  uint64_t file_bytes_ = 0;

  uint64_t content_fingerprint_ = 0;
  int64_t num_rows_ = 0;
  int64_t segment_rows_ = 0;
  int64_t total_page_bytes_ = 0;
  LayoutPtr layout_;
  DictPtr dict_;
  std::vector<SegmentInfo> segments_;
};

/// \brief Streaming writer: append batches, flush fixed-size segments,
/// Finish() seals the file.
///
/// Finish writes the meta + directory blocks, re-reads its own pages to
/// compute the content fingerprint, and patches the header — so a file is
/// valid iff Finish succeeded; partial files fail to Open.
class SegmentFileWriter {
 public:
  static Result<std::unique_ptr<SegmentFileWriter>> Create(
      const std::string& path, const std::string& name, LayoutPtr layout,
      int64_t segment_rows = kDefaultSegmentRows);
  ~SegmentFileWriter();

  SegmentFileWriter(const SegmentFileWriter&) = delete;
  SegmentFileWriter& operator=(const SegmentFileWriter&) = delete;

  /// Appends the rows of `batch` (schema must match the layout; string
  /// values are re-interned into the file's global dictionary).
  Status Append(const ColumnBatch& batch);

  struct Summary {
    int64_t num_rows = 0;
    int64_t num_segments = 0;
    uint64_t content_fingerprint = 0;
  };

  /// Seals the file; no Append after. Returns what was written.
  Result<Summary> Finish();

 private:
  SegmentFileWriter() = default;

  Status FlushSegment();

  std::string path_;
  std::string name_;
  LayoutPtr layout_;
  int64_t segment_rows_ = 0;
  std::FILE* file_ = nullptr;
  bool finished_ = false;

  ColumnBatch pending_;       // buffered rows of the open segment
  DictPtr dict_;              // global dictionary being built
  int64_t rows_written_ = 0;
  uint64_t next_page_offset_ = 0;
  std::vector<SegmentInfo> segments_;
};

/// Writes `rel` as a single `.gseg` file at `path` (convenience wrapper
/// over SegmentFileWriter, batching through the relation's rows).
Result<SegmentFileWriter::Summary> WriteRelationSegments(
    const std::string& name, const ColumnarRelation& rel,
    const std::string& path, int64_t segment_rows = kDefaultSegmentRows);

}  // namespace gus

#endif  // GUS_STORE_SEGMENT_STORE_H_
