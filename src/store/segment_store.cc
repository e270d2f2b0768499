#include "store/segment_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "kernels/page_codec.h"
#include "util/checksum.h"
#include "util/hash.h"
#include "util/logging.h"

namespace gus {

namespace {

constexpr uint32_t kMagic = 0x47455347u;  // "GSEG" little-endian
/// v2: segment checksums are Checksum64 (util/checksum.h) instead of
/// bytewise FNV-1a; the layout is unchanged.
constexpr uint32_t kVersion = 2;
constexpr uint64_t kHeaderBytes = 96;

Status RequireLittleEndian() {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::NotImplemented(
        "segment store pages are little-endian; big-endian hosts are not "
        "supported");
  }
  return Status::OK();
}

uint64_t HashStringContent(uint64_t h, const std::string& s) {
  return HashBytes(HashCombine(h, s.size()), s.data(), s.size());
}

// ---- Flat little-endian serialization ----

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutStr(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  return bits;
}

double DoubleOf(uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, 8);
  return v;
}

/// Bounds-checked cursor over a mapped byte range. Overruns latch `ok`
/// false and read as zero; callers check Done() once at the end.
struct ByteReader {
  const uint8_t* p;
  const uint8_t* end;
  bool ok = true;

  bool Has(size_t n) {
    if (!ok || static_cast<size_t>(end - p) < n) {
      ok = false;
      return false;
    }
    return true;
  }
  uint8_t U8() {
    if (!Has(1)) return 0;
    return *p++;
  }
  uint32_t U32() {
    if (!Has(4)) return 0;
    uint32_t v;
    std::memcpy(&v, p, 4);
    p += 4;
    return v;
  }
  uint64_t U64() {
    if (!Has(8)) return 0;
    uint64_t v;
    std::memcpy(&v, p, 8);
    p += 8;
    return v;
  }
  std::string Str() {
    const uint32_t len = U32();
    if (!Has(len)) return std::string();
    std::string s(reinterpret_cast<const char*>(p), len);
    p += len;
    return s;
  }
};

uint64_t ReadU64At(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

uint32_t ReadU32At(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

Status WriteAll(std::FILE* f, const void* data, size_t len) {
  if (len == 0) return Status::OK();
  if (std::fwrite(data, 1, len, f) != len) {
    return Status::Internal("segment store: short write");
  }
  return Status::OK();
}

}  // namespace

// ---- StoredRelation --------------------------------------------------------

StoredRelation::~StoredRelation() {
  if (base_ != nullptr) {
    munmap(const_cast<uint8_t*>(base_), file_bytes_);
  }
  if (fd_ >= 0) close(fd_);
}

Result<std::unique_ptr<StoredRelation>> StoredRelation::Open(
    const std::string& path) {
  GUS_RETURN_NOT_OK(RequireLittleEndian());
  std::unique_ptr<StoredRelation> rel(new StoredRelation());
  rel->path_ = path;
  rel->fd_ = open(path.c_str(), O_RDONLY);
  if (rel->fd_ < 0) {
    return Status::InvalidArgument("cannot open segment file '" + path + "'");
  }
  struct stat st;
  if (fstat(rel->fd_, &st) != 0 || st.st_size < 0) {
    return Status::Internal("cannot stat segment file '" + path + "'");
  }
  rel->file_bytes_ = static_cast<uint64_t>(st.st_size);
  if (rel->file_bytes_ < kHeaderBytes) {
    return Status::InvalidArgument("segment file '" + path +
                                   "' is truncated (no header)");
  }
  void* map = mmap(nullptr, rel->file_bytes_, PROT_READ, MAP_PRIVATE,
                   rel->fd_, 0);
  if (map == MAP_FAILED) {
    return Status::Internal("mmap failed for segment file '" + path + "'");
  }
  rel->base_ = static_cast<const uint8_t*>(map);
  GUS_RETURN_NOT_OK(rel->Parse());
  return rel;
}

Status StoredRelation::Parse() {
  ByteReader h{base_, base_ + kHeaderBytes};
  const uint32_t magic = h.U32();
  const uint32_t version = h.U32();
  h.U64();  // flags (reserved)
  content_fingerprint_ = h.U64();
  num_rows_ = static_cast<int64_t>(h.U64());
  segment_rows_ = static_cast<int64_t>(h.U64());
  const uint64_t num_segments = h.U64();
  const uint32_t num_columns = h.U32();
  const uint32_t lineage_arity = h.U32();
  const uint64_t meta_offset = h.U64();
  const uint64_t meta_bytes = h.U64();
  const uint64_t dir_offset = h.U64();
  const uint64_t dir_bytes = h.U64();
  const uint64_t file_bytes = h.U64();
  if (magic != kMagic) {
    return Status::InvalidArgument("'" + path_ + "' is not a segment file");
  }
  if (version != kVersion) {
    return Status::InvalidArgument("segment file '" + path_ +
                                   "' has unsupported version " +
                                   std::to_string(version));
  }
  if (file_bytes != file_bytes_ || meta_offset > file_bytes_ ||
      meta_bytes > file_bytes_ - meta_offset || dir_offset > file_bytes_ ||
      dir_bytes > file_bytes_ - dir_offset || segment_rows_ < 1 ||
      num_rows_ < 0) {
    return Status::InvalidArgument("segment file '" + path_ +
                                   "' has a corrupt header");
  }

  // Meta block: name, schema, lineage schema, global dictionary.
  ByteReader m{base_ + meta_offset, base_ + meta_offset + meta_bytes};
  name_ = m.Str();
  std::vector<Column> columns(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    columns[c].name = m.Str();
    const uint8_t type = m.U8();
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::InvalidArgument("segment file '" + path_ +
                                     "' has an unknown column type");
    }
    columns[c].type = static_cast<ValueType>(type);
  }
  auto layout = std::make_shared<BatchLayout>();
  layout->schema = Schema(std::move(columns));
  layout->lineage_schema.resize(lineage_arity);
  for (uint32_t d = 0; d < lineage_arity; ++d) {
    layout->lineage_schema[d] = m.Str();
  }
  dict_ = std::make_shared<StringDict>();
  const uint64_t dict_count = m.U64();
  for (uint64_t i = 0; i < dict_count && m.ok; ++i) {
    dict_->values.push_back(m.Str());
    dict_->index.emplace(dict_->values.back(),
                         static_cast<uint32_t>(dict_->values.size() - 1));
  }
  if (!m.ok) {
    return Status::InvalidArgument("segment file '" + path_ +
                                   "' has a truncated meta block");
  }
  layout_ = LayoutPtr(std::move(layout));

  // Directory block.
  ByteReader d{base_ + dir_offset, base_ + dir_offset + dir_bytes};
  segments_.resize(num_segments);
  const uint64_t page_region_end = std::min(meta_offset, dir_offset);
  for (uint64_t s = 0; s < num_segments && d.ok; ++s) {
    SegmentInfo& seg = segments_[s];
    seg.row_begin = static_cast<int64_t>(d.U64());
    seg.row_count = static_cast<int64_t>(d.U64());
    seg.checksum = d.U64();
    const int64_t want_begin = static_cast<int64_t>(s) * segment_rows_;
    const int64_t want_count =
        std::min(segment_rows_, num_rows_ - want_begin);
    if (seg.row_begin != want_begin || seg.row_count != want_count ||
        seg.row_count < 1) {
      return Status::InvalidArgument("segment file '" + path_ +
                                     "' has an inconsistent row-group "
                                     "directory");
    }
    seg.zones.resize(num_columns);
    seg.column_pages.resize(num_columns);
    for (uint32_t c = 0; c < num_columns; ++c) {
      auto& page = seg.column_pages[c];
      page.first = d.U64();
      page.second = d.U64();
      ColumnZone& zone = seg.zones[c];
      const uint8_t kind = d.U8();
      const uint64_t a = d.U64();
      const uint64_t b = d.U64();
      zone.null_count = d.U64();
      if (kind > ColumnZone::kUnknown) {
        return Status::InvalidArgument("segment file '" + path_ +
                                       "' has an unknown zone kind");
      }
      zone.kind = static_cast<ColumnZone::Kind>(kind);
      switch (layout_->schema.column(static_cast<int>(c)).type) {
        case ValueType::kInt64:
          zone.min_i64 = static_cast<int64_t>(a);
          zone.max_i64 = static_cast<int64_t>(b);
          break;
        case ValueType::kFloat64:
          zone.min_f64 = DoubleOf(a);
          zone.max_f64 = DoubleOf(b);
          break;
        case ValueType::kString:
          zone.min_code = static_cast<uint32_t>(a);
          zone.max_code = static_cast<uint32_t>(b);
          if (zone.kind == ColumnZone::kRanged) {
            if (zone.min_code >= dict_->values.size() ||
                zone.max_code >= dict_->values.size()) {
              return Status::InvalidArgument(
                  "segment file '" + path_ +
                  "' has a zone code outside its dictionary");
            }
            zone.min_str = dict_->values[zone.min_code];
            zone.max_str = dict_->values[zone.max_code];
          }
          break;
      }
      const uint64_t expect_bytes =
          static_cast<uint64_t>(seg.row_count) *
          (layout_->schema.column(static_cast<int>(c)).type ==
                   ValueType::kString
               ? 4
               : 8);
      if (page.second != expect_bytes || page.first < kHeaderBytes ||
          page.first > page_region_end ||
          page.second > page_region_end - page.first) {
        return Status::InvalidArgument("segment file '" + path_ +
                                       "' has a column page outside the "
                                       "page region");
      }
      seg.page_bytes += static_cast<int64_t>(page.second);
    }
    seg.lineage_page.first = d.U64();
    seg.lineage_page.second = d.U64();
    const uint64_t expect_lineage =
        static_cast<uint64_t>(seg.row_count) * lineage_arity * 8;
    if (seg.lineage_page.second != expect_lineage ||
        seg.lineage_page.first < kHeaderBytes ||
        seg.lineage_page.first > page_region_end ||
        seg.lineage_page.second > page_region_end - seg.lineage_page.first) {
      return Status::InvalidArgument("segment file '" + path_ +
                                     "' has a lineage page outside the "
                                     "page region");
    }
    seg.page_bytes += static_cast<int64_t>(seg.lineage_page.second);
    seg.lineage_range.resize(lineage_arity);
    for (uint32_t dim = 0; dim < lineage_arity; ++dim) {
      seg.lineage_range[dim].first = d.U64();
      seg.lineage_range[dim].second = d.U64();
    }
    total_page_bytes_ += seg.page_bytes;
  }
  if (!d.ok) {
    return Status::InvalidArgument("segment file '" + path_ +
                                   "' has a truncated directory");
  }
  const int64_t expect_segments =
      num_rows_ == 0 ? 0 : (num_rows_ + segment_rows_ - 1) / segment_rows_;
  if (static_cast<int64_t>(num_segments) != expect_segments) {
    return Status::InvalidArgument("segment file '" + path_ +
                                   "' directory disagrees with its row "
                                   "count");
  }
  return Status::OK();
}

int64_t StoredRelation::OnDiskRowBytes() const {
  if (num_rows_ <= 0) return 1;
  return std::max<int64_t>(
      1, (total_page_bytes_ + num_rows_ - 1) / num_rows_);
}

Result<ColumnBatch> StoredRelation::DecodeSegment(int64_t s) const {
  if (s < 0 || s >= num_segments()) {
    return Status::OutOfRange("segment index out of range");
  }
  const SegmentInfo& seg = segments_[static_cast<size_t>(s)];

  // Verify before decoding: a flipped bit anywhere in the segment's pages
  // fails loudly instead of silently skewing an estimate.
  uint64_t sum = 0;
  for (const auto& page : seg.column_pages) {
    sum = Checksum64(base_ + page.first, page.second, sum);
  }
  sum = Checksum64(base_ + seg.lineage_page.first, seg.lineage_page.second,
                   sum);
  if (sum != seg.checksum) {
    return Status::Internal("segment " + std::to_string(s) + " of '" +
                            name_ + "' failed its checksum (corrupt file?)");
  }

  ColumnBatch batch(layout_);
  const int64_t rows = seg.row_count;
  for (int c = 0; c < layout_->schema.num_columns(); ++c) {
    ColumnData* col = batch.mutable_column(c);
    const uint8_t* page = base_ + seg.column_pages[static_cast<size_t>(c)].first;
    switch (col->type) {
      case ValueType::kInt64:
        DecodePage(page, rows, &col->i64);
        break;
      case ValueType::kFloat64:
        DecodePage(page, rows, &col->f64);
        break;
      case ValueType::kString:
        DecodePage(page, rows, &col->codes);
        col->dict = dict_;
        for (const uint32_t code : col->codes) {
          if (code >= dict_->values.size()) {
            return Status::Internal("segment " + std::to_string(s) + " of '" +
                                    name_ +
                                    "' holds a code outside its dictionary");
          }
        }
        break;
    }
  }
  DecodePage(base_ + seg.lineage_page.first,
             rows * layout_->lineage_arity(), batch.mutable_lineage());
  batch.SetNumRows(rows);
  return batch;
}

Result<uint64_t> StoredRelation::ComputeContentFingerprint() const {
  // Identical chain to rel/column_batch.h ContentFingerprint, streamed
  // column-major over the pages (segments are row-contiguous, so walking
  // segment-by-segment inside one column preserves row order).
  uint64_t h = Mix64(0x46505247ULL);  // "GRPF"
  h = HashStringContent(h, name_);
  const Schema& schema = layout_->schema;
  h = HashCombine(h, static_cast<uint64_t>(schema.num_columns()));
  for (int c = 0; c < schema.num_columns(); ++c) {
    h = HashStringContent(h, schema.column(c).name);
    h = HashCombine(h, static_cast<uint64_t>(schema.column(c).type));
  }
  for (const std::string& dim : layout_->lineage_schema) {
    h = HashStringContent(h, dim);
  }
  h = HashCombine(h, static_cast<uint64_t>(num_rows_));
  for (int c = 0; c < schema.num_columns(); ++c) {
    for (const SegmentInfo& seg : segments_) {
      const uint8_t* page = base_ + seg.column_pages[static_cast<size_t>(c)].first;
      switch (schema.column(c).type) {
        case ValueType::kInt64:
        case ValueType::kFloat64:
          for (int64_t i = 0; i < seg.row_count; ++i) {
            h = HashCombine(h, ReadU64At(page + i * 8));
          }
          break;
        case ValueType::kString:
          for (int64_t i = 0; i < seg.row_count; ++i) {
            const uint32_t code = ReadU32At(page + i * 4);
            if (code >= dict_->values.size()) {
              return Status::Internal("segment fingerprint: code outside "
                                      "the dictionary in '" + name_ + "'");
            }
            h = HashStringContent(h, dict_->values[code]);
          }
          break;
      }
    }
  }
  for (const SegmentInfo& seg : segments_) {
    const uint8_t* page = base_ + seg.lineage_page.first;
    const int64_t n = seg.row_count * layout_->lineage_arity();
    for (int64_t i = 0; i < n; ++i) {
      h = HashCombine(h, ReadU64At(page + i * 8));
    }
  }
  return h;
}

// ---- SegmentFileWriter -----------------------------------------------------

SegmentFileWriter::~SegmentFileWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<SegmentFileWriter>> SegmentFileWriter::Create(
    const std::string& path, const std::string& name, LayoutPtr layout,
    int64_t segment_rows) {
  GUS_RETURN_NOT_OK(RequireLittleEndian());
  if (segment_rows < 1) {
    return Status::InvalidArgument("segment_rows must be >= 1");
  }
  if (layout == nullptr) {
    return Status::InvalidArgument("segment writer needs a layout");
  }
  std::unique_ptr<SegmentFileWriter> w(new SegmentFileWriter());
  w->path_ = path;
  w->name_ = name;
  w->layout_ = std::move(layout);
  w->segment_rows_ = segment_rows;
  w->dict_ = std::make_shared<StringDict>();
  w->pending_.ResetLayout(w->layout_);
  w->file_ = std::fopen(path.c_str(), "wb");
  if (w->file_ == nullptr) {
    return Status::InvalidArgument("cannot create segment file '" + path +
                                   "'");
  }
  const std::string header(kHeaderBytes, '\0');
  GUS_RETURN_NOT_OK(WriteAll(w->file_, header.data(), header.size()));
  w->next_page_offset_ = kHeaderBytes;
  return w;
}

Status SegmentFileWriter::Append(const ColumnBatch& batch) {
  if (finished_) {
    return Status::InvalidArgument("Append after Finish");
  }
  if (!(batch.schema() == layout_->schema) ||
      batch.lineage_schema() != layout_->lineage_schema) {
    return Status::InvalidArgument(
        "appended batch does not match the segment file's layout");
  }
  int64_t off = 0;
  while (off < batch.num_rows()) {
    const int64_t room = segment_rows_ - pending_.num_rows();
    const int64_t take = std::min(room, batch.num_rows() - off);
    pending_.AppendRangeFrom(batch, off, take);
    off += take;
    if (pending_.num_rows() == segment_rows_) {
      GUS_RETURN_NOT_OK(FlushSegment());
    }
  }
  return Status::OK();
}

Status SegmentFileWriter::FlushSegment() {
  const int64_t rows = pending_.num_rows();
  if (rows == 0) return Status::OK();
  SegmentInfo seg;
  seg.row_begin = rows_written_;
  seg.row_count = rows;
  seg.zones.resize(layout_->schema.num_columns());
  seg.column_pages.resize(layout_->schema.num_columns());

  std::string pages;
  std::vector<uint32_t> code_scratch;
  for (int c = 0; c < layout_->schema.num_columns(); ++c) {
    const ColumnData& col = pending_.column(c);
    ColumnZone& zone = seg.zones[c];
    const size_t page_at = pages.size();
    switch (col.type) {
      case ValueType::kInt64: {
        EncodePage(col.i64.data(), rows, &pages);
        zone.kind = ColumnZone::kRanged;
        const auto [lo, hi] =
            std::minmax_element(col.i64.begin(), col.i64.end());
        zone.min_i64 = *lo;
        zone.max_i64 = *hi;
        break;
      }
      case ValueType::kFloat64: {
        EncodePage(col.f64.data(), rows, &pages);
        zone.kind = ColumnZone::kRanged;
        zone.min_f64 = col.f64[0];
        zone.max_f64 = col.f64[0];
        for (const double v : col.f64) {
          if (std::isnan(v)) {
            // NaN breaks ordering: mark the zone unusable rather than
            // publishing bounds a pruner could wrongly trust.
            zone.kind = ColumnZone::kUnknown;
            break;
          }
          zone.min_f64 = std::min(zone.min_f64, v);
          zone.max_f64 = std::max(zone.max_f64, v);
        }
        break;
      }
      case ValueType::kString: {
        // Re-encode through the file's global dictionary (the buffered
        // batch may carry any source dictionary).
        code_scratch.resize(static_cast<size_t>(rows));
        int64_t min_row = 0, max_row = 0;
        for (int64_t i = 0; i < rows; ++i) {
          const std::string& s = col.StringAt(i);
          code_scratch[static_cast<size_t>(i)] = dict_->Intern(s);
          if (s < col.StringAt(min_row)) min_row = i;
          if (col.StringAt(max_row) < s) max_row = i;
        }
        EncodePage(code_scratch.data(), rows, &pages);
        zone.kind = ColumnZone::kRanged;
        zone.min_code = code_scratch[static_cast<size_t>(min_row)];
        zone.max_code = code_scratch[static_cast<size_t>(max_row)];
        zone.min_str = col.StringAt(min_row);
        zone.max_str = col.StringAt(max_row);
        break;
      }
    }
    seg.column_pages[c] = {next_page_offset_ + page_at,
                           pages.size() - page_at};
    seg.checksum = Checksum64(pages.data() + page_at, pages.size() - page_at,
                              seg.checksum);
  }
  const size_t lineage_at = pages.size();
  EncodePage(pending_.lineage().data(),
             rows * layout_->lineage_arity(), &pages);
  seg.lineage_page = {next_page_offset_ + lineage_at,
                      pages.size() - lineage_at};
  seg.checksum = Checksum64(pages.data() + lineage_at,
                            pages.size() - lineage_at, seg.checksum);
  seg.lineage_range.resize(layout_->lineage_arity());
  for (int dim = 0; dim < layout_->lineage_arity(); ++dim) {
    uint64_t lo = pending_.lineage_at(0, dim), hi = lo;
    for (int64_t i = 1; i < rows; ++i) {
      const uint64_t id = pending_.lineage_at(i, dim);
      lo = std::min(lo, id);
      hi = std::max(hi, id);
    }
    seg.lineage_range[dim] = {lo, hi};
  }
  seg.page_bytes = static_cast<int64_t>(pages.size());

  GUS_RETURN_NOT_OK(WriteAll(file_, pages.data(), pages.size()));
  next_page_offset_ += pages.size();
  rows_written_ += rows;
  segments_.push_back(std::move(seg));
  pending_.Clear();
  return Status::OK();
}

Result<SegmentFileWriter::Summary> SegmentFileWriter::Finish() {
  if (finished_) {
    return Status::InvalidArgument("Finish called twice");
  }
  GUS_RETURN_NOT_OK(FlushSegment());
  finished_ = true;

  // Meta block.
  std::string meta;
  PutStr(&meta, name_);
  for (int c = 0; c < layout_->schema.num_columns(); ++c) {
    PutStr(&meta, layout_->schema.column(c).name);
    PutU8(&meta, static_cast<uint8_t>(layout_->schema.column(c).type));
  }
  for (const std::string& dim : layout_->lineage_schema) {
    PutStr(&meta, dim);
  }
  PutU64(&meta, dict_->values.size());
  for (const std::string& s : dict_->values) PutStr(&meta, s);
  const uint64_t meta_offset = next_page_offset_;
  GUS_RETURN_NOT_OK(WriteAll(file_, meta.data(), meta.size()));

  // Directory block.
  std::string dir;
  for (const SegmentInfo& seg : segments_) {
    PutU64(&dir, static_cast<uint64_t>(seg.row_begin));
    PutU64(&dir, static_cast<uint64_t>(seg.row_count));
    PutU64(&dir, seg.checksum);
    for (int c = 0; c < layout_->schema.num_columns(); ++c) {
      PutU64(&dir, seg.column_pages[c].first);
      PutU64(&dir, seg.column_pages[c].second);
      const ColumnZone& zone = seg.zones[c];
      PutU8(&dir, zone.kind);
      switch (layout_->schema.column(c).type) {
        case ValueType::kInt64:
          PutU64(&dir, static_cast<uint64_t>(zone.min_i64));
          PutU64(&dir, static_cast<uint64_t>(zone.max_i64));
          break;
        case ValueType::kFloat64:
          PutU64(&dir, BitsOf(zone.min_f64));
          PutU64(&dir, BitsOf(zone.max_f64));
          break;
        case ValueType::kString:
          PutU64(&dir, zone.min_code);
          PutU64(&dir, zone.max_code);
          break;
      }
      PutU64(&dir, zone.null_count);
    }
    PutU64(&dir, seg.lineage_page.first);
    PutU64(&dir, seg.lineage_page.second);
    for (const auto& range : seg.lineage_range) {
      PutU64(&dir, range.first);
      PutU64(&dir, range.second);
    }
  }
  const uint64_t dir_offset = meta_offset + meta.size();
  GUS_RETURN_NOT_OK(WriteAll(file_, dir.data(), dir.size()));
  const uint64_t file_bytes = dir_offset + dir.size();

  // Header (fingerprint stamped after a verification re-read below).
  std::string header;
  PutU32(&header, kMagic);
  PutU32(&header, kVersion);
  PutU64(&header, 0);  // flags
  PutU64(&header, 0);  // content fingerprint placeholder
  PutU64(&header, static_cast<uint64_t>(rows_written_));
  PutU64(&header, static_cast<uint64_t>(segment_rows_));
  PutU64(&header, segments_.size());
  PutU32(&header, static_cast<uint32_t>(layout_->schema.num_columns()));
  PutU32(&header, static_cast<uint32_t>(layout_->lineage_arity()));
  PutU64(&header, meta_offset);
  PutU64(&header, meta.size());
  PutU64(&header, dir_offset);
  PutU64(&header, dir.size());
  PutU64(&header, file_bytes);
  GUS_CHECK(header.size() == kHeaderBytes);
  if (std::fseek(file_, 0, SEEK_SET) != 0) {
    return Status::Internal("cannot seek to the segment file header");
  }
  GUS_RETURN_NOT_OK(WriteAll(file_, header.data(), header.size()));
  if (std::fflush(file_) != 0 || std::fclose(file_) != 0) {
    file_ = nullptr;
    return Status::Internal("cannot flush segment file '" + path_ + "'");
  }
  file_ = nullptr;

  // Re-open what was just written and fingerprint it from the pages — the
  // stamped value then describes the bytes on disk, not the bytes we
  // intended to write.
  GUS_ASSIGN_OR_RETURN(std::unique_ptr<StoredRelation> reread,
                       StoredRelation::Open(path_));
  GUS_ASSIGN_OR_RETURN(const uint64_t fingerprint,
                       reread->ComputeContentFingerprint());
  reread.reset();
  const int fd = open(path_.c_str(), O_WRONLY);
  if (fd < 0) {
    return Status::Internal("cannot re-open '" + path_ +
                            "' to stamp its fingerprint");
  }
  uint64_t stamped = fingerprint;
  const ssize_t wrote = pwrite(fd, &stamped, 8, 16);
  close(fd);
  if (wrote != 8) {
    return Status::Internal("cannot stamp the fingerprint into '" + path_ +
                            "'");
  }

  Summary out;
  out.num_rows = rows_written_;
  out.num_segments = static_cast<int64_t>(segments_.size());
  out.content_fingerprint = fingerprint;
  return out;
}

Result<SegmentFileWriter::Summary> WriteRelationSegments(
    const std::string& name, const ColumnarRelation& rel,
    const std::string& path, int64_t segment_rows) {
  GUS_ASSIGN_OR_RETURN(
      std::unique_ptr<SegmentFileWriter> writer,
      SegmentFileWriter::Create(path, name, rel.layout_ptr(), segment_rows));
  GUS_RETURN_NOT_OK(writer->Append(rel.data()));
  return writer->Finish();
}

}  // namespace gus
