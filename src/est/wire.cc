#include "est/wire.h"

#include <cstdio>
#include <cstring>
#include <limits>

namespace gus {

namespace {

constexpr char kBundleMagic[4] = {'G', 'U', 'S', 'B'};

/// Cap on any single decoded element count. The point is not a format
/// limit but loud failure on corrupted length fields before they turn
/// into multi-gigabyte allocations.
constexpr uint64_t kSaneCount = uint64_t{1} << 40;

}  // namespace

bool WireTagKnown(uint32_t tag) {
  switch (static_cast<WireTag>(tag)) {
    case WireTag::kMeta:
    case WireTag::kSampleView:
    case WireTag::kViewBuilder:
    case WireTag::kSboxState:
    case WireTag::kGroupedSum:
    case WireTag::kRngState:
    case WireTag::kSamplerState:
    case WireTag::kSurvivingRanges:
      return true;
  }
  return false;
}

void WireWriter::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void WireWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

Status WireReader::Take(size_t n, std::string_view* out) {
  if (n > buf_.size() - pos_) {
    return Status::InvalidArgument("truncated wire buffer (wanted " +
                                   std::to_string(n) + " bytes, have " +
                                   std::to_string(buf_.size() - pos_) + ")");
  }
  *out = buf_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

Status WireReader::ReadU8(uint8_t* out) {
  std::string_view b;
  GUS_RETURN_NOT_OK(Take(1, &b));
  *out = static_cast<uint8_t>(b[0]);
  return Status::OK();
}

Status WireReader::ReadU32(uint32_t* out) {
  std::string_view b;
  GUS_RETURN_NOT_OK(Take(4, &b));
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(b[i]);
  *out = v;
  return Status::OK();
}

Status WireReader::ReadU64(uint64_t* out) {
  std::string_view b;
  GUS_RETURN_NOT_OK(Take(8, &b));
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(b[i]);
  *out = v;
  return Status::OK();
}

Status WireReader::ReadI32(int32_t* out) {
  uint32_t v;
  GUS_RETURN_NOT_OK(ReadU32(&v));
  *out = static_cast<int32_t>(v);
  return Status::OK();
}

Status WireReader::ReadI64(int64_t* out) {
  uint64_t v;
  GUS_RETURN_NOT_OK(ReadU64(&v));
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status WireReader::ReadDouble(double* out) {
  uint64_t bits;
  GUS_RETURN_NOT_OK(ReadU64(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::OK();
}

Status WireReader::ReadString(std::string* out) {
  uint32_t len;
  GUS_RETURN_NOT_OK(ReadU32(&len));
  std::string_view b;
  GUS_RETURN_NOT_OK(Take(len, &b));
  out->assign(b);
  return Status::OK();
}

Status WireReader::ExpectEnd() const {
  if (pos_ != buf_.size()) {
    return Status::InvalidArgument(
        std::to_string(buf_.size() - pos_) +
        " trailing bytes after a complete wire payload");
  }
  return Status::OK();
}

void WireBundleWriter::AddSection(WireTag tag, std::string payload) {
  sections_.emplace_back(tag, std::move(payload));
}

std::string WireBundleWriter::Finish() const {
  WireWriter w;
  for (char c : kBundleMagic) w.PutU8(static_cast<uint8_t>(c));
  w.PutU32(kWireVersion);
  w.PutU32(static_cast<uint32_t>(sections_.size()));
  for (const auto& [tag, payload] : sections_) {
    w.PutU32(static_cast<uint32_t>(tag));
    w.PutU64(payload.size());
  }
  // Header first, then payloads: the section directory is fixed-size per
  // entry, so a reader can locate any payload without scanning the others.
  std::string out = w.Take();
  for (const auto& [tag, payload] : sections_) out += payload;
  WireWriter tail;
  tail.PutU64(WireChecksum(out));
  return out + tail.Take();
}

Result<std::vector<WireSectionView>> ParseWireBundle(std::string_view buffer) {
  if (buffer.size() < sizeof(kBundleMagic) + 8 + 8 ||
      std::memcmp(buffer.data(), kBundleMagic, sizeof(kBundleMagic)) != 0) {
    return Status::InvalidArgument(
        "not a GUS wire bundle (missing GUSB magic)");
  }
  // The version is a fixed-offset field, so it is checked before the
  // checksum: a peer on another format version reports a version error,
  // not a corruption error (its checksum may differ too).
  const std::string_view body = buffer.substr(0, buffer.size() - 8);
  WireReader r(body.substr(sizeof(kBundleMagic)));
  uint32_t version = 0, count = 0;
  GUS_RETURN_NOT_OK(r.ReadU32(&version));
  if (version != kWireVersion) {
    return Status::InvalidArgument(
        "unsupported wire bundle version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kWireVersion) + ")");
  }
  // Checksum covers everything before the trailing digest; verify before
  // trusting any length field.
  WireReader tail_reader(buffer.substr(buffer.size() - 8));
  uint64_t stored = 0;
  GUS_RETURN_NOT_OK(tail_reader.ReadU64(&stored));
  if (stored != WireChecksum(body)) {
    return Status::InvalidArgument("wire bundle checksum mismatch (corrupt)");
  }

  GUS_RETURN_NOT_OK(r.ReadU32(&count));
  std::vector<uint32_t> tags;
  std::vector<uint64_t> lengths;
  tags.reserve(count);
  lengths.reserve(count);
  uint64_t payload_total = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t tag = 0;
    uint64_t len = 0;
    GUS_RETURN_NOT_OK(r.ReadU32(&tag));
    GUS_RETURN_NOT_OK(r.ReadU64(&len));
    if (!WireTagKnown(tag)) {
      // Unknown sections are rejected, not skipped: dropping a partial
      // estimator section would silently bias the merged result.
      char hex[9];
      std::snprintf(hex, sizeof(hex), "%08X", tag);
      return Status::InvalidArgument(std::string("unknown wire section tag 0x") +
                                     hex);
    }
    // Bound each length by the buffer and re-check the running total on
    // every step: the directory is attacker-controlled, and letting the
    // total wrap around uint64 could slip a bogus layout past the final
    // consistency check.
    if (len > kSaneCount || len > body.size()) {
      return Status::InvalidArgument("implausible wire section length");
    }
    tags.push_back(tag);
    lengths.push_back(len);
    payload_total += len;
    if (payload_total > body.size()) {
      return Status::InvalidArgument(
          "wire bundle section lengths exceed the buffer size");
    }
  }
  const size_t directory_end =
      sizeof(kBundleMagic) + 8 + count * size_t{12};
  if (payload_total != body.size() - directory_end) {
    return Status::InvalidArgument(
        "wire bundle section lengths disagree with the buffer size");
  }
  std::vector<WireSectionView> sections;
  sections.reserve(count);
  size_t offset = directory_end;
  for (uint32_t i = 0; i < count; ++i) {
    sections.push_back({static_cast<WireTag>(tags[i]),
                        body.substr(offset, lengths[i])});
    offset += lengths[i];
  }
  return sections;
}

Result<WireSectionView> FindWireSection(
    const std::vector<WireSectionView>& sections, WireTag tag) {
  for (const WireSectionView& s : sections) {
    if (s.tag == tag) return s;
  }
  return Status::InvalidArgument("wire bundle is missing a required section");
}

// ---- Typed payload encodings ----------------------------------------------

void EncodeSampleView(const SampleView& view, WireWriter* w) {
  const int n = view.schema.arity();
  w->PutU32(static_cast<uint32_t>(n));
  for (const std::string& rel : view.schema.relations()) w->PutString(rel);
  const int64_t rows = view.num_rows();
  w->PutU64(static_cast<uint64_t>(rows));
  for (int d = 0; d < n; ++d) {
    for (int64_t i = 0; i < rows; ++i) w->PutU64(view.lineage[d][i]);
  }
  for (int64_t i = 0; i < rows; ++i) w->PutDouble(view.f[i]);
}

Status DecodeSampleView(WireReader* r, SampleView* out) {
  uint32_t arity = 0;
  GUS_RETURN_NOT_OK(r->ReadU32(&arity));
  if (arity > LineageSchema::kMaxLineageArity) {
    return Status::InvalidArgument("wire SampleView arity out of range");
  }
  std::vector<std::string> rels(arity);
  for (auto& rel : rels) GUS_RETURN_NOT_OK(r->ReadString(&rel));
  GUS_ASSIGN_OR_RETURN(out->schema, LineageSchema::Make(std::move(rels)));
  uint64_t rows = 0;
  GUS_RETURN_NOT_OK(r->ReadU64(&rows));
  if (rows > kSaneCount || rows > r->remaining() / 8) {
    return Status::InvalidArgument("truncated wire SampleView row data");
  }
  out->lineage.assign(arity, {});
  for (uint32_t d = 0; d < arity; ++d) {
    out->lineage[d].resize(rows);
    for (uint64_t i = 0; i < rows; ++i) {
      GUS_RETURN_NOT_OK(r->ReadU64(&out->lineage[d][i]));
    }
  }
  out->f.resize(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    GUS_RETURN_NOT_OK(r->ReadDouble(&out->f[i]));
  }
  return Status::OK();
}

std::string SampleViewToBytes(const SampleView& view) {
  WireWriter w;
  EncodeSampleView(view, &w);
  return w.Take();
}

Result<SampleView> SampleViewFromBytes(std::string_view payload) {
  WireReader r(payload);
  SampleView view;
  GUS_RETURN_NOT_OK(DecodeSampleView(&r, &view));
  GUS_RETURN_NOT_OK(r.ExpectEnd());
  return view;
}

void EncodeGusParams(const GusParams& gus, WireWriter* w) {
  const int n = gus.schema().arity();
  w->PutU32(static_cast<uint32_t>(n));
  for (const std::string& rel : gus.schema().relations()) w->PutString(rel);
  w->PutDouble(gus.a());
  for (SubsetMask m = 0; m < gus.schema().num_subsets(); ++m) {
    w->PutDouble(gus.b(m));
  }
}

Status DecodeGusParams(WireReader* r, GusParams* out) {
  uint32_t arity = 0;
  GUS_RETURN_NOT_OK(r->ReadU32(&arity));
  if (arity > LineageSchema::kMaxLineageArity) {
    return Status::InvalidArgument("wire GusParams arity out of range");
  }
  std::vector<std::string> rels(arity);
  for (auto& rel : rels) GUS_RETURN_NOT_OK(r->ReadString(&rel));
  GUS_ASSIGN_OR_RETURN(LineageSchema schema,
                       LineageSchema::Make(std::move(rels)));
  double a = 0.0;
  GUS_RETURN_NOT_OK(r->ReadDouble(&a));
  std::vector<double> b(schema.num_subsets());
  for (double& v : b) GUS_RETURN_NOT_OK(r->ReadDouble(&v));
  // GusParams::Make revalidates ranges and the b_full == a invariant, so a
  // corrupted-but-checksum-colliding buffer still cannot smuggle in an
  // inconsistent quasi-operator.
  GUS_ASSIGN_OR_RETURN(*out, GusParams::Make(std::move(schema), a,
                                             std::move(b)));
  return Status::OK();
}

void EncodeSourceMap(const std::vector<int>& source, WireWriter* w) {
  w->PutU32(static_cast<uint32_t>(source.size()));
  for (int s : source) w->PutI32(s);
}

Status DecodeSourceMap(WireReader* r, std::vector<int>* out) {
  uint32_t n = 0;
  GUS_RETURN_NOT_OK(r->ReadU32(&n));
  if (n > LineageSchema::kMaxLineageArity) {
    return Status::InvalidArgument("wire source map arity out of range");
  }
  out->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    int32_t v = 0;
    GUS_RETURN_NOT_OK(r->ReadI32(&v));
    (*out)[i] = v;
  }
  return Status::OK();
}

std::string RngStateToBytes(const Rng& rng) {
  uint64_t state[Rng::kStateWords];
  uint64_t draws = 0;
  rng.SaveState(state, &draws);
  WireWriter w;
  for (uint64_t word : state) w.PutU64(word);
  w.PutU64(draws);
  return w.Take();
}

Result<Rng> RngStateFromBytes(std::string_view payload) {
  WireReader r(payload);
  uint64_t state[Rng::kStateWords];
  for (uint64_t& word : state) GUS_RETURN_NOT_OK(r.ReadU64(&word));
  uint64_t draws = 0;
  GUS_RETURN_NOT_OK(r.ReadU64(&draws));
  GUS_RETURN_NOT_OK(r.ExpectEnd());
  Rng rng;
  rng.RestoreState(state, draws);
  return rng;
}

}  // namespace gus
