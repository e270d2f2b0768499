// Binary wire format for partial estimator state — the cross-node contract
// of the shared-nothing distributed layer (src/dist/).
//
// The text format in est/serialize.h is the paper's "estimator as an
// external tool" integration surface; this file is its machine-to-machine
// sibling: a versioned, self-describing, checksummed container that shard
// workers use to ship mergeable estimator state (SampleView,
// StreamingSboxEstimator, GroupedSumBuilder, Rng stream positions) to a
// gather coordinator. The byte-level layout is specified in
// docs/WIRE_FORMAT.md; the golden-buffer test in est_serialize_test.cc
// pins the two to each other.
//
// Container layout (all integers little-endian):
//
//   "GUSB" | u32 version | u32 section_count
//   section_count × ( u32 tag | u64 payload_len | payload bytes )
//   u64 Checksum64(all preceding bytes)        (util/checksum.h)
//
// Readers check the magic and the version before the checksum, so a peer
// on another version reports a version error, not a corruption error.
// Readers reject unknown versions AND unknown section tags loudly
// (InvalidArgument) instead of skipping: partial state feeds statistical
// merges, where silently dropping a section would bias results without any
// visible failure.

#ifndef GUS_EST_WIRE_H_
#define GUS_EST_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/gus_params.h"
#include "est/sample_view.h"
#include "util/checksum.h"
#include "util/random.h"
#include "util/status.h"

namespace gus {

/// Current container version. Bumped on any layout change; readers reject
/// everything else. v2: META gained the catalog fingerprint and bundles
/// carry the SMPL resolved-sampler section. v2.1 (same container version —
/// purely additive): degraded gathers may attach a LIVE surviving-ranges
/// section; v2.0 readers of this build accept it, older v2 readers reject
/// it loudly rather than merging a partial bundle they cannot interpret.
/// v3: the trailing checksum is Checksum64 instead of bytewise FNV-1a.
inline constexpr uint32_t kWireVersion = 3;

/// Section tags (the ASCII of the name, read as a little-endian u32).
enum class WireTag : uint32_t {
  /// Shard run metadata (dist/worker.h): split geometry + stream base.
  kMeta = 0x4154454Du,  // "META"
  /// A bare SampleView.
  kSampleView = 0x57454956u,  // "VIEW"
  /// SampleViewBuilder partial state (dimension map + view).
  kViewBuilder = 0x444C4256u,  // "VBLD"
  /// StreamingSboxEstimator partial state (running sums + retained set).
  kSboxState = 0x584F4253u,  // "SBOX"
  /// GroupedSumBuilder partial state (dictionary-coded group keys).
  kGroupedSum = 0x50555247u,  // "GRUP"
  /// Rng stream position (4 state words + draw counter).
  kRngState = 0x53474E52u,  // "RNGS"
  /// Resolved pivot-path fixed-size samplers (dist/shard.h): per sampler
  /// the method, seed, and keep-set fingerprint — byte-equality across
  /// shards proves they agreed on the global fixed-size draws.
  kSamplerState = 0x4C504D53u,  // "SMPL"
  /// Surviving-range metadata (est/partial_gather.h): which shard unit
  /// ranges a degraded (partial) gather actually folded, plus the pivot
  /// relation and survival inclusion probabilities — makes a cached
  /// partial bundle self-describing. v2.1 addition: writers only emit it
  /// on degraded gathers, so v2.0 bundles parse unchanged.
  kSurvivingRanges = 0x4556494Cu,  // "LIVE"
};

/// True for every tag this build understands (readers hard-fail otherwise).
bool WireTagKnown(uint32_t tag);

/// The container and frame checksum: Checksum64 (util/checksum.h).
inline uint64_t WireChecksum(std::string_view bytes) {
  return Checksum64(bytes.data(), bytes.size());
}

/// \brief Append-only little-endian encoder backing every payload.
class WireWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutLittleEndian(v, 4); }
  void PutU64(uint64_t v) { PutLittleEndian(v, 8); }
  void PutI32(int32_t v) { PutLittleEndian(static_cast<uint32_t>(v), 4); }
  void PutI64(int64_t v) { PutLittleEndian(static_cast<uint64_t>(v), 8); }
  /// IEEE-754 bit pattern as a u64 — round-trips bit-exactly.
  void PutDouble(double v);
  /// u32 byte length + raw bytes (no terminator).
  void PutString(std::string_view s);

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  void PutLittleEndian(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  std::string buf_;
};

/// \brief Bounds-checked little-endian decoder over a borrowed buffer.
///
/// Every read fails with InvalidArgument ("truncated ...") instead of
/// reading past the end; decoders built on it are therefore total on
/// arbitrary (adversarial) input.
class WireReader {
 public:
  explicit WireReader(std::string_view buf) : buf_(buf) {}

  Status ReadU8(uint8_t* out);
  Status ReadU32(uint32_t* out);
  Status ReadU64(uint64_t* out);
  Status ReadI32(int32_t* out);
  Status ReadI64(int64_t* out);
  Status ReadDouble(double* out);
  Status ReadString(std::string* out);

  size_t remaining() const { return buf_.size() - pos_; }
  bool AtEnd() const { return pos_ == buf_.size(); }
  /// Trailing bytes after a complete decode are a format error; decoders
  /// call this last.
  Status ExpectEnd() const;

 private:
  Status Take(size_t n, std::string_view* out);

  std::string_view buf_;
  size_t pos_ = 0;
};

/// \brief Assembles a container: header, tagged sections, checksum.
class WireBundleWriter {
 public:
  void AddSection(WireTag tag, std::string payload);
  /// Serializes the container (writer reusable afterwards only via new
  /// AddSection calls — Finish is non-destructive).
  std::string Finish() const;

 private:
  std::vector<std::pair<WireTag, std::string>> sections_;
};

/// One parsed section; `payload` borrows the parsed buffer.
struct WireSectionView {
  WireTag tag;
  std::string_view payload;
};

/// \brief Parses and validates a container: magic, version, section
/// bounds, known tags, checksum.
///
/// The returned views borrow `buffer`, which must outlive them.
Result<std::vector<WireSectionView>> ParseWireBundle(std::string_view buffer);

/// First section with `tag`, or InvalidArgument naming the missing tag.
Result<WireSectionView> FindWireSection(
    const std::vector<WireSectionView>& sections, WireTag tag);

// ---- Typed payload encodings ----------------------------------------------
//
// Estimator classes serialize themselves via members (SerializeState /
// DeserializeState in est/streaming.h, est/group_by.h) built on these
// shared encodings.

/// Appends a SampleView: schema arity + relation names, row count, lineage
/// columns, f column.
void EncodeSampleView(const SampleView& view, WireWriter* w);
Status DecodeSampleView(WireReader* r, SampleView* out);

/// Convenience pair for whole-payload (kSampleView section) use.
std::string SampleViewToBytes(const SampleView& view);
Result<SampleView> SampleViewFromBytes(std::string_view payload);

/// Appends GusParams: schema, a, dense b table (validated on decode).
void EncodeGusParams(const GusParams& gus, WireWriter* w);
Status DecodeGusParams(WireReader* r, GusParams* out);

/// \brief The analysis-dim -> layout-lineage-column map carried by every
/// builder/estimator payload (its equality gates Merge).
///
/// One implementation because the field's layout is shared by the VBLD,
/// SBOX, and GRUP sections (docs/WIRE_FORMAT.md).
void EncodeSourceMap(const std::vector<int>& source, WireWriter* w);
Status DecodeSourceMap(WireReader* r, std::vector<int>* out);

/// Rng stream position: 4 state words + the draw counter.
std::string RngStateToBytes(const Rng& rng);
Result<Rng> RngStateFromBytes(std::string_view payload);

}  // namespace gus

#endif  // GUS_EST_WIRE_H_
