// SegmentCatalog: the on-disk catalog behind the ColumnarCatalog surface.
//
// Opens every `.gseg` file in a directory and serves every execution
// engine unchanged:
//
//   * kMorselParallel / kSharded, the worker daemon and the serial batch
//     pipeline (ExecutePlanColumnar, EstimatePlanStreaming) take a
//     ColumnarCatalog* — scans stream segment-at-a-time through Stored()
//     + the pinned cache (ResolveScanInput, plan/columnar_executor.h; the
//     SegmentPruner skips segments first, store/pruner.h), while
//     pipeline breakers that need a whole side resident (join builds)
//     materialize through Get() as before.
//   * kRowAtATime takes a Catalog — MaterializeRowCatalog() copies the
//     decoded columns once for the compatibility path.
//
// Fingerprints come straight from the file headers (stamped at write time
// with the identical ContentFingerprint chain), so the shard and serving
// protocols see exactly the values an in-memory catalog would compute —
// an on-disk catalog and the in-memory catalog over the same rows are
// indistinguishable on the wire.
//
// Thread safety: Get()/Fingerprint()/Stored() are safe to call
// concurrently (in-process shard workers share one catalog); the stored
// relations themselves are immutable after Open.

#ifndef GUS_STORE_SEGMENT_CATALOG_H_
#define GUS_STORE_SEGMENT_CATALOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "plan/columnar_executor.h"
#include "store/segment_cache.h"
#include "store/segment_store.h"

namespace gus {

class SegmentCatalog final : public ColumnarCatalog {
 public:
  /// Opens every `*.gseg` file under `dir` (relation name from the file's
  /// meta block). Fails if the directory cannot be read or any file is
  /// corrupt.
  static Result<std::unique_ptr<SegmentCatalog>> Open(
      const std::string& dir, SegmentCacheOptions cache_options = {});

  /// Opens an explicit list of segment files.
  static Result<std::unique_ptr<SegmentCatalog>> OpenFiles(
      const std::vector<std::string>& paths,
      SegmentCacheOptions cache_options = {});

  Result<const ColumnarRelation*> Get(const std::string& name) override;
  Result<uint64_t> Fingerprint(const std::string& name) override;
  Result<const StoredRelation*> Stored(const std::string& name) override;
  Result<int64_t> RowCountOf(const std::string& name) override;
  Result<LayoutPtr> LayoutOf(const std::string& name) override;
  SegmentCache* segment_cache() override { return &cache_; }

  std::vector<std::string> RelationNames() const;

  /// Row-engine form of the whole catalog (one full materialization per
  /// relation; the kRowAtATime compatibility path).
  Result<Catalog> MaterializeRowCatalog();

 private:
  explicit SegmentCatalog(SegmentCacheOptions cache_options)
      : cache_(cache_options) {}

  std::map<std::string, std::unique_ptr<StoredRelation>> stored_;
  SegmentCache cache_;

  std::mutex mu_;  // guards materialized_ only (stored_ is Open-time const)
  std::map<std::string, std::unique_ptr<ColumnarRelation>> materialized_;
};

/// Writes every relation of a row-engine catalog as `.gseg` files under
/// `dir` (created if missing) — the generator → segments ingestion step
/// used by gus_ingest and the tests.
Status WriteCatalogSegments(const Catalog& catalog, const std::string& dir,
                            int64_t segment_rows = kDefaultSegmentRows);

}  // namespace gus

#endif  // GUS_STORE_SEGMENT_CATALOG_H_
