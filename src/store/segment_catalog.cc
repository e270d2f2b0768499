#include "store/segment_catalog.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <utility>

namespace gus {

Result<std::unique_ptr<SegmentCatalog>> SegmentCatalog::Open(
    const std::string& dir, SegmentCacheOptions cache_options) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    return Status::InvalidArgument("cannot open catalog directory '" + dir +
                                   "'");
  }
  std::vector<std::string> paths;
  const std::string ext = kSegmentFileExt;
  while (struct dirent* entry = readdir(d)) {
    const std::string file = entry->d_name;
    if (file.size() > ext.size() &&
        file.compare(file.size() - ext.size(), ext.size(), ext) == 0) {
      paths.push_back(dir + "/" + file);
    }
  }
  closedir(d);
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    return Status::InvalidArgument("catalog directory '" + dir +
                                   "' holds no " + ext + " files");
  }
  return OpenFiles(paths, cache_options);
}

Result<std::unique_ptr<SegmentCatalog>> SegmentCatalog::OpenFiles(
    const std::vector<std::string>& paths, SegmentCacheOptions cache_options) {
  std::unique_ptr<SegmentCatalog> catalog(new SegmentCatalog(cache_options));
  for (const std::string& path : paths) {
    GUS_ASSIGN_OR_RETURN(std::unique_ptr<StoredRelation> rel,
                         StoredRelation::Open(path));
    const std::string name = rel->name();
    if (!catalog->stored_.emplace(name, std::move(rel)).second) {
      return Status::InvalidArgument("catalog holds two relations named '" +
                                     name + "'");
    }
  }
  return catalog;
}

Result<const ColumnarRelation*> SegmentCatalog::Get(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto cached = materialized_.find(name);
  if (cached != materialized_.end()) return cached->second.get();
  auto it = stored_.find(name);
  if (it == stored_.end()) {
    return Status::KeyError("relation '" + name + "' not in catalog");
  }
  const StoredRelation& rel = *it->second;
  auto out = std::make_unique<ColumnarRelation>(rel.layout_ptr());
  out->mutable_data()->Reserve(rel.num_rows());
  for (int64_t s = 0; s < rel.num_segments(); ++s) {
    GUS_ASSIGN_OR_RETURN(std::shared_ptr<const ColumnBatch> pin,
                         cache_.Fault(rel, s));
    out->AppendBatch(*pin);
  }
  return materialized_.emplace(name, std::move(out)).first->second.get();
}

Result<uint64_t> SegmentCatalog::Fingerprint(const std::string& name) {
  auto it = stored_.find(name);
  if (it == stored_.end()) {
    return Status::KeyError("relation '" + name + "' not in catalog");
  }
  return it->second->content_fingerprint();
}

Result<const StoredRelation*> SegmentCatalog::Stored(const std::string& name) {
  auto it = stored_.find(name);
  if (it == stored_.end()) {
    return Status::KeyError("relation '" + name + "' not in catalog");
  }
  return static_cast<const StoredRelation*>(it->second.get());
}

Result<int64_t> SegmentCatalog::RowCountOf(const std::string& name) {
  auto it = stored_.find(name);
  if (it == stored_.end()) {
    return Status::KeyError("relation '" + name + "' not in catalog");
  }
  return it->second->num_rows();
}

Result<LayoutPtr> SegmentCatalog::LayoutOf(const std::string& name) {
  auto it = stored_.find(name);
  if (it == stored_.end()) {
    return Status::KeyError("relation '" + name + "' not in catalog");
  }
  return it->second->layout_ptr();
}

std::vector<std::string> SegmentCatalog::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(stored_.size());
  for (const auto& [name, rel] : stored_) names.push_back(name);
  return names;
}

Result<Catalog> SegmentCatalog::MaterializeRowCatalog() {
  Catalog out;
  for (const auto& [name, rel] : stored_) {
    GUS_ASSIGN_OR_RETURN(const ColumnarRelation* col, Get(name));
    out.emplace(name, Relation(*col));
  }
  return out;
}

Status WriteCatalogSegments(const Catalog& catalog, const std::string& dir,
                            int64_t segment_rows) {
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::InvalidArgument("cannot create catalog directory '" + dir +
                                   "'");
  }
  for (const auto& [name, rel] : catalog) {
    GUS_ASSIGN_OR_RETURN(SegmentFileWriter::Summary summary,
                         WriteRelationSegments(
                             name, *rel.Columnar(),
                             dir + "/" + name + kSegmentFileExt,
                             segment_rows));
    (void)summary;
  }
  return Status::OK();
}

}  // namespace gus
