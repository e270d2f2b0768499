#include "plan/exec_stats.h"

#include <sys/resource.h>

#include <cstdlib>
#include <sstream>

namespace gus {

void ExecStats::Reset() {
  *this = ExecStats();
}

std::string ExecStats::ToString(const std::string& label) const {
  std::ostringstream out;
  out.precision(3);
  out << std::fixed;
  out << "[gus profile]";
  if (!label.empty()) out << " " << label;
  out << (serial_fallback ? " (serial fallback)" : "") << "\n";
  out << "  total      " << total_ms << " ms\n";
  out << "  prepare    " << prepare_ms << " ms  (sampler "
      << prepare_sampler_ms << " ms inside)\n";
  out << "  parallel   " << parallel_ms << " ms  (sink fold " << sink_fold_ms
      << " ms inside)\n";
  out << "  pivot      " << pivot_rows << " rows -> " << morsels
      << " morsels x " << morsel_rows << " rows\n";
  out << "  emitted    " << rows_emitted << " rows, " << bytes_moved
      << " bytes\n";
  out << "  sinks      " << sinks_created << " created, " << sinks_recycled
      << " recycled\n";
  out << "  faults     " << minor_faults << " minor (process-wide)\n";
  out << "  pool       " << workers << " workers, " << pool_wakeups
      << " wakeups, " << pool_threads_spawned << " spawned\n";
  out << "  morsels/worker ";
  for (size_t w = 0; w < worker_morsels.size(); ++w) {
    if (w > 0) out << " ";
    out << worker_morsels[w];
  }
  out << "\n";
  if (shard_attempts > 0) {
    out << "  shards     " << shard_attempts << " attempts, "
        << shard_retries << " retries, " << shard_deadline_hits
        << " deadline hits, " << shards_lost << " lost";
    if (degraded) {
      out << "  DEGRADED (coverage " << effective_coverage << ")";
    }
    out << "\n";
  }
  if (segments_total > 0 || segments_faulted > 0) {
    out << "  store      " << segments_total << " segments, "
        << segments_skipped << " skipped, " << segments_faulted
        << " faulted, " << store_bytes_read << " bytes read\n";
  }
  if (cache_hits > 0 || cache_misses > 0 || cache_invalidations > 0) {
    out << "  view cache " << cache_hits << " hits, " << cache_misses
        << " misses, " << cache_invalidations << " invalidations\n";
  }
  return out.str();
}

int64_t ProcessMinorFaults() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<int64_t>(usage.ru_minflt);
}

bool ProfileEnvEnabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("GUS_PROFILE");
    return v != nullptr && v[0] != '\0' &&
           !(v[0] == '0' && v[1] == '\0');
  }();
  return enabled;
}

}  // namespace gus
