#include "serve/session.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "dist/shard.h"
#include "est/streaming.h"
#include "est/wire.h"

namespace gus {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

// ---- DaemonChannel ---------------------------------------------------------

DaemonChannel::DaemonChannel(Endpoint endpoint)
    : endpoint_(std::move(endpoint)) {}

DaemonChannel::~DaemonChannel() { Shutdown(); }

Result<std::shared_ptr<DaemonChannel::ConnState>>
DaemonChannel::EnsureConnected() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  if (shutdown_) {
    return Status::Unavailable("channel to " + endpoint_.ToString() +
                               " is shut down");
  }
  if (current_ != nullptr) {
    std::unique_lock<std::mutex> state(current_->mu);
    if (!current_->dead) return current_;
    state.unlock();
    // KillConn shut its socket: its reader has exited or is on its way out.
    current_->reader.join();
    reader_threads_.fetch_sub(1, std::memory_order_relaxed);
    current_.reset();
  }
  GUS_ASSIGN_OR_RETURN(std::unique_ptr<SocketConnection> socket,
                       SocketConnection::Connect(endpoint_));
  auto conn = std::make_shared<ConnState>();
  conn->socket = std::shared_ptr<SocketConnection>(std::move(socket));
  // The reader captures only the generation it serves (never `this`), so
  // a channel being torn down has no live references from reader threads
  // beyond the joins EnsureConnected and Shutdown perform.
  conn->reader = std::thread([conn] {
    std::shared_ptr<SocketConnection> socket = conn->socket;
    for (;;) {
      Result<std::string> frame = socket->RecvFrame();
      if (!frame.ok()) {
        KillConn(conn, Status::Unavailable(
                           "connection to daemon lost: " +
                           frame.status().message()));
        return;
      }
      Result<std::pair<ServeHeader, std::string_view>> decoded =
          DecodeServeMessage(frame.ValueOrDie());
      if (!decoded.ok()) {
        // A frame that parses but doesn't decode means the stream is
        // unsynchronized or the peer is not a gusd; nothing later on this
        // connection can be trusted.
        KillConn(conn, Status::Unavailable("protocol violation from daemon: " +
                                           decoded.status().message()));
        return;
      }
      const ServeHeader& header = decoded.ValueOrDie().first;
      std::shared_ptr<Pending> pending;
      {
        std::lock_guard<std::mutex> state(conn->mu);
        auto it = conn->pending.find(header.request_id);
        if (it != conn->pending.end()) {
          pending = it->second;
          conn->pending.erase(it);
        }
      }
      // No slot: the call timed out and left — drop the late response.
      if (pending == nullptr) continue;
      {
        std::lock_guard<std::mutex> done(pending->mu);
        pending->type = header.type;
        pending->body.assign(decoded.ValueOrDie().second);
        pending->done = true;
      }
      pending->cv.notify_all();
    }
  });
  reader_threads_.fetch_add(1, std::memory_order_relaxed);
  current_ = conn;
  return conn;
}

void DaemonChannel::KillConn(const std::shared_ptr<ConnState>& conn,
                             const Status& why) {
  std::map<uint64_t, std::shared_ptr<Pending>> orphaned;
  {
    std::lock_guard<std::mutex> state(conn->mu);
    if (conn->dead) return;
    conn->dead = true;
    orphaned.swap(conn->pending);
  }
  conn->socket->Close();
  for (auto& [id, pending] : orphaned) {
    {
      std::lock_guard<std::mutex> done(pending->mu);
      pending->error = why;
      pending->done = true;
    }
    pending->cv.notify_all();
  }
}

Result<std::string> DaemonChannel::Call(ServeMsg request_type,
                                        uint64_t session_id,
                                        std::string_view body,
                                        ServeMsg expected_response,
                                        int64_t deadline_ms) {
  GUS_ASSIGN_OR_RETURN(std::shared_ptr<ConnState> conn, EnsureConnected());
  const uint64_t request_id =
      next_request_.fetch_add(1, std::memory_order_relaxed);
  auto pending = std::make_shared<Pending>();
  {
    std::lock_guard<std::mutex> state(conn->mu);
    if (conn->dead) {
      return Status::Unavailable("connection to daemon lost before send");
    }
    conn->pending.emplace(request_id, pending);
  }
  ServeHeader header;
  header.type = request_type;
  header.session_id = session_id;
  header.request_id = request_id;
  {
    std::lock_guard<std::mutex> write(conn->write_mu);
    const Status sent = conn->socket->SendFrame(EncodeServeMessage(header, body));
    if (!sent.ok()) {
      KillConn(conn, Status::Unavailable("send to daemon failed: " +
                                         sent.message()));
      return Status::Unavailable("send to daemon failed: " + sent.message());
    }
  }
  std::unique_lock<std::mutex> wait(pending->mu);
  if (deadline_ms > 0) {
    if (!pending->cv.wait_for(wait, std::chrono::milliseconds(deadline_ms),
                              [&] { return pending->done; })) {
      // Timed out: withdraw the slot so a late response is dropped, but
      // re-check — the reader may have filled it in the gap.
      wait.unlock();
      {
        std::lock_guard<std::mutex> state(conn->mu);
        conn->pending.erase(request_id);
      }
      wait.lock();
      if (!pending->done) {
        return Status::DeadlineExceeded(
            "daemon did not answer within " + std::to_string(deadline_ms) +
            " ms");
      }
    }
  } else {
    pending->cv.wait(wait, [&] { return pending->done; });
  }
  GUS_RETURN_NOT_OK(pending->error);
  if (pending->type == ServeMsg::kError) {
    // The daemon-side Status, code intact (retryable vs fatal survives).
    return StatusFromBytes(pending->body);
  }
  if (pending->type != expected_response) {
    return Status::Internal(
        "daemon answered with message type " +
        std::to_string(static_cast<uint32_t>(pending->type)) +
        " where type " +
        std::to_string(static_cast<uint32_t>(expected_response)) +
        " was expected");
  }
  return std::move(pending->body);
}

void DaemonChannel::Shutdown() {
  std::shared_ptr<ConnState> conn;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    shutdown_ = true;
    conn.swap(current_);
  }
  if (conn == nullptr) return;
  KillConn(conn, Status::Unavailable("channel shut down"));
  conn->reader.join();
  reader_threads_.fetch_sub(1, std::memory_order_relaxed);
}

// ---- SessionCoordinator ----------------------------------------------------

SessionCoordinator::SessionCoordinator(const std::vector<Endpoint>& fleet,
                                       AdmissionController* admission)
    : admission_(admission) {
  channels_.reserve(fleet.size());
  for (const Endpoint& ep : fleet) {
    channels_.push_back(std::make_unique<DaemonChannel>(ep));
  }
}

SessionCoordinator::~SessionCoordinator() { Shutdown(); }

void SessionCoordinator::Shutdown() {
  for (auto& channel : channels_) channel->Shutdown();
}

Result<ServePlanInfo> SessionCoordinator::ResolvePlanInfo(
    const std::string& query_name, uint64_t session_id,
    const ShardRetryPolicy& retry) {
  {
    std::lock_guard<std::mutex> lock(info_mu_);
    auto it = plan_infos_.find(query_name);
    if (it != plan_infos_.end()) return it->second;
  }
  WireWriter w;
  w.PutString(query_name);
  const std::string body = w.buffer();
  // Any daemon in the fleet can answer (they serve the same registry):
  // one supervised attempt sweeps the fleet, and the sweep is retried
  // under the usual backoff.
  const std::vector<ShardOutcome> answer = SuperviseShards(
      1, retry, [&](int) -> Result<std::string> {
        Result<std::string> last = Status::Unavailable("empty fleet");
        for (auto& channel : channels_) {
          last = channel->Call(ServeMsg::kPlanInfoRequest, session_id, body,
                               ServeMsg::kPlanInfoResponse,
                               retry.deadline_ms);
          if (last.ok() || !IsRetryableShardFailure(last.status())) break;
        }
        return last;
      });
  GUS_RETURN_NOT_OK(answer[0].status);
  GUS_ASSIGN_OR_RETURN(ServePlanInfo info,
                       ServePlanInfoFromBytes(answer[0].bundle));
  std::lock_guard<std::mutex> lock(info_mu_);
  plan_infos_[query_name] = info;
  return info;
}

Result<ServedResult> SessionCoordinator::Execute(const std::string& query_name,
                                                 const ServedRequest& req) {
  if (channels_.empty()) {
    return Status::InvalidArgument("the coordinator has an empty fleet");
  }
  if (req.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  const uint64_t session_id =
      next_session_.fetch_add(1, std::memory_order_relaxed);
  if (req.stats != nullptr) req.stats->Reset();

  double scale = req.admission_scale;
  if (admission_ != nullptr) {
    std::lock_guard<std::mutex> lock(admission_mu_);
    scale = admission_->scale();
  }
  if (!(scale > 0.0 && scale <= 1.0)) {
    return Status::InvalidArgument("admission scale must be in (0, 1]");
  }

  GUS_ASSIGN_OR_RETURN(ServePlanInfo info,
                       ResolvePlanInfo(query_name, session_id, req.retry));

  // Both sides of the wire normalize an unset morsel geometry through
  // ShardedExecOptions — the cache key must use the same resolved value
  // the daemons execute at, or 0 and the default would alias two keys.
  ExecOptions geometry;
  geometry.num_threads = req.num_threads < 1 ? 1 : req.num_threads;
  geometry.morsel_rows = req.morsel_rows;
  const int64_t morsel_rows = ShardedExecOptions(geometry).morsel_rows;

  ViewCache* cache = nullptr;
  ViewCacheKey key;
  if (req.use_cache) {
    cache = req.cache != nullptr ? req.cache : ProcessViewCache();
    key.query_fingerprint = info.query_fingerprint;
    key.catalog_fingerprint = info.catalog_fingerprint;
    key.seed = req.seed;
    key.morsel_rows = morsel_rows;
    key.scale_bits = DoubleBits(scale);
    std::optional<std::string> bundle = cache->Lookup(key);
    if (bundle.has_value()) {
      if (req.stats != nullptr) ++req.stats->cache_hits;
      // A poisoned entry must fail here, loudly (checksum/parse), never
      // fall through to execution as if nothing happened.
      GUS_ASSIGN_OR_RETURN(std::vector<WireSectionView> sections,
                           ParseWireBundle(*bundle));
      GUS_ASSIGN_OR_RETURN(WireSectionView sbox,
                           FindWireSection(sections, WireTag::kSboxState));
      GUS_ASSIGN_OR_RETURN(
          StreamingSboxEstimator merged,
          StreamingSboxEstimator::DeserializeState(sbox.payload));
      ServedResult out;
      GUS_ASSIGN_OR_RETURN(out.report, merged.Finish());
      out.cache_hit = true;
      out.session_id = session_id;
      out.admission_scale = scale;
      return out;
    }
    if (req.stats != nullptr) ++req.stats->cache_misses;
  }

  // Scatter: shard k goes to channel k % M under the shared shard
  // supervisor (reconnecting channels make a restarted daemon transparent
  // to its retry loop).
  ExecShardRequest base;
  base.query = query_name;
  base.seed = req.seed;
  base.num_shards = req.num_shards;
  base.morsel_rows = req.morsel_rows;
  base.num_threads = req.num_threads < 1 ? 1 : req.num_threads;
  base.admission_scale = scale;
  base.expected_catalog_fingerprint = info.catalog_fingerprint;
  const std::vector<ShardOutcome> outcomes =
      SuperviseShards(req.num_shards, req.retry, [&](int k) {
        ExecShardRequest shard_req = base;
        shard_req.shard_index = k;
        return channels_[static_cast<size_t>(k) % channels_.size()]->Call(
            ServeMsg::kExecRequest, session_id,
            ExecShardRequestToBytes(shard_req), ServeMsg::kExecResponse,
            req.retry.deadline_ms);
      });
  GUS_ASSIGN_OR_RETURN(
      FaultTolerantResult folded,
      FinishShardGather(outcomes, info.pivot_relation, req.allow_partial,
                        /*capture_merged_state=*/req.use_cache, req.stats));

  ServedResult out;
  out.report = folded.report;
  out.degraded = folded.degraded;
  out.degradation = folded.degradation;
  out.live = folded.live;
  out.session_id = session_id;
  out.admission_scale = scale;
  if (!folded.merged_sbox_state.empty()) {
    WireBundleWriter bundle;
    bundle.AddSection(WireTag::kSboxState,
                      std::move(folded.merged_sbox_state));
    cache->Insert(key, bundle.Finish());
  }
  if (admission_ != nullptr) {
    // Report the *offered* load: rows this design would have admitted at
    // scale 1.0 (stream/admission.h).
    std::lock_guard<std::mutex> lock(admission_mu_);
    admission_->ObserveQuery(static_cast<int64_t>(
        std::llround(static_cast<double>(out.report.sample_rows) / scale)));
  }
  return out;
}

}  // namespace gus
