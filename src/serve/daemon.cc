#include "serve/daemon.h"

#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <optional>
#include <system_error>
#include <utility>

#include "dist/coordinator.h"
#include "dist/shard.h"
#include "dist/worker.h"
#include "est/wire.h"
#include "plan/soa_transform.h"
#include "stream/admission.h"
#include "util/fault_inject.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace gus {

uint64_t ServedQueryFingerprint(const ServedQuery& query) {
  WireWriter w;
  w.PutString(query.plan->ToString());
  w.PutString(query.f_expr->ToString());
  EncodeGusParams(query.gus, &w);
  w.PutDouble(query.sbox.confidence_level);
  w.PutU8(static_cast<uint8_t>(query.sbox.bound_kind));
  w.PutU8(query.sbox.subsample.has_value() ? 1 : 0);
  if (query.sbox.subsample.has_value()) {
    w.PutI64(query.sbox.subsample->target_rows);
    w.PutU64(query.sbox.subsample->seed);
  }
  return HashBytes(kFnv1aOffset, w.buffer().data(), w.buffer().size());
}

int WorkerDaemon::MaxRequestWorkers() {
  // At least four, so a few slow shards never hold a small host's daemon.
  static const int bound = std::max(4, ThreadPool::HardwareThreads());
  return bound;
}

void WorkerDaemon::LiveConnection::Reply(ServeHeader header, ServeMsg type,
                                         std::string_view body) {
  header.type = type;
  std::lock_guard<std::mutex> lock(write_mu);
  // A failed write means the connection died or the peer stopped reading
  // (the send timed out). Either way the frame is torn, so the stream is
  // unusable: closing it ends the reader and fails later replies at once.
  if (!socket->SendFrame(EncodeServeMessage(header, body)).ok()) {
    socket->Close();
  }
}

WorkerDaemon::WorkerDaemon(Catalog catalog) : catalog_(std::move(catalog)) {}

WorkerDaemon::WorkerDaemon(std::unique_ptr<ColumnarCatalog> columnar)
    : columnar_(std::move(columnar)), external_columnar_(true) {}

WorkerDaemon::~WorkerDaemon() { Stop(); }

Status WorkerDaemon::RegisterQuery(const std::string& name,
                                   ServedQuery query) {
  if (listener_ != nullptr) {
    return Status::InvalidArgument(
        "RegisterQuery must run before Start (Start fingerprints "
        "registered queries)");
  }
  if (query.plan == nullptr || query.f_expr == nullptr) {
    return Status::InvalidArgument("ServedQuery needs a plan and an f_expr");
  }
  if (!queries_.emplace(name, std::move(query)).second) {
    return Status::InvalidArgument("query '" + name + "' already registered");
  }
  return Status::OK();
}

Result<Endpoint> WorkerDaemon::Start(const Endpoint& listen) {
  std::lock_guard<std::mutex> lock(mu_);
  if (listener_ != nullptr) {
    return Status::InvalidArgument("daemon already serving on " +
                                   endpoint_.ToString());
  }
  stopping_.store(false, std::memory_order_release);
  // Load once, serve many: the whole point of the daemon. The content
  // fingerprints and shard split geometry for every registered query are
  // computed here, serially, so request workers afterwards share them
  // read-only.
  if (!external_columnar_) {
    columnar_ = std::make_unique<ColumnarCatalog>(&catalog_);
  }
  plan_infos_.clear();
  for (const auto& [name, query] : queries_) {
    ServePlanInfo info;
    GUS_ASSIGN_OR_RETURN(
        info.catalog_fingerprint,
        PlanCatalogFingerprint(query.plan, columnar_.get()));
    GUS_ASSIGN_OR_RETURN(
        ShardPlan sp,
        PlanShards(query.plan, columnar_.get(), ExecMode::kSampled,
                   ShardedExecOptions(ExecOptions{}), 1));
    info.partitionable = sp.split.partitionable;
    info.pivot_relation =
        sp.split.partitionable ? sp.split.pivot_relation : std::string();
    info.query_fingerprint = ServedQueryFingerprint(query);
    plan_infos_[name] = info;
  }
  GUS_ASSIGN_OR_RETURN(listener_, SocketListener::Listen(listen));
  endpoint_ = listener_->endpoint();
  // The accept thread holds the raw listener pointer: Stop() keeps the
  // object alive until after the join, so the pointer never dangles and
  // the thread never touches the (mutex-guarded) member.
  SocketListener* listener = listener_.get();
  accept_thread_ = std::thread([this, listener] { AcceptLoop(listener); });
  return endpoint_;
}

void WorkerDaemon::Stop() {
  stopping_.store(true, std::memory_order_release);
  std::unique_lock<std::mutex> lock(mu_);
  if (listener_ != nullptr) listener_->Close();
  // Closing sockets wakes every blocked reader; abrupt from the peer's
  // point of view — in-flight requests surface as mid-frame EOF, which is
  // exactly what a killed daemon looks like to the retry layer.
  for (auto& conn : connections_) {
    if (conn->socket != nullptr) conn->socket->Close();
  }
  std::thread accept = std::move(accept_thread_);
  std::vector<std::shared_ptr<LiveConnection>> conns =
      std::move(connections_);
  connections_.clear();
  // The listener object must outlive the accept thread (it may be blocked
  // inside Accept() on it); destroy it only after the join.
  std::unique_ptr<SocketListener> listener = std::move(listener_);
  lock.unlock();
  if (accept.joinable()) accept.join();
  for (auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  // No reader is left to dispatch: drop what waits; each worker exits
  // once its request, if any, ends.
  std::vector<std::unique_ptr<RequestWorker>> workers;
  {
    std::lock_guard<std::mutex> work(work_mu_);
    queued_.clear();
    workers.swap(workers_);
  }
  for (auto& worker : workers) worker->cv.notify_one();
  for (auto& worker : workers) worker->thread.join();
  idle_.clear();  // every thread that could touch it is joined
}

void WorkerDaemon::ReapConnections() {
  std::erase_if(connections_, [](const std::shared_ptr<LiveConnection>& c) {
    if (!c->finished) return false;
    c->reader.join();
    return true;
  });
}

void WorkerDaemon::AcceptLoop(SocketListener* listener) {
  for (;;) {
    Result<std::unique_ptr<SocketConnection>> accepted = listener->Accept();
    if (!accepted.ok()) return;  // Close() ended the loop
    auto conn = std::make_shared<LiveConnection>();
    conn->socket = std::move(accepted).ValueOrDie();
    const timeval send_timeout{kReplySendTimeoutMs / 1000,
                               (kReplySendTimeoutMs % 1000) * 1000};
    ::setsockopt(conn->socket->fd(), SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof(send_timeout));
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      conn->socket->Close();
      return;
    }
    ReapConnections();
    try {
      conn->reader = std::thread([this, conn] { ConnectionLoop(conn); });
    } catch (const std::system_error&) {
      continue;  // refuse this peer (its socket closes here), serve the rest
    }
    connections_.push_back(std::move(conn));
  }
}

void WorkerDaemon::ConnectionLoop(const std::shared_ptr<LiveConnection>& conn) {
  for (;;) {
    bool clean_eof = false;
    Result<std::string> frame = conn->socket->RecvFrame(&clean_eof);
    if (!frame.ok()) break;  // clean close and wire damage both end it
    Result<std::pair<ServeHeader, std::string_view>> decoded =
        DecodeServeMessage(frame.ValueOrDie());
    if (!decoded.ok()) {
      conn->Reply(ServeHeader{}, ServeMsg::kError,
                  StatusToBytes(decoded.status()));
      continue;
    }
    const auto& [header, body] = decoded.ValueOrDie();
    switch (header.type) {
      case ServeMsg::kExecRequest: {
        const Status taken = Dispatch(ExecJob{header, std::string(body), conn});
        if (!taken.ok()) {
          conn->Reply(header, ServeMsg::kError, StatusToBytes(taken));
        }
        break;
      }
      case ServeMsg::kPlanInfoRequest: {
        Result<std::string> info = HandlePlanInfo(body);
        if (info.ok()) {
          conn->Reply(header, ServeMsg::kPlanInfoResponse, info.ValueOrDie());
        } else {
          conn->Reply(header, ServeMsg::kError, StatusToBytes(info.status()));
        }
        break;
      }
      default:
        conn->Reply(header, ServeMsg::kError,
                    StatusToBytes(Status::InvalidArgument(
                        "daemon cannot handle this message type")));
        break;
    }
  }
  conn->socket->Close();
  std::lock_guard<std::mutex> lock(mu_);
  ReapConnections();  // the ones that ended before this one
  conn->finished = true;
}

Status WorkerDaemon::Dispatch(ExecJob job) {
  std::unique_lock<std::mutex> lock(work_mu_);
  if (!idle_.empty()) {
    RequestWorker* worker = idle_.back();
    idle_.pop_back();
    worker->job = std::move(job);
    lock.unlock();
    worker->cv.notify_one();
  } else if (workers_.size() < static_cast<size_t>(MaxRequestWorkers())) {
    auto worker = std::make_unique<RequestWorker>();
    worker->job = std::move(job);
    try {
      worker->thread =
          std::thread(&WorkerDaemon::WorkerLoop, this, worker.get());
    } catch (const std::system_error& e) {
      return Status::Unavailable(
          std::string("daemon cannot start a request worker: ") + e.what());
    }
    workers_.push_back(std::move(worker));
  } else if (queued_.size() < kQueuedPerWorker * workers_.size()) {
    queued_.push_back(std::move(job));
  } else {
    return Status::Unavailable(
        "daemon overloaded: every request worker is busy, the queue is full");
  }
  return Status::OK();
}

void WorkerDaemon::WorkerLoop(RequestWorker* self) {
  for (;;) {
    std::unique_lock<std::mutex> lock(work_mu_);
    self->cv.wait(lock, [&] {
      return self->job.has_value() ||
             stopping_.load(std::memory_order_acquire);
    });
    if (!self->job.has_value()) return;
    ExecJob job = std::move(*self->job);
    self->job.reset();
    lock.unlock();
    Result<std::string> bundle = HandleExec(job.body);
    lock.lock();
    // Take the next request, or go idle before the reply leaves: a
    // client's next request then finds this worker instead of starting
    // another (it waits at most for this send to finish).
    if (!queued_.empty()) {
      self->job = std::move(queued_.front());
      queued_.pop_front();
    } else {
      idle_.push_back(self);
    }
    lock.unlock();
    if (bundle.ok()) {
      job.conn->Reply(job.header, ServeMsg::kExecResponse, *bundle);
    } else {
      job.conn->Reply(job.header, ServeMsg::kError,
                      StatusToBytes(bundle.status()));
    }
  }
}

Result<std::string> WorkerDaemon::HandleExec(std::string_view body) {
  GUS_ASSIGN_OR_RETURN(const ExecShardRequest req,
                       ExecShardRequestFromBytes(body));
  // The PR 8 fault site: GUS_FAULT="serve.execute[@shard]=..." can fail,
  // delay, or kill a daemon mid-request.
  GUS_RETURN_NOT_OK(
      FaultInjector::Global()->Hit("serve.execute", req.shard_index));
  auto it = queries_.find(req.query);
  if (it == queries_.end()) {
    return Status::InvalidArgument("query '" + req.query +
                                   "' is not registered with this daemon");
  }
  const ServedQuery& query = it->second;
  if (req.num_shards < 1 || req.shard_index < 0 ||
      req.shard_index >= req.num_shards) {
    return Status::InvalidArgument(
        "bad shard geometry: shard " + std::to_string(req.shard_index) +
        " of " + std::to_string(req.num_shards));
  }
  ExecOptions exec;
  exec.engine = ExecEngine::kSharded;
  exec.num_threads = req.num_threads < 1 ? 1 : req.num_threads;
  exec.morsel_rows = req.morsel_rows;
  exec.num_shards = req.num_shards;
  const ExecOptions normalized = ShardedExecOptions(exec);

  PlanPtr plan = query.plan;
  GusParams gus = query.gus;
  if (req.admission_scale != 1.0) {
    if (!(req.admission_scale > 0.0 && req.admission_scale <= 1.0)) {
      return Status::InvalidArgument("admission scale must be in (0, 1]");
    }
    // Shed by design, not by dropping: shrink the sampling rates and
    // re-derive the top GUS so the estimate stays honest (stream/admission).
    GUS_ASSIGN_OR_RETURN(plan,
                         ScalePlanSamplingRates(plan, req.admission_scale));
    GUS_ASSIGN_OR_RETURN(SoaResult soa, SoaTransform(plan));
    gus = soa.top;
  }
  std::optional<uint64_t> expected;
  if (req.expected_catalog_fingerprint != 0) {
    expected = req.expected_catalog_fingerprint;
  }
  GUS_ASSIGN_OR_RETURN(
      std::string bundle,
      RunShardSbox(plan, columnar_.get(), req.seed, ExecMode::kSampled,
                   normalized, req.shard_index, req.num_shards, query.f_expr,
                   gus, query.sbox, expected));
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  return bundle;
}

Result<std::string> WorkerDaemon::HandlePlanInfo(std::string_view body) {
  WireReader r(body);
  std::string name;
  GUS_RETURN_NOT_OK(r.ReadString(&name));
  GUS_RETURN_NOT_OK(r.ExpectEnd());
  auto it = plan_infos_.find(name);
  if (it == plan_infos_.end()) {
    return Status::InvalidArgument("query '" + name +
                                   "' is not registered with this daemon");
  }
  return ServePlanInfoToBytes(it->second);
}

}  // namespace gus
