// The worker daemon (`gusd`): a long-lived shard worker behind a socket.
//
// The one-shot scatter (dist/coordinator.h) pays the catalog load and
// fingerprinting on every query; a daemon pays it once. Start() snapshots
// the catalog's columns and fingerprints the relations of every
// registered query, then serves shard requests over persistent framed
// connections (serve/protocol.h) until stopped.
//
// Concurrency model: one reader thread per connection. Exec requests go
// to a bounded set of request workers started on demand, the most
// recently idle first; with all busy they wait in a bounded FIFO, and
// past that are refused at once with a retryable Unavailable. A worker
// replies under the connection's write lock, so responses interleave in
// completion order and one slow shard never blocks another session while
// a worker is free (the session header sorts the answers out). A reply
// the peer does not take within kReplySendTimeoutMs closes its
// connection, so a peer that stops reading holds no thread for longer.
// An ended connection is joined by the next accept or the next one to end.
//
// Fault participation (the PR 8 model): every exec request passes the
// "serve.execute" fault site — GUS_FAULT plans can fail, delay, or kill
// it mid-request, and Stop() doubles as the in-process stand-in for a
// daemon kill (connections die abruptly; clients see mid-frame EOF or
// refused reconnects, exactly the retry layer's diet). Divergence
// protection is the same as one-shot workers: a request carrying an
// expected catalog fingerprint is refused before execution if the
// daemon's loaded data disagrees.

#ifndef GUS_SERVE_DAEMON_H_
#define GUS_SERVE_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "algebra/gus_params.h"
#include "est/sbox.h"
#include "plan/columnar_executor.h"
#include "plan/executor.h"
#include "plan/plan_node.h"
#include "rel/expression.h"
#include "serve/protocol.h"
#include "serve/socket.h"
#include "util/status.h"

namespace gus {

/// One registered servable query: the sampled plan plus its estimation
/// inputs (what RunShardSbox needs besides the shard geometry).
struct ServedQuery {
  PlanPtr plan;
  ExprPtr f_expr;
  GusParams gus;
  SboxOptions sbox;
};

/// \brief Fingerprint of a query *definition*: plan shape, aggregate,
/// GUS design, and estimator options.
///
/// Stable across processes (built from the canonical plan/expression
/// renderings and the wire encodings), so a coordinator can key its view
/// cache on it. Deliberately excludes the catalog (content travels in
/// PlanCatalogFingerprint) and the seed (a cache-key axis of its own).
uint64_t ServedQueryFingerprint(const ServedQuery& query);

/// \brief A long-lived worker daemon serving registered queries.
class WorkerDaemon {
 public:
  /// The daemon holds a copy of the base catalog (a real deployment loads
  /// it from storage once; tests hand it over directly). The copy shares
  /// the relations' columns: it copies no column data.
  explicit WorkerDaemon(Catalog catalog);

  /// \brief Out-of-core form: the daemon serves straight from an external
  /// columnar catalog (typically a SegmentCatalog over a `.gseg`
  /// directory) instead of an in-memory row catalog.
  ///
  /// Segment-backed scans stream through the pinned-segment cache on
  /// demand, so the daemon's resident set is the cache budget, not the
  /// data size. Results are bit-identical to the in-memory form (the
  /// fingerprints come from the same ContentFingerprint chain).
  explicit WorkerDaemon(std::unique_ptr<ColumnarCatalog> columnar);
  ~WorkerDaemon();

  WorkerDaemon(const WorkerDaemon&) = delete;
  WorkerDaemon& operator=(const WorkerDaemon&) = delete;

  /// Registers `name` before Start (not thread-safe against serving).
  Status RegisterQuery(const std::string& name, ServedQuery query);

  /// \brief Loads the columnar catalog and fingerprints it for every
  /// registered query, binds `listen`, and starts serving; returns the
  /// resolved endpoint ("tcp:0" becomes the real port).
  ///
  /// Restartable: Stop() then Start() again rebinds (the reconnect test
  /// choreography — a killed daemon coming back on its address).
  Result<Endpoint> Start(const Endpoint& listen);

  /// \brief Stops serving: closes the listener and every live
  /// connection (clients see EOF mid-whatever), drops queued requests,
  /// joins all threads. Idempotent.
  void Stop();

  /// Exec requests that ran to a response (cache tests pin this to prove
  /// a cache hit executed nothing).
  int64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  /// Request workers started and not yet joined (<= MaxRequestWorkers()).
  int request_workers() const {
    std::lock_guard<std::mutex> lock(work_mu_);
    return static_cast<int>(workers_.size());
  }
  /// Request workers waiting for a request.
  int idle_request_workers() const {
    std::lock_guard<std::mutex> lock(work_mu_);
    return static_cast<int>(idle_.size());
  }
  /// Connections held: live ones plus at most the last one to end.
  int connections() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(connections_.size());
  }

  /// One request worker per hardware thread, at least four.
  static int MaxRequestWorkers();
  /// Requests that may wait in the FIFO, per worker, when all are busy.
  static constexpr size_t kQueuedPerWorker = 32;
  /// How long one send of a reply may wait for the peer to read (the
  /// accepted sockets' SO_SNDTIMEO); past it the connection closes.
  static constexpr int kReplySendTimeoutMs = 2000;

  const Endpoint& endpoint() const { return endpoint_; }

 private:
  struct LiveConnection {
    std::unique_ptr<SocketConnection> socket;
    std::mutex write_mu;
    bool finished = false;  // guarded by mu_; the reader is about to exit
    std::thread reader;
    /// Sends one response frame under the write lock; closes the
    /// connection if the frame cannot be written.
    void Reply(ServeHeader header, ServeMsg type, std::string_view body);
  };

  struct ExecJob {
    ServeHeader header;
    std::string body;
    std::shared_ptr<LiveConnection> conn;  // where the response goes
  };

  struct RequestWorker {
    std::condition_variable cv;
    std::optional<ExecJob> job;  // its own hand-off slot; under work_mu_
    std::thread thread;
  };

  void AcceptLoop(SocketListener* listener);
  void ConnectionLoop(const std::shared_ptr<LiveConnection>& conn);
  /// Joins and drops every ended connection (mu_ held).
  void ReapConnections();
  /// Hands `job` to the most recently idle worker, a new one, or the
  /// FIFO; Unavailable when the FIFO is full or no thread could start.
  Status Dispatch(ExecJob job);
  void WorkerLoop(RequestWorker* self);
  /// Handles one exec request end-to-end; returns the response body
  /// (bundle bytes) or the error to send back.
  Result<std::string> HandleExec(std::string_view body);
  Result<std::string> HandlePlanInfo(std::string_view body);

  Catalog catalog_;
  std::unique_ptr<ColumnarCatalog> columnar_;
  /// True when columnar_ was handed in at construction (segment-backed):
  /// Start() must not rebuild it from catalog_.
  bool external_columnar_ = false;
  std::map<std::string, ServedQuery> queries_;
  std::map<std::string, ServePlanInfo> plan_infos_;

  mutable std::mutex mu_;  // guards listener_, connections_, accept_thread_
  std::unique_ptr<SocketListener> listener_;
  std::thread accept_thread_;
  std::vector<std::shared_ptr<LiveConnection>> connections_;
  mutable std::mutex work_mu_;  // guards workers_, idle_, queued_
  std::vector<std::unique_ptr<RequestWorker>> workers_;
  std::vector<RequestWorker*> idle_;  // back() went idle most recently
  std::deque<ExecJob> queued_;
  Endpoint endpoint_;
  std::atomic<bool> stopping_{false};
  std::atomic<int64_t> requests_served_{0};
};

}  // namespace gus

#endif  // GUS_SERVE_DAEMON_H_
