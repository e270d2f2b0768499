// Shard-state transports: how serialized estimator bundles travel from
// workers to the gather coordinator.
//
// Two implementations of one tiny contract:
//   * LocalTransport — an in-memory mailbox for single-binary runs (and
//     tests): scatter and gather share a process.
//   * FileTransport  — a socket-free multi-process fabric: each worker
//     writes its bundle as a length-prefixed, checksummed frame to
//     <dir>/shard-<k>.gusb, and the coordinator (a separate process,
//     possibly later in time) reads them back. The frame codec works over
//     any std::iostream, so the same bytes travel over a pipe unchanged.
//
// Frame layout (little-endian): "GUSF" | u64 payload_len | payload |
// u64 Checksum64(payload) (util/checksum.h). Truncation and corruption
// both fail loudly on read; nothing is ever silently skipped. Frames
// carry no version field: both ends must come from one build (the GUSB
// bundle inside a frame is versioned on its own).

#ifndef GUS_DIST_TRANSPORT_H_
#define GUS_DIST_TRANSPORT_H_

#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "util/status.h"

namespace gus {

/// \brief Writes one frame (see file comment for the layout).
///
/// Loops on short writes: stream-backed buffers (sockets, pipes) may
/// accept fewer bytes per sputn than offered, which a single-shot write
/// would silently truncate mid-frame.
Status WriteFrame(std::ostream* out, std::string_view payload);

/// \brief Reads and validates one frame; fails on bad magic, truncation,
/// or a checksum mismatch.
///
/// Loops on short reads (socket streambufs legitimately deliver partial
/// counts), so a frame fragmented across many TCP segments reassembles
/// exactly like one contiguous file read. With `clean_eof` set, a stream
/// that ends *between* frames (zero bytes before the magic — the peer
/// closed cleanly) reports `*clean_eof = true` alongside the Unavailable
/// status; a stream that dies *inside* a frame is mid-frame truncation
/// and leaves `*clean_eof = false`. Callers running a read loop over a
/// long-lived connection need that distinction: clean EOF ends the loop,
/// truncation is wire damage.
Result<std::string> ReadFrame(std::istream* in, bool* clean_eof = nullptr);

/// \brief Moves one opaque payload per shard from workers to the gatherer.
///
/// Implementations must allow Send and Receive from concurrent shard
/// loops (SuperviseShards runs one per shard; each touches only its own
/// shard index).
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  /// Stores shard `shard_index`'s serialized state (exactly once).
  virtual Status Send(int shard_index, std::string payload) = 0;

  /// Retrieves shard `shard_index`'s state; fails if it never arrived.
  virtual Result<std::string> Receive(int shard_index) = 0;
};

/// \brief In-memory mailbox (thread-safe) for single-process
/// scatter/gather.
///
/// Receive consumes: each shard's payload can be read exactly once (a
/// second Receive fails), mirroring the exactly-once Send contract and
/// keeping only one copy of the state in memory.
class LocalTransport final : public ShardTransport {
 public:
  Status Send(int shard_index, std::string payload) override;
  Result<std::string> Receive(int shard_index) override;

 private:
  std::mutex mu_;
  std::map<int, std::string> inbox_;
};

/// \brief File-based transport: one framed file per shard under `dir`
/// (created if missing).
///
/// Send and Receive may run in different processes; the directory is the
/// rendezvous. Re-sending a shard overwrites its file (workers may be
/// retried).
class FileTransport final : public ShardTransport {
 public:
  explicit FileTransport(std::string dir) : dir_(std::move(dir)) {}

  /// The frame file for one shard: <dir>/shard-<k>.gusb.
  std::string ShardPath(int shard_index) const;

  Status Send(int shard_index, std::string payload) override;
  Result<std::string> Receive(int shard_index) override;

 private:
  std::string dir_;
};

}  // namespace gus

#endif  // GUS_DIST_TRANSPORT_H_
