// server.h - The pastri_serve daemon core: a long-running TCP service
// exposing compressed block stores to concurrent clients over the
// frame protocol in protocol.h, plus a plaintext HTTP `GET /metrics`
// Prometheus endpoint on the same port.
//
// Threading model:
//   * one accept thread pushes connections into a bounded queue;
//   * a fixed pool of workers each serve one connection at a time,
//     frame by frame (connection-per-worker keeps request handling
//     allocation-light and makes per-connection state -- PUT sessions
//     -- trivially single-writer);
//   * admission control sheds load instead of queueing it unboundedly:
//     a full accept queue answers PASTRI_ERR_BUSY and closes, as do
//     store registry overflow and per-connection PUT session caps.
//
// Stores are registered server-wide and deduplicated by (kind, name):
// every client reading the same container shares one BlockStore and
// therefore one mutex-striped cache (core/sharded_cache.h) -- warm hits
// from different workers contend only on their key's shard, and cold
// misses decode outside any lock.  GET_RANGE batches into the
// block-parallel BlockReader range decoder.
//
// PUT sessions stream values into a StreamWriter through a bounded
// chunk queue drained by a per-session encoder thread; the PUT_CHUNK
// response is withheld while the queue is full, which backpressures the
// client through TCP instead of buffering unboundedly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/sharded_cache.h"

namespace pastri::serve {

struct ServerConfig {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port
  /// (retrieve it with port() after start()).
  std::uint16_t port = 0;
  std::size_t num_workers = 4;
  /// Accepted connections waiting for a worker beyond this are answered
  /// PASTRI_ERR_BUSY and closed.
  std::size_t accept_queue_depth = 16;
  /// Server-wide cap on distinct open stores.
  std::size_t max_open_stores = 32;
  /// Per-connection cap on concurrent PUT sessions.
  std::size_t max_put_sessions = 4;
  /// Bounded depth (in chunks) of each PUT session's encode queue.
  std::size_t put_queue_depth = 8;
  /// Cache geometry for stores opened without an explicit config.
  CacheConfig default_cache{1024, 8};
};

class Server {
 public:
  explicit Server(const ServerConfig& config = {});
  ~Server();  ///< calls stop()
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and spawn the accept thread + worker pool.  Throws
  /// std::runtime_error when the socket cannot be bound.
  void start();

  /// The bound port (valid after start()).
  std::uint16_t port() const;

  /// Stop accepting, finish in-flight frames, join all threads, drop
  /// all stores.  Idempotent; also run by the destructor.
  void stop();

  const ServerConfig& config() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pastri::serve
