#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace lbe::serve {

Server::Server(ServerConfig config,
               std::shared_ptr<const ServingContext> context)
    : config_(std::move(config)), service_(std::move(context)) {
  LBE_CHECK(!config_.socket_path.empty(), "serve needs a socket path");
  LBE_CHECK(config_.queue_depth >= 1, "queue_depth must be >= 1");
  LBE_CHECK(config_.workers >= 1, "workers must be >= 1");
}

Server::~Server() { stop(); }

void Server::start() {
  LBE_CHECK(!running_.load(), "server already started");
  listener_ = listen_unix(config_.socket_path);
  running_.store(true);
  paused_.store(config_.start_paused);
  accept_thread_ = std::thread([this] { accept_loop(); });
  for (std::uint32_t w = 0; w < config_.workers; ++w) {
    worker_threads_.emplace_back([this] { worker_loop(); });
  }
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  paused_.store(false);
  queue_cv_.notify_all();
  // The accept thread re-checks running_ at least every 100 ms (its poll
  // timeout), so join it before closing the listener it reads; shutting
  // connection fds down then unblocks handler threads stuck in read().
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.reset();
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& conn : connections_) {
      ::shutdown(conn->fd.get(), SHUT_RDWR);
    }
  }
  for (auto& thread : connection_threads_) {
    if (thread.joinable()) thread.join();
  }
  connection_threads_.clear();
  for (auto& thread : worker_threads_) {
    if (thread.joinable()) thread.join();
  }
  worker_threads_.clear();
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.clear();
  }
  ::unlink(config_.socket_path.c_str());
}

void Server::hot_swap(std::shared_ptr<const ServingContext> context) {
  service_.replace(std::move(context));
  reloads_.fetch_add(1, std::memory_order_relaxed);
}

void Server::resume_workers() {
  paused_.store(false);
  queue_cv_.notify_all();
}

StatsBody Server::stats() const {
  StatsBody body;
  body.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  body.batches_served = batches_served_.load(std::memory_order_relaxed);
  body.queries_served = queries_served_.load(std::memory_order_relaxed);
  body.batches_rejected = batches_rejected_.load(std::memory_order_relaxed);
  body.malformed_frames = malformed_frames_.load(std::memory_order_relaxed);
  body.reloads = reloads_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    body.queue_length = queue_.size();
  }
  const auto context = service_.snapshot();
  body.ranks = static_cast<std::uint32_t>(context->warm->ranks());
  body.queue_depth = config_.queue_depth;
  body.workers = config_.workers;
  return body;
}

void Server::accept_loop() {
  while (running_.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = listener_.get();
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (!running_.load(std::memory_order_relaxed)) break;
    if (ready <= 0) continue;
    if (pfd.revents & (POLLERR | POLLNVAL)) break;
    Fd fd = accept_connection(listener_);
    if (!fd.valid()) continue;
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>(std::move(fd));
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.push_back(conn);
    connection_threads_.emplace_back(
        [this, conn] { handle_connection(conn); });
  }
}

void Server::send_frame_locked(Connection& conn, MsgType type,
                               const mpi::Bytes& payload) {
  std::lock_guard<std::mutex> lock(conn.write_mutex);
  write_frame(conn.fd.get(), type, payload);
}

void Server::send_error(Connection& conn, Status status,
                        std::uint32_t request_id, const std::string& message) {
  ErrorBody body;
  body.status = status;
  body.request_id = request_id;
  body.message = message;
  send_frame_locked(conn, MsgType::kError, encode_error(body));
}

bool Server::try_enqueue(Job job) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (queue_.size() >= config_.queue_depth) return false;
    queue_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
  return true;
}

void Server::handle_connection(std::shared_ptr<Connection> conn) {
  serve_connection(conn);
  // Half-close so the peer sees EOF now, then drop the server's reference;
  // the fd itself closes once the last in-flight worker holding this
  // connection finishes (its reply fails with IoError and is swallowed).
  ::shutdown(conn->fd.get(), SHUT_RDWR);
  std::lock_guard<std::mutex> lock(connections_mutex_);
  connections_.erase(
      std::remove(connections_.begin(), connections_.end(), conn),
      connections_.end());
}

void Server::serve_connection(const std::shared_ptr<Connection>& conn) {
  while (running_.load(std::memory_order_relaxed)) {
    Frame frame;
    try {
      if (!read_frame(conn->fd.get(), frame, config_.max_frame_bytes)) {
        return;  // clean disconnect between frames
      }
    } catch (const FrameTooLargeError& error) {
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      try {
        send_error(*conn, Status::kTooLarge, 0, error.what());
      } catch (const IoError&) {
      }
      return;  // unread payload bytes poison the stream; drop the peer
    } catch (const CommError& error) {
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      try {
        send_error(*conn, Status::kMalformed, 0, error.what());
      } catch (const IoError&) {
      }
      return;
    } catch (const IoError&) {
      return;  // peer vanished mid-frame
    }

    try {
      switch (frame.type) {
        case MsgType::kPing: {
          const auto snapshot = service_.snapshot();
          PongInfo info;
          info.ranks = static_cast<std::uint32_t>(snapshot->warm->ranks());
          info.top_k = snapshot->top_k();
          info.queue_depth = config_.queue_depth;
          info.max_frame_bytes = config_.max_frame_bytes;
          // The warm bundle carries the fingerprint of the database it was
          // built from (validated at load), so no recompute per ping.
          info.database_crc = snapshot->warm->database_crc;
          send_frame_locked(*conn, MsgType::kPong, encode_pong(info));
          break;
        }
        case MsgType::kStatsRequest: {
          send_frame_locked(*conn, MsgType::kStatsResponse,
                            encode_stats(stats()));
          break;
        }
        case MsgType::kShutdownRequest: {
          shutdown_requested_.store(true, std::memory_order_relaxed);
          send_frame_locked(*conn, MsgType::kShutdownResponse, {});
          break;
        }
        case MsgType::kSearchRequest: {
          SearchRequest request;
          try {
            request = decode_search_request(frame.payload);
          } catch (const CommError& error) {
            malformed_frames_.fetch_add(1, std::memory_order_relaxed);
            send_error(*conn, Status::kMalformed, 0, error.what());
            return;  // decoder state is unknown; drop the peer
          }
          const std::uint32_t start_id = request.start_id;
          if (!try_enqueue(Job{conn, std::move(request)})) {
            batches_rejected_.fetch_add(1, std::memory_order_relaxed);
            send_error(*conn, Status::kQueueFull, start_id,
                       "request queue is full; retry");
          }
          break;
        }
        default:
          // A response type arriving at the server is a peer bug.
          malformed_frames_.fetch_add(1, std::memory_order_relaxed);
          send_error(*conn, Status::kMalformed, 0,
                     "unexpected message type for a server");
          return;
      }
    } catch (const IoError&) {
      return;  // reply failed: peer gone
    }
  }
}

void Server::worker_loop() {
  // One pool per worker, shared across that worker's batches, so
  // threads_per_batch > 1 does not re-spawn threads per request.
  std::unique_ptr<ThreadPool> pool;
  if (config_.threads_per_batch > 1) {
    pool = std::make_unique<ThreadPool>(config_.threads_per_batch);
  }
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return !running_.load(std::memory_order_relaxed) ||
               (!paused_.load(std::memory_order_relaxed) && !queue_.empty());
      });
      if (!running_.load(std::memory_order_relaxed)) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      const SearchResponse response = service_.search_batch(
          job.request.spectra, job.request.start_id, pool.get());
      send_frame_locked(*job.conn, MsgType::kSearchResponse,
                        encode_search_response(response));
      batches_served_.fetch_add(1, std::memory_order_relaxed);
      queries_served_.fetch_add(job.request.spectra.size(),
                                std::memory_order_relaxed);
    } catch (const IoError&) {
      // Peer disconnected before the response; the batch was still served.
    } catch (const Error& error) {
      try {
        send_error(*job.conn, Status::kInternal, job.request.start_id,
                   error.what());
      } catch (const IoError&) {
      }
    }
  }
}

}  // namespace lbe::serve
