// Simulated distributed-memory cluster (the MPI substitution) — the two
// in-process implementations of the mpi::Transport abstraction.
//
// `Cluster::run(fn)` executes `fn(Comm&)` once per rank, SPMD style. Ranks
// have private address spaces by construction: the only way data crosses is
// `Bytes` payloads through Comm, exactly like MPI buffers.
//
// Two engines:
//
//  * kVirtual (default) — ranks execute one at a time (token-serialized),
//    each on its own OS thread. While a rank holds the token, wall time is
//    metered and charged to its *virtual clock* (scaled by a per-rank
//    slowdown factor for heterogeneous-cluster studies). Sends charge the
//    α–β cost model to the sender and stamp the message with its
//    availability time; receives advance the receiver clock to
//    max(own, available). A phase's simulated wall-clock is therefore
//    max over ranks of virtual time — the quantity the paper's Tavg/ΔTmax
//    metrics are built from — and it is independent of how many physical
//    cores the host has (this reproduction runs on one).
//
//  * kThreads — all ranks run concurrently on real threads with blocking
//    mailboxes; used by tests to validate the messaging semantics under
//    true concurrency. Virtual clocks advance only via explicit charge()
//    and the cost model.
//
// (The third Transport implementation — real OS processes over Unix-domain
// sockets — lives in simmpi/process.hpp.)
//
// With `measured_time = false`, metering is disabled and clocks move only
// through `Comm::charge`, making simulations bit-deterministic for tests.
//
// The scheduler always picks the ready rank with the smallest virtual
// clock (ties: lowest rank id). If every live rank is blocked, the cluster
// is deadlocked and every blocked call throws CommError — which is also
// how the message-drop fault injection used in tests manifests.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "simmpi/bytes.hpp"
#include "simmpi/cost_model.hpp"
#include "simmpi/transport.hpp"

namespace lbe::mpi {

enum class Engine { kVirtual, kThreads };

struct Envelope {
  int src = 0;
  int dest = 0;
  int tag = 0;
  Bytes payload;
  double available_at = 0.0;  ///< receiver may consume from this vtime
  std::uint64_t seq = 0;      ///< global send order (deterministic ties)
};

/// Test-only fault hooks; both may be empty.
struct FaultInjection {
  std::function<bool(const Envelope&)> drop;       ///< true => vanish
  std::function<double(const Envelope&)> delay;    ///< extra latency (s)
};

struct ClusterOptions {
  int ranks = 4;
  Engine engine = Engine::kVirtual;
  CostModel cost;
  /// Per-rank slowdown factors (virtual engine); empty = homogeneous 1.0.
  /// 2.0 means this rank's CPU work costs twice the virtual time.
  std::vector<double> slowdown;
  /// Meter real wall time of compute sections into virtual clocks.
  bool measured_time = true;
  /// Time source of that metering, in seconds; empty = the monotonic
  /// steady clock. Tests inject a fake clock to make metered time exact.
  std::function<double()> clock;
  FaultInjection faults;
};

class Cluster final : public Transport {
 public:
  explicit Cluster(ClusterOptions options);

  /// Runs one SPMD program; rethrows the first rank exception (other ranks
  /// are aborted). May be called repeatedly; clocks carry over between
  /// calls (use reset_clocks() in between if undesired).
  void run(const std::function<void(Comm&)>& rank_main) override;

  const ClusterOptions& options() const noexcept { return options_; }

  int ranks() const noexcept override { return options_.ranks; }
  const std::vector<RankReport>& reports() const noexcept override {
    return reports_;
  }

  /// Max final virtual clock over ranks — the simulated wall time.
  double makespan() const override;

  void reset_clocks();

 private:
  /// The per-rank Comm handed to rank_main: every operation delegates to
  /// the cluster's scheduler under its lock.
  class RankComm final : public Comm {
   public:
    RankComm(Cluster* cluster, int rank) : Comm(rank), cluster_(cluster) {}

    int size() const noexcept override { return cluster_->options_.ranks; }
    bool probe(int src, int tag) override {
      return cluster_->do_probe(rank(), src, tag);
    }
    void barrier() override { cluster_->do_barrier(rank()); }
    double vclock() override { return cluster_->do_vclock(rank()); }
    void charge(double seconds) override {
      cluster_->do_charge(rank(), seconds);
    }
    void yield() override { cluster_->do_yield(rank()); }

   protected:
    void send_any(int dest, int tag, Bytes payload) override {
      cluster_->do_send(rank(), dest, tag, std::move(payload));
    }
    Bytes recv_any(int src, int tag, RecvInfo* info) override {
      return cluster_->do_recv(rank(), src, tag, info);
    }

   private:
    Cluster* cluster_;
  };

  enum class State : std::uint8_t {
    kReady,    ///< runnable, waiting for the token (virtual engine)
    kRunning,  ///< executing user code
    kBlocked,  ///< inside recv() with no matching message
    kInBarrier,
    kDone,
  };

  struct Rank {
    State state = State::kReady;
    double vclock = 0.0;
    double slowdown = 1.0;
    std::deque<Envelope> mailbox;
    int want_src = kAnySource;  ///< valid while kBlocked
    int want_tag = kAnyTag;
    RankReport report;
    double slice_start = 0.0;  ///< now() when the current slice began
  };

  /// Seconds on options_.clock (or the steady clock).
  double now() const;

  // All private methods below require mutex_ held.
  void meter_locked(int rank);
  void resume_slice_locked(int rank);
  void schedule_next_locked();
  bool matches_locked(const Envelope& env, int src, int tag) const;
  std::size_t find_match_locked(int rank, int src, int tag) const;
  void check_deadlock_locked();
  void abort_locked(std::exception_ptr error);

  void rank_thread(int rank, const std::function<void(Comm&)>& rank_main);

  // RankComm backends. Tag validation happens in Comm::send, so `tag` may
  // legitimately be negative here (internal collective traffic).
  void do_send(int rank, int dest, int tag, Bytes payload);
  Bytes do_recv(int rank, int src, int tag, RecvInfo* info);
  bool do_probe(int rank, int src, int tag);
  void do_barrier(int rank);
  double do_vclock(int rank);
  void do_charge(int rank, double seconds);
  void do_yield(int rank);

  ClusterOptions options_;
  std::vector<RankReport> reports_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Rank> ranks_;
  bool serialize_ = true;  ///< virtual engine: one Running rank at a time
  std::uint64_t next_seq_ = 0;
  int barrier_count_ = 0;
  std::uint64_t barrier_generation_ = 0;
  double barrier_max_vclock_ = 0.0;
  std::exception_ptr first_error_;
  bool aborting_ = false;
};

}  // namespace lbe::mpi
