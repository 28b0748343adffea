#include "simmpi/cluster.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace lbe::mpi {

namespace {
constexpr std::size_t kNoMatch = std::numeric_limits<std::size_t>::max();
}  // namespace

// ------------------------------------------------------------- Cluster ----

Cluster::Cluster(ClusterOptions options) : options_(std::move(options)) {
  if (options_.ranks < 1) {
    throw CommError("cluster needs at least one rank");
  }
  if (!options_.slowdown.empty() &&
      options_.slowdown.size() != static_cast<std::size_t>(options_.ranks)) {
    throw CommError("slowdown vector must have one entry per rank");
  }
  for (const double f : options_.slowdown) {
    if (f <= 0.0) throw CommError("slowdown factors must be positive");
  }
  serialize_ = options_.engine == Engine::kVirtual;
  ranks_.resize(static_cast<std::size_t>(options_.ranks));
  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    ranks_[i].slowdown = options_.slowdown.empty() ? 1.0 : options_.slowdown[i];
  }
  reports_.resize(ranks_.size());
}

void Cluster::reset_clocks() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& rank : ranks_) {
    rank.vclock = 0.0;
    rank.report = RankReport{};
  }
}

double Cluster::makespan() const {
  double best = 0.0;
  for (const auto& report : reports_) best = std::max(best, report.vclock);
  return best;
}

double Cluster::now() const {
  if (options_.clock) return options_.clock();
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Cluster::meter_locked(int rank) {
  auto& r = ranks_[static_cast<std::size_t>(rank)];
  if (options_.measured_time && serialize_) {
    const double t = now();
    r.vclock += (t - r.slice_start) * r.slowdown;
    r.slice_start = t;
  }
}

void Cluster::resume_slice_locked(int rank) {
  ranks_[static_cast<std::size_t>(rank)].slice_start = now();
}

bool Cluster::matches_locked(const Envelope& env, int src, int tag) const {
  return (src == kAnySource || env.src == src) &&
         (tag == kAnyTag || env.tag == tag);
}

std::size_t Cluster::find_match_locked(int rank, int src, int tag) const {
  const auto& mailbox = ranks_[static_cast<std::size_t>(rank)].mailbox;
  std::size_t best = kNoMatch;
  for (std::size_t i = 0; i < mailbox.size(); ++i) {
    if (!matches_locked(mailbox[i], src, tag)) continue;
    if (best == kNoMatch ||
        mailbox[i].available_at < mailbox[best].available_at ||
        (mailbox[i].available_at == mailbox[best].available_at &&
         mailbox[i].seq < mailbox[best].seq)) {
      best = i;
    }
  }
  return best;
}

void Cluster::abort_locked(std::exception_ptr error) {
  if (!first_error_) first_error_ = error;
  aborting_ = true;
  cv_.notify_all();
}

void Cluster::check_deadlock_locked() {
  bool any_live = false;
  for (const auto& rank : ranks_) {
    if (rank.state == State::kRunning || rank.state == State::kReady) return;
    if (rank.state != State::kDone) any_live = true;
  }
  if (any_live && !aborting_) {
    abort_locked(std::make_exception_ptr(CommError(
        "deadlock: every live rank is blocked (lost message or mismatched "
        "collective)")));
  }
}

void Cluster::schedule_next_locked() {
  if (!serialize_) {
    check_deadlock_locked();
    return;
  }
  int best = -1;
  double best_clock = 0.0;
  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    if (ranks_[i].state != State::kReady) continue;
    if (best < 0 || ranks_[i].vclock < best_clock) {
      best = static_cast<int>(i);
      best_clock = ranks_[i].vclock;
    }
  }
  if (best >= 0) {
    ranks_[static_cast<std::size_t>(best)].state = State::kRunning;
    return;  // caller notifies
  }
  check_deadlock_locked();
}

void Cluster::rank_thread(int rank,
                          const std::function<void(Comm&)>& rank_main) {
  auto& r = ranks_[static_cast<std::size_t>(rank)];
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return aborting_ || r.state == State::kRunning; });
    if (aborting_) {
      r.state = State::kDone;
      schedule_next_locked();
      cv_.notify_all();
      return;
    }
    resume_slice_locked(rank);
  }

  std::exception_ptr error;
  try {
    RankComm comm(this, rank);
    rank_main(comm);
  } catch (...) {
    error = std::current_exception();
  }

  std::lock_guard<std::mutex> lock(mutex_);
  meter_locked(rank);
  if (error) {
    // A CommError thrown *because* of an abort is a symptom, not a cause;
    // abort_locked keeps only the first error either way.
    abort_locked(error);
  }
  r.state = State::kDone;
  schedule_next_locked();
  cv_.notify_all();
}

void Cluster::run(const std::function<void(Comm&)>& rank_main) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    aborting_ = false;
    first_error_ = nullptr;
    next_seq_ = 0;
    barrier_count_ = 0;
    barrier_max_vclock_ = 0.0;
    for (auto& rank : ranks_) {
      rank.state = serialize_ ? State::kReady : State::kRunning;
      rank.mailbox.clear();
      rank.want_src = kAnySource;
      rank.want_tag = kAnyTag;
      rank.slice_start = now();
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(ranks_.size());
  for (int i = 0; i < options_.ranks; ++i) {
    threads.emplace_back([this, i, &rank_main] { rank_thread(i, rank_main); });
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (serialize_) schedule_next_locked();
    cv_.notify_all();
  }
  for (auto& thread : threads) thread.join();

  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    ranks_[i].report.vclock = ranks_[i].vclock;
    reports_[i] = ranks_[i].report;
  }
  if (first_error_) std::rethrow_exception(first_error_);
}

// --------------------------------------------------- RankComm backends ----

void Cluster::do_send(int rank, int dest, int tag, Bytes payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& sender = ranks_[static_cast<std::size_t>(rank)];
  meter_locked(rank);
  if (dest < 0 || dest >= options_.ranks) {
    throw CommError("send to invalid rank " + std::to_string(dest));
  }

  Envelope env;
  env.src = rank;
  env.dest = dest;
  env.tag = tag;
  env.payload = std::move(payload);
  env.seq = next_seq_++;

  const std::size_t bytes = env.payload.size();
  double cost = options_.cost.transfer(bytes);
  if (options_.faults.delay) cost += options_.faults.delay(env);
  sender.vclock += cost;
  env.available_at = sender.vclock;
  sender.report.messages_sent++;
  sender.report.bytes_sent += bytes;

  const bool dropped = options_.faults.drop && options_.faults.drop(env);
  if (!dropped) {
    auto& receiver = ranks_[static_cast<std::size_t>(dest)];
    const bool wakes = receiver.state == State::kBlocked &&
                       matches_locked(env, receiver.want_src,
                                      receiver.want_tag);
    receiver.mailbox.push_back(std::move(env));
    // Mark the receiver runnable in both engines: the virtual scheduler
    // needs kReady to pick it, and the threads-engine deadlock check must
    // not see a stale kBlocked on a rank whose message just arrived.
    if (wakes) receiver.state = State::kReady;
    cv_.notify_all();
  }
  resume_slice_locked(rank);
}

Bytes Cluster::do_recv(int rank, int src, int tag, RecvInfo* info) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto& r = ranks_[static_cast<std::size_t>(rank)];
  meter_locked(rank);
  if (src != kAnySource && (src < 0 || src >= options_.ranks)) {
    throw CommError("recv from invalid rank " + std::to_string(src));
  }

  std::size_t idx;
  while ((idx = find_match_locked(rank, src, tag)) == kNoMatch) {
    r.want_src = src;
    r.want_tag = tag;
    r.state = State::kBlocked;
    schedule_next_locked();
    cv_.notify_all();
    cv_.wait(lock, [&] {
      if (aborting_) return true;
      if (serialize_) return r.state == State::kRunning;
      return find_match_locked(rank, src, tag) != kNoMatch;
    });
    if (aborting_) {
      throw CommError("cluster aborted while rank " + std::to_string(rank) +
                      " was in recv()");
    }
    if (!serialize_) r.state = State::kRunning;
  }

  auto it = r.mailbox.begin() + static_cast<std::ptrdiff_t>(idx);
  Envelope env = std::move(*it);
  r.mailbox.erase(it);
  r.vclock = std::max(r.vclock, env.available_at);
  r.report.messages_received++;
  if (info) {
    info->src = env.src;
    info->tag = env.tag;
  }
  resume_slice_locked(rank);
  return std::move(env.payload);
}

bool Cluster::do_probe(int rank, int src, int tag) {
  std::lock_guard<std::mutex> lock(mutex_);
  meter_locked(rank);
  const std::size_t idx = find_match_locked(rank, src, tag);
  bool found = idx != kNoMatch;
  // Virtual engine: a message has not *arrived* until the prober's own
  // clock reaches its availability time. Threads physically interleave out
  // of virtual order here (a behind-in-vtime rank runs just as often as a
  // fast one), so without this gate a probe could observe traffic from its
  // virtual future — e.g. the steal ledger would see every rank's progress
  // in lockstep and never a backlog. find_match_locked returns the
  // earliest-available match, so one check covers them all. Blocking recv
  // stays ungated: it models waiting, and advances the clock to the
  // message's availability instead.
  if (found && serialize_) {
    const auto& r = ranks_[static_cast<std::size_t>(rank)];
    found = r.mailbox[idx].available_at <= r.vclock;
  }
  resume_slice_locked(rank);
  return found;
}

void Cluster::do_barrier(int rank) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto& r = ranks_[static_cast<std::size_t>(rank)];
  meter_locked(rank);

  const std::uint64_t generation = barrier_generation_;
  ++barrier_count_;
  barrier_max_vclock_ = std::max(barrier_max_vclock_, r.vclock);

  if (barrier_count_ == options_.ranks) {
    // Last arrival: everyone leaves at the same virtual instant.
    const double release =
        barrier_max_vclock_ + options_.cost.barrier(options_.ranks);
    for (auto& other : ranks_) {
      if (other.state == State::kInBarrier) {
        other.vclock = release;
        other.state = serialize_ ? State::kReady : State::kRunning;
      }
    }
    r.vclock = release;
    barrier_count_ = 0;
    barrier_max_vclock_ = 0.0;
    ++barrier_generation_;
    cv_.notify_all();
  } else {
    r.state = State::kInBarrier;
    schedule_next_locked();
    cv_.notify_all();
    cv_.wait(lock, [&] { return aborting_ || barrier_generation_ != generation; });
    if (aborting_) {
      throw CommError("cluster aborted while rank " + std::to_string(rank) +
                      " was in barrier()");
    }
    if (serialize_) {
      cv_.wait(lock, [&] { return aborting_ || r.state == State::kRunning; });
      if (aborting_) {
        throw CommError("cluster aborted while rank " + std::to_string(rank) +
                        " was leaving barrier()");
      }
    }
  }
  resume_slice_locked(rank);
}

double Cluster::do_vclock(int rank) {
  std::lock_guard<std::mutex> lock(mutex_);
  meter_locked(rank);
  resume_slice_locked(rank);
  return ranks_[static_cast<std::size_t>(rank)].vclock;
}

void Cluster::do_yield(int rank) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!serialize_) return;
  auto& r = ranks_[static_cast<std::size_t>(rank)];
  meter_locked(rank);
  // Re-enter the scheduler as an ordinary ready rank: whoever is furthest
  // behind in virtual time (possibly this rank again) runs next.
  r.state = State::kReady;
  schedule_next_locked();
  cv_.notify_all();
  cv_.wait(lock, [&] { return aborting_ || r.state == State::kRunning; });
  if (aborting_) {
    throw CommError("cluster aborted while rank " + std::to_string(rank) +
                    " was in yield()");
  }
  resume_slice_locked(rank);
}

void Cluster::do_charge(int rank, double seconds) {
  if (seconds < 0.0) throw CommError("cannot charge negative time");
  std::lock_guard<std::mutex> lock(mutex_);
  meter_locked(rank);
  ranks_[static_cast<std::size_t>(rank)].vclock += seconds;
  resume_slice_locked(rank);
}

}  // namespace lbe::mpi
