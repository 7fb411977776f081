#include "comm/membership.h"

#include <algorithm>
#include <thread>

#include "comm/fault.h"
#include "comm/tagspace.h"
#include "comm/world.h"
#include "util/check.h"

namespace cgx::comm {
namespace {

using Clock = std::chrono::steady_clock;

std::chrono::milliseconds remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return std::max(left, std::chrono::milliseconds{1});
}

// timeout <= 0 waits forever.
bool arrive(util::Barrier& gate, std::chrono::milliseconds timeout) {
  if (timeout.count() > 0) return gate.arrive_and_wait_for(timeout);
  gate.arrive_and_wait();
  return true;
}

}  // namespace

// ------------------------------------------------------------- Membership

Membership::Membership(int world_size, Kind kind)
    : world_size_(world_size),
      kind_(kind),
      status_(static_cast<std::size_t>(world_size), Status::kActive),
      failed_(static_cast<std::size_t>(world_size)),
      errors_(static_cast<std::size_t>(world_size)),
      departure_step_(static_cast<std::size_t>(world_size), kNoStep),
      rejoin_step_(static_cast<std::size_t>(world_size), kNoStep),
      step_gate_(static_cast<std::size_t>(world_size)),
      recovery_gate_(static_cast<std::size_t>(world_size)) {
  CGX_CHECK_GT(world_size, 0);
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> active(static_cast<std::size_t>(world_size));
  for (int r = 0; r < world_size; ++r) active[static_cast<std::size_t>(r)] = r;
  publish_locked(std::move(active));  // epoch 0: everyone present
}

const WorldView* Membership::publish_locked(std::vector<int> active) {
  auto fresh = std::make_unique<WorldView>();
  fresh->epoch = epoch_;
  fresh->active = std::move(active);
  fresh->dense_of.assign(static_cast<std::size_t>(world_size_), -1);
  for (std::size_t i = 0; i < fresh->active.size(); ++i) {
    fresh->dense_of[static_cast<std::size_t>(fresh->active[i])] =
        static_cast<int>(i);
  }
  CGX_CHECK(!fresh->active.empty());
  const WorldView* published = fresh.get();
  history_.push_back(std::move(fresh));
  current_.store(published, std::memory_order_release);
  return published;
}

void Membership::mark_rank_failed(int global_rank, std::exception_ptr error) {
  failed_[static_cast<std::size_t>(global_rank)].store(
      true, std::memory_order_release);
  if (error) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!errors_[static_cast<std::size_t>(global_rank)]) {
      errors_[static_cast<std::size_t>(global_rank)] = std::move(error);
    }
  }
}

bool Membership::has_pending_failures() const {
  const WorldView* v = view();
  for (int r : v->active) {
    if (is_failed(r)) return true;
  }
  return false;
}

std::vector<int> Membership::snapshot_survivors() const {
  const WorldView* v = view();
  std::vector<int> survivors;
  survivors.reserve(v->active.size());
  for (int r : v->active) {
    if (!is_failed(r)) survivors.push_back(r);
  }
  return survivors;
}

std::vector<std::uint64_t> Membership::dead_set() const {
  const WorldView* v = view();
  std::vector<std::uint64_t> words(
      (static_cast<std::size_t>(world_size_) + 63) / 64, 0);
  for (int r : v->active) {
    if (is_failed(r)) words[static_cast<std::size_t>(r) / 64] |=
        std::uint64_t{1} << (r % 64);
  }
  return words;
}

void Membership::schedule_departure(int global_rank, std::uint64_t step) {
  std::lock_guard<std::mutex> lock(mu_);
  CGX_CHECK(global_rank >= 0 && global_rank < world_size_);
  departure_step_[static_cast<std::size_t>(global_rank)] = step;
  has_schedules_.store(true, std::memory_order_release);
}

void Membership::schedule_rejoin(int global_rank, std::uint64_t step) {
  std::lock_guard<std::mutex> lock(mu_);
  CGX_CHECK(global_rank >= 0 && global_rank < world_size_);
  rejoin_step_[static_cast<std::size_t>(global_rank)] = step;
  has_schedules_.store(true, std::memory_order_release);
}

void Membership::import_departures(const FaultInjector& injector) {
  for (int r = 0; r < world_size_; ++r) {
    const std::uint64_t step = injector.departure_step(r);
    if (step != FaultInjector::kNoDeparture) schedule_departure(r, step);
  }
}

bool Membership::rejoin_scheduled(int global_rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejoin_step_[static_cast<std::size_t>(global_rank)] != kNoStep;
}

bool Membership::is_scheduled_joiner(int global_rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (rejoin_step_[static_cast<std::size_t>(global_rank)] == kNoStep) {
    return false;
  }
  // Only an incarnation spawned AFTER the rank left the world is a joiner;
  // the original thread (crash still ahead of it) trains normally.
  return failed_[static_cast<std::size_t>(global_rank)].load(
             std::memory_order_acquire) ||
         status_[static_cast<std::size_t>(global_rank)] != Status::kActive;
}

// --------------------------------------------------------- crash recovery

bool Membership::exchange_votes(Comm& comm, const std::vector<int>& survivors,
                                Clock::time_point deadline) {
  Transport& transport = comm.transport();
  const int me = comm.global_rank();
  // The epoch-stamped vote: word 0 is the epoch, the rest the dead-set
  // bitset (bit r set means "I have evidence rank r is gone"). The union
  // over all ballots is the agreed dead set.
  const std::vector<std::uint64_t> dead = dead_set();
  std::vector<std::uint64_t> mine(1 + dead.size());
  mine[0] = epoch();
  std::copy(dead.begin(), dead.end(), mine.begin() + 1);
  const auto mine_bytes = std::as_bytes(std::span<const std::uint64_t>(mine));
  for (int peer : survivors) {
    if (peer != me) transport.send(me, peer, mine_bytes, kMembershipTag);
  }
  std::vector<std::uint64_t> theirs(mine.size());
  for (int peer : survivors) {
    if (peer == me) continue;
    const auto theirs_bytes =
        std::as_writable_bytes(std::span<std::uint64_t>(theirs));
    for (;;) {
      if (is_failed(peer)) return false;  // died mid-round: re-snapshot
      try {
        transport.recv(me, peer, theirs_bytes, kMembershipTag);
        break;
      } catch (const TimeoutError&) {
        if (Clock::now() >= deadline) throw;
      }
    }
    CGX_CHECK_EQ(theirs[0], mine[0])
        << "membership ballot from a different epoch (stale frame leaked "
           "past the fence?)";
    // Union the peer's evidence into the oracle.
    for (int r = 0; r < world_size_; ++r) {
      const std::size_t r_u = static_cast<std::size_t>(r);
      if ((theirs[1 + r_u / 64] >> (r_u % 64)) & 1u) {
        if (!is_failed(r)) mark_rank_failed(r, nullptr);
      }
    }
  }
  // Agreement iff the round taught us nothing new.
  return dead_set() == dead;
}

void Membership::apply_crash_delta(std::uint64_t e0, Transport& transport,
                                   const ReshardFn& on_reshard) {
  std::vector<int> dead;
  const WorldView* fresh = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (epoch_ != e0) return;  // a concurrent round already applied it
    std::vector<int> active;
    for (int r = 0; r < world_size_; ++r) {
      const std::size_t i = static_cast<std::size_t>(r);
      if (status_[i] == Status::kActive &&
          failed_[i].load(std::memory_order_acquire)) {
        status_[i] = Status::kCrashed;
        dead.push_back(r);
      }
      if (status_[i] == Status::kActive) active.push_back(r);
    }
    CGX_CHECK(!dead.empty());
    ++epoch_;
    fresh = publish_locked(std::move(active));
  }
  // Fence first, then flush: traffic stamped with the old epoch that lands
  // after the reset is discarded at the ring layer instead of poisoning the
  // new world's streams.
  transport.set_epoch(fresh->epoch);
  for (int r = 0; r < world_size_; ++r) transport.reset_inbound(r);
  for (int d : dead) transport.health().quarantine_rank(d);
  reshards_.fetch_add(1, std::memory_order_acq_rel);
  if (on_reshard) on_reshard(*fresh);
}

Membership::Recovery Membership::recover(Comm& comm,
                                         std::chrono::milliseconds timeout,
                                         const ReshardFn& on_reshard) {
  // A fixed world has no crashes to classify: every failure is transient.
  if (!admits_departures()) return Recovery::kTransient;
  Transport& transport = comm.transport();
  const CommPolicy& pol = transport.policy();
  CGX_CHECK(pol.bounded())
      << "elastic recovery needs a bounded CommPolicy: votes addressed to a "
         "dead peer must be able to expire";
  const int me = comm.global_rank();
  const auto start = Clock::now();
  const auto deadline = start + timeout;

  // Classification grace. A real crash reaches the oracle from the dying
  // thread's unwind — microseconds after the fault, and always before a
  // survivor's policy-bounded wait expires — so a short grace suffices to
  // tell a crash from a transient wire fault.
  const auto grace = std::clamp(pol.timeout / 4, std::chrono::milliseconds{1},
                                std::chrono::milliseconds{25});
  const auto grace_deadline = start + grace;
  while (!has_pending_failures()) {
    if (Clock::now() >= grace_deadline) return Recovery::kTransient;
    std::this_thread::sleep_for(std::chrono::microseconds{200});
  }

  const std::uint64_t e0 = epoch();
  for (;;) {
    if (epoch() != e0) break;  // another participant's round completed
    if (Clock::now() >= deadline) {
      throw TimeoutError(-1, me, kMembershipTag, timeout,
                         "membership agreement");
    }
    std::vector<int> survivors = snapshot_survivors();
    CGX_CHECK(std::binary_search(survivors.begin(), survivors.end(), me))
        << "rank " << me << " entered recovery while marked dead";
    if (!exchange_votes(comm, survivors, deadline)) continue;

    // Gate 1: every survivor holds the same dead set. The party count is
    // shared gate state, so a waiter parked by an earlier (smaller) round
    // is released when the corrected population completes.
    recovery_gate_.set_parties(survivors.size());
    if (!recovery_gate_.arrive_and_wait_for(remaining_ms(deadline))) {
      if (snapshot_survivors() != survivors) continue;  // cascade: re-vote
      throw TimeoutError(-1, me, kMembershipTag, timeout,
                         "membership agreement gate");
    }
    if (me == survivors.front()) {
      apply_crash_delta(e0, transport, on_reshard);
    }
    // Gate 2: nobody resumes until the delta (fence, flush, rebuild) is
    // fully applied.
    recovery_gate_.set_parties(survivors.size());
    if (!recovery_gate_.arrive_and_wait_for(remaining_ms(deadline))) {
      throw TimeoutError(-1, me, kMembershipTag, timeout,
                         "membership commit gate");
    }
    break;
  }
  return Recovery::kReshard;
}

// ---------------------------------------------- planned departures/rejoins

Membership::StepAction Membership::apply_scheduled(
    Comm& comm, std::uint64_t step, const ReshardFn& on_reshard) {
  StepAction act;
  if (!has_schedules_.load(std::memory_order_acquire)) return act;
  const int me = comm.global_rank();
  const WorldView* v0 = view();  // consistent leader choice across ranks
  std::vector<int> departing;
  std::vector<int> joining;
  std::size_t expected = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int r : v0->active) {
      if (departure_step_[static_cast<std::size_t>(r)] == step) {
        departing.push_back(r);
      }
    }
    for (int r = 0; r < world_size_; ++r) {
      if (!v0->is_active(r) &&
          rejoin_step_[static_cast<std::size_t>(r)] == step) {
        joining.push_back(r);
      }
    }
    if (departing.empty() && joining.empty()) return act;
    admission_step_ = step;
    expected = v0->active.size() + joining.size();
    join_cv_.notify_all();
  }

  // Gate 1: all pre-delta actives AND the admitted joiners.
  recovery_gate_.set_parties(expected);
  CGX_CHECK(recovery_gate_.arrive_and_wait_for(admission_timeout_))
      << "rank " << me << ": scheduled membership delta at step " << step
      << " never assembled";
  if (me == v0->active.front()) {
    const WorldView* fresh = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (int d : departing) {
        status_[static_cast<std::size_t>(d)] = Status::kDeparted;
        departure_step_[static_cast<std::size_t>(d)] = kNoStep;
      }
      for (int j : joining) {
        status_[static_cast<std::size_t>(j)] = Status::kActive;
        failed_[static_cast<std::size_t>(j)].store(false,
                                                   std::memory_order_release);
        rejoin_step_[static_cast<std::size_t>(j)] = kNoStep;
        errors_[static_cast<std::size_t>(j)] = nullptr;
      }
      std::vector<int> active;
      for (int r = 0; r < world_size_; ++r) {
        if (status_[static_cast<std::size_t>(r)] == Status::kActive) {
          active.push_back(r);
        }
      }
      join_root_ = -1;
      for (int r : v0->active) {
        if (std::find(departing.begin(), departing.end(), r) ==
            departing.end()) {
          join_root_ = r;
          break;
        }
      }
      CGX_CHECK_GE(join_root_, 0) << "every survivor departed at once";
      resume_step_ = step;
      admission_step_ = kNoStep;
      ++epoch_;
      fresh = publish_locked(std::move(active));
    }
    Transport& transport = comm.transport();
    transport.set_epoch(fresh->epoch);
    for (int r = 0; r < world_size_; ++r) transport.reset_inbound(r);
    for (int d : departing) transport.health().quarantine_rank(d);
    for (int j : joining) transport.health().clear_quarantine(j);
    reshards_.fetch_add(1, std::memory_order_acq_rel);
    if (on_reshard) on_reshard(*fresh);
  }
  // Gate 2: same population; nobody (joiner included) proceeds until the
  // new view is fully installed.
  recovery_gate_.set_parties(expected);
  CGX_CHECK(recovery_gate_.arrive_and_wait_for(admission_timeout_))
      << "rank " << me << ": scheduled membership delta at step " << step
      << " never committed";
  act.changed = true;
  act.leave =
      std::find(departing.begin(), departing.end(), me) != departing.end();
  act.joined = joining.empty() ? -1 : joining.front();
  if (!joining.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    act.join_root = join_root_;
  }
  return act;
}

Membership::Admission Membership::await_rejoin(
    Comm& comm, std::chrono::milliseconds timeout) {
  const int me = comm.global_rank();
  std::size_t expected = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const bool opened = join_cv_.wait_for(lock, timeout, [&] {
      return admission_step_ != kNoStep &&
             admission_step_ == rejoin_step_[static_cast<std::size_t>(me)];
    });
    CGX_CHECK(opened) << "rank " << me
                      << ": rejoin admission window never opened";
    const WorldView* v = current_.load(std::memory_order_acquire);
    std::size_t joiners = 0;
    for (int r = 0; r < world_size_; ++r) {
      if (!v->is_active(r) &&
          rejoin_step_[static_cast<std::size_t>(r)] == admission_step_) {
        ++joiners;
      }
    }
    expected = v->active.size() + joiners;
  }
  recovery_gate_.set_parties(expected);
  CGX_CHECK(recovery_gate_.arrive_and_wait_for(admission_timeout_))
      << "rank " << me << ": admission gate 1 never assembled";
  // The delta leader (a survivor) installs the new view between the gates.
  recovery_gate_.set_parties(expected);
  CGX_CHECK(recovery_gate_.arrive_and_wait_for(admission_timeout_))
      << "rank " << me << ": admission gate 2 never committed";
  Admission adm;
  {
    std::lock_guard<std::mutex> lock(mu_);
    adm.resume_step = resume_step_;
    adm.root = join_root_;
  }
  CGX_CHECK(view()->is_active(me))
      << "rank " << me << " not active after admission";
  return adm;
}

// ------------------------------------------------------------------ gates

bool Membership::step_barrier(std::chrono::milliseconds timeout) {
  step_gate_.set_parties(static_cast<std::size_t>(active_count()));
  return arrive(step_gate_, timeout);
}

bool Membership::recovery_barrier(std::chrono::milliseconds timeout) {
  recovery_gate_.set_parties(static_cast<std::size_t>(active_count()));
  return arrive(recovery_gate_, timeout);
}

}  // namespace cgx::comm
