// World membership: survivor agreement, epoch-fenced world re-shard, and
// rejoin (DESIGN.md §5h).
//
// Every run_world runs its ranks over one Membership, shared by all device
// threads. An ELASTIC membership is the caller's (WorldOptions): a rank
// that dies with a FaultInjectedError is a survivable departure. A FIXED
// membership is the one run_world makes itself when the caller passes none:
// it admits no departures, so every failure it sees is transient and a
// crash stays a WorkerError. Both run the same gates and the same recovery
// ladder. A Membership owns three pieces of state:
//
//   * The failure ORACLE: `mark_rank_failed` is called from a dying worker
//     thread's unwind (run_world's FaultInjectedError handler), so by the
//     time any survivor's deadline-bounded wait expires the oracle already
//     knows whether the stall was a crash or a transient wire fault.
//   * The WORLD VIEW: an immutable, epoch-stamped WorldView behind an
//     atomic pointer. Views are retained forever (history_), so a reader
//     may hold a view pointer across a whole collective.
//   * Two GATES — util::Barriers whose party count every participant
//     re-derives from the current view right before arriving. The step
//     gate serves Comm::barrier/try_barrier (the engine's per-round commit
//     fence); the recovery gate serves everything recovery-shaped (vote
//     agreement, delta commit, admission, transient quiesce). Keeping the
//     two populations on separate gates means a rank parked at the step
//     fence can never be released by a recovery round, and vice versa.
//
// Protocol sketch for a crash (see Membership::recover):
//   1. A survivor's collective op throws TimeoutError; the engine calls
//      reshard_world -> recover. A short grace wait classifies the failure
//      against the oracle (no pending failure -> kTransient). A fixed world
//      skips the grace: it has no crashes to wait for.
//   2. Survivors exchange epoch-stamped Ballots over their live links on
//      kMembershipTag and union each other's dead sets; a round that learns
//      of a new death re-snapshots and re-votes. A ballot carries the dead
//      set as a bitset sized to the launch world: 16 bytes up to 64 ranks.
//   3. All survivors collect on the recovery gate; the lowest surviving
//      rank applies the delta exactly once: statuses flip, the epoch bumps,
//      a new WorldView is published, the transport's frame epoch is bumped
//      (stale traffic is fenced at the ring layer), every rank's inbound
//      channels are reset, dead links are quarantined in HealthMonitor, and
//      the caller's reshard callback rebuilds collective plans.
//   4. A second gate pass releases the survivors into the retried step.
//
// Planned departures and rejoins ride `apply_scheduled` at step boundaries:
// the same two-gate dance, except the joining rank takes part in both gates
// (admitted via `await_rejoin`) and the caller broadcasts parameters from
// the lowest pre-join survivor afterwards.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "comm/transport.h"
#include "util/barrier.h"

namespace cgx::comm {

class Comm;
class FaultInjector;

// One immutable epoch of world membership. Published by Membership behind an
// atomic pointer and never mutated afterwards, so readers may hold the
// pointer across an entire collective without locking. `active` lists the
// surviving GLOBAL (launch-time) ranks in ascending order; dense rank i is
// by definition active[i], which keeps survivor renumbering deterministic.
struct WorldView {
  std::uint64_t epoch = 0;
  std::vector<int> active;    // sorted global ranks
  std::vector<int> dense_of;  // global rank -> dense rank, -1 when inactive

  int active_count() const { return static_cast<int>(active.size()); }
  bool is_active(int global) const {
    return dense_of[static_cast<std::size_t>(global)] >= 0;
  }
  int dense_rank(int global) const {
    return dense_of[static_cast<std::size_t>(global)];
  }
  int global_rank(int dense) const {
    return active[static_cast<std::size_t>(dense)];
  }
};

class Membership {
 public:
  static constexpr std::uint64_t kNoStep = ~std::uint64_t{0};

  enum class Kind { kElastic, kFixed };
  explicit Membership(int world_size, Kind kind = Kind::kElastic);
  Membership(const Membership&) = delete;
  Membership& operator=(const Membership&) = delete;

  int world_size() const { return world_size_; }
  // Whether a rank may leave this world and the rest carry on: true for an
  // elastic membership, false for a fixed one (a crash ends the run).
  bool admits_departures() const { return kind_ == Kind::kElastic; }
  std::uint64_t epoch() const { return view()->epoch; }
  // The current view. Never null; immutable once published.
  const WorldView* view() const {
    return current_.load(std::memory_order_acquire);
  }
  int active_count() const { return view()->active_count(); }
  int lowest_active() const { return view()->active.front(); }
  std::uint64_t reshard_count() const {
    return reshards_.load(std::memory_order_acquire);
  }

  // ---- failure oracle (lock-free readers) ----
  // Called from a dying worker's unwind, before any successor spawns.
  void mark_rank_failed(int global_rank, std::exception_ptr error);
  bool is_failed(int global_rank) const {
    return failed_[static_cast<std::size_t>(global_rank)].load(
        std::memory_order_acquire);
  }
  // A failure is "pending" until a re-shard retires it from the view.
  bool has_pending_failures() const;

  // ---- schedules (set up before run_world; cleared as they apply) ----
  void schedule_departure(int global_rank, std::uint64_t step);
  void schedule_rejoin(int global_rank, std::uint64_t step);
  // Pulls planned departures out of a FaultInjector's schedule table.
  void import_departures(const FaultInjector& injector);
  bool rejoin_scheduled(int global_rank) const;
  // True for a successor thread that exists only to be readmitted: its rank
  // has a rejoin scheduled AND has already failed/departed. The original
  // (pre-crash) incarnation of the rank never matches.
  bool is_scheduled_joiner(int global_rank) const;

  // Rebuilds engine/collective plans for a freshly published view. Runs on
  // exactly one thread (the delta leader) while every other participant is
  // parked at the recovery gate — it may mutate shared engine state.
  using ReshardFn = std::function<void(const WorldView&)>;

  // ---- crash recovery ----
  enum class Recovery { kTransient, kReshard };
  // Entered by a survivor whose collective op failed. Classifies the
  // failure, runs survivor agreement, and (leader only) applies the
  // membership delta. Throws TimeoutError when agreement cannot be reached
  // before `timeout`; the engine's round retry re-enters. A crash needs a
  // bounded CommPolicy — votes to a dead peer must be able to expire. On a
  // fixed world every failure is kTransient.
  Recovery recover(Comm& comm, std::chrono::milliseconds timeout,
                   const ReshardFn& on_reshard);

  // ---- planned departures / rejoins (step boundaries) ----
  struct StepAction {
    bool changed = false;  // a membership delta applied at this step
    bool leave = false;    // this rank departed (it still took both gates)
    int joined = -1;       // first admitted global rank, -1 if none
    int join_root = -1;    // lowest pre-join survivor: parameter bcast root
  };
  // Called by every active rank at the top of each step. No scheduled event
  // at `step` is a cheap no-op returning a default StepAction.
  StepAction apply_scheduled(Comm& comm, std::uint64_t step,
                             const ReshardFn& on_reshard);

  struct Admission {
    std::uint64_t resume_step = kNoStep;
    int root = -1;  // global rank holding authoritative parameters
  };
  // Blocks a readmission candidate until the survivors open its admission
  // window, then takes part in the two-gate delta. On return the caller is
  // active in the new view and must receive parameters by broadcast from
  // `root` before resuming at `resume_step`.
  Admission await_rejoin(Comm& comm, std::chrono::milliseconds timeout);

  // ---- barriers over the current survivor set ----
  // timeout <= 0 waits forever (and returns true).
  // Step fence: what Comm::barrier/try_barrier route to.
  bool step_barrier(std::chrono::milliseconds timeout);
  // Recovery-population barrier: the engine's transient-fault quiesce uses
  // this so it can never collide with ranks parked at the step fence.
  bool recovery_barrier(std::chrono::milliseconds timeout);

 private:
  enum class Status : std::uint8_t { kActive, kCrashed, kDeparted };

  // Requires mu_. Assigns the (pre-bumped) epoch_, retains the view in
  // history_, publishes it.
  const WorldView* publish_locked(std::vector<int> active);
  std::vector<int> snapshot_survivors() const;  // active && !failed, sorted
  // Pending failures as a bitset: one u64 word per 64 launch ranks.
  std::vector<std::uint64_t> dead_set() const;
  // One all-to-all ballot round over `survivors`. Returns false when the
  // round learned of a new death (caller re-snapshots and re-votes).
  bool exchange_votes(Comm& comm, const std::vector<int>& survivors,
                      std::chrono::steady_clock::time_point deadline);
  // Leader-only: retire pending failures, bump the epoch, publish, fence,
  // flush, quarantine, rebuild. Idempotent via the e0 guard.
  void apply_crash_delta(std::uint64_t e0, Transport& transport,
                         const ReshardFn& on_reshard);

  const int world_size_;
  const Kind kind_;
  mutable std::mutex mu_;
  std::condition_variable join_cv_;
  std::vector<Status> status_;                   // guarded by mu_
  std::vector<std::atomic<bool>> failed_;        // oracle; lock-free
  std::vector<std::exception_ptr> errors_;       // guarded by mu_
  std::vector<std::uint64_t> departure_step_;    // guarded by mu_
  std::vector<std::uint64_t> rejoin_step_;       // guarded by mu_
  std::atomic<bool> has_schedules_{false};
  std::uint64_t epoch_ = 0;                      // guarded by mu_
  std::atomic<std::uint64_t> reshards_{0};
  std::vector<std::unique_ptr<WorldView>> history_;  // guarded by mu_
  std::atomic<const WorldView*> current_{nullptr};

  // Admission rendezvous (guarded by mu_).
  std::uint64_t admission_step_ = kNoStep;
  std::uint64_t resume_step_ = kNoStep;
  int join_root_ = -1;
  // Planned-event deltas rendezvous at step boundaries where rank skew is
  // just compute jitter; a generous fixed deadline keeps CHECK diagnostics
  // meaningful without a config knob.
  std::chrono::milliseconds admission_timeout_{10000};

  util::Barrier step_gate_;
  util::Barrier recovery_gate_;
};

}  // namespace cgx::comm
