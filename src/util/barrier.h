// Reusable spin-free barrier for device-thread groups.
//
// std::barrier exists in C++20 but we need (a) a copy-free handle shared by
// worker threads, (b) `arrive_and_wait` that tolerates reuse across an
// unbounded number of phases, (c) deadline-bounded arrival, and (d) a party
// count that can change between phases (a membership that shrinks or grows)
// — this simple generation-counting barrier covers all four and keeps the
// dependency surface small.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>

#include "util/check.h"

namespace cgx::util {

class Barrier {
 public:
  explicit Barrier(std::size_t parties) : parties_(parties) {
    CGX_CHECK_GT(parties, 0u);
  }

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  // Changes the party count of the open generation. Callers re-derive the
  // count from shared state right before arriving, so a waiter parked with
  // a stale count is released the moment a later arrival (with the
  // corrected count) completes the population.
  void set_parties(std::size_t parties) {
    CGX_CHECK_GT(parties, 0u);
    std::lock_guard<std::mutex> lock(mutex_);
    parties_ = parties;
    release_if_full_locked();
  }

  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::size_t my_generation = generation_;
    ++arrived_;
    if (release_if_full_locked()) return;
    cv_.wait(lock, [&] { return generation_ != my_generation; });
  }

  // Deadline-bounded arrival: returns true once every party of this
  // generation has arrived, false if `timeout` expires first. On timeout the
  // caller's arrival is withdrawn, so a later retry round starts from a
  // clean count — but the round this caller abandoned can no longer
  // complete, and every other party of the generation will time out too (a
  // broken barrier round must be abandoned by ALL parties; the comm layer
  // surfaces this as a TimeoutError on each rank).
  bool arrive_and_wait_for(std::chrono::nanoseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::size_t my_generation = generation_;
    ++arrived_;
    if (release_if_full_locked()) return true;
    if (cv_.wait_for(lock, timeout,
                     [&] { return generation_ != my_generation; })) {
      return true;
    }
    // wait_for rechecked the predicate under the lock, so the generation is
    // still open and this caller's arrival is still counted.
    --arrived_;
    return false;
  }

 private:
  bool release_if_full_locked() {
    if (arrived_ < parties_) return false;
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
    return true;
  }

  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::size_t generation_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace cgx::util
