#pragma once

#include <atomic>
#include <chrono>
#include <string>

#include "core/types.hpp"
#include "fault/fault.hpp"

/// Cooperative cancellation and per-cell deadlines for the sweep substrate.
///
/// Both mechanisms are *cooperative* by design: a C++ worker thread cannot be
/// preempted safely (killing it mid-cell would leak locks, tear the schedule
/// cache, and forfeit the byte-identity contract), so the engine checks a
/// flag at well-defined boundaries instead.
///
///   * CancelToken -- a shared flag `parallel_for` consults before handing
///     out each index: when it fires, in-flight work items *drain* (they
///     complete, and a journaled sweep persists them), not-yet-started items
///     never start, and the caller gets a partial-but-resumable result.
///   * Deadline / CellGuard -- a per-work-item time budget checked at
///     evaluation boundaries (between algorithm runs, between metric calls);
///     overrunning it throws fault::DeadlineExceeded, which the sweep's
///     failure discipline turns into a structured, permanently-classified
///     CellError instead of a wedged shard.
namespace bine::harness {

/// Shared cancellation flag, thread-safe, monotonic (no un-cancel): thread
/// one token through SweepPlan::cancel / parallel_for and
/// fire it from any thread (a signal-driven watchdog, a service RPC).
class CancelToken {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// A wall-clock budget. Default-constructed deadlines are unarmed and never
/// expire -- the zero-cost path every plan without cell_deadline_ms takes.
class Deadline {
 public:
  Deadline() = default;

  /// Arm a deadline `budget_ms` from now; budget_ms <= 0 = unarmed.
  [[nodiscard]] static Deadline after_ms(i64 budget_ms) {
    Deadline d;
    if (budget_ms > 0) {
      d.budget_ms_ = budget_ms;
      d.due_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
      d.armed_ = true;
    }
    return d;
  }

  [[nodiscard]] bool armed() const noexcept { return armed_; }
  [[nodiscard]] i64 budget_ms() const noexcept { return budget_ms_; }
  [[nodiscard]] bool expired() const noexcept {
    return armed_ && std::chrono::steady_clock::now() >= due_;
  }

 private:
  std::chrono::steady_clock::time_point due_{};
  i64 budget_ms_ = 0;
  bool armed_ = false;
};

/// What one sweep work item runs under. The engine arms a fresh guard per
/// attempt (each transient retry gets the full budget again) and the
/// measurement loops call checkpoint() between evaluations; an expired
/// deadline throws fault::DeadlineExceeded, classified permanent by the
/// retry machinery (a wedged cell re-run under the same budget wedges
/// again).
struct CellGuard {
  Deadline deadline;

  void checkpoint(const char* where) const {
    if (!deadline.expired()) return;
    throw fault::DeadlineExceeded("cell exceeded its " +
                                  std::to_string(deadline.budget_ms()) +
                                  " ms deadline at " + where);
  }
};

}  // namespace bine::harness
