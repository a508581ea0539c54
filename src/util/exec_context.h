#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>

#include "src/util/check.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace stj {

/// Why an ExecContext asked its workers to stop. kNone means "still
/// running"; the other causes are terminal — the first trip wins and later
/// trip attempts are ignored, so a query stops for exactly one reason.
enum class StopCause : uint8_t {
  kNone = 0,
  kCancelled,         ///< ExecContext::Cancel() (client abort, SIGINT, ...).
  kDeadlineExceeded,  ///< The steady-clock deadline passed a check-in poll.
  kMemoryExceeded,    ///< A TryCharge overflowed the soft memory budget.
};

const char* ToString(StopCause cause);

/// Watchdog snapshot of one query's check-in activity (see ExecContext).
/// Plain values — safe to copy, print, or serialise after the run.
struct ExecWatchdogStats {
  uint64_t checkins = 0;        ///< Check-ins across all worker scopes.
  uint64_t deadline_polls = 0;  ///< Check-ins that read the steady clock.
  /// Worker scopes that observed the stop request (each scope reports its
  /// first observation only). Equals the number of workers that were inside
  /// a cancellable loop when the query tripped.
  uint64_t stop_observations = 0;
  /// Worst time, over all observing scopes, from the trip to the scope
  /// noticing it — the realised cooperative-cancellation latency.
  uint64_t max_cancel_latency_us = 0;
};

/// Cooperative cancellation, deadline, and soft-memory-budget carrier for
/// one query (ROADMAP item 1: the per-request contract of a resident join
/// service).
///
/// One ExecContext is created per query and threaded by pointer through
/// every long-running stage (MbrJoin tile sweeps, the parallel
/// find-relation/relate drivers, APRIL preprocessing, AprilStore loading).
/// Workers check in through an ExecContext::Scope at a stage-specific
/// granularity (one candidate pair, one swept tile, one rasterised object,
/// one distribute slice); a check-in costs one relaxed atomic load plus a
/// local counter bump, and reads the steady clock only every
/// kDeadlinePollPeriod check-ins, so the unbounded path stays within noise
/// of a context-free run (measured within 2%; EXPERIMENTS.md).
///
/// Cancellation is cooperative and loss-less: nothing is interrupted
/// mid-pair. A worker that observes the trip finishes nothing further, and
/// every result produced before the cut remains valid — the drivers return
/// a PartialResult naming exactly which pairs were fully verified
/// (parallel.h). The stop cause maps onto Status codes via ToStatus():
/// kCancelled, kDeadlineExceeded, or kResourceExhausted.
///
/// Thread safety: Cancel/RequestStop/TryCharge/Release and every query by
/// worker scopes are safe from any thread. The setters (deadline, budget,
/// hooks) must be called before workers start checking in — they configure
/// the query, they do not reconfigure a running one.
class ExecContext {
 public:
  /// Deadline polls happen every this many check-ins per scope (the stop
  /// flag itself is checked on every check-in). Bounds the extra latency a
  /// deadline can suffer to kDeadlinePollPeriod times the cost of one work
  /// unit on the polling worker.
  static constexpr uint32_t kDeadlinePollPeriod = 16;

  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Arms the deadline: check-ins start polling the steady clock and trip
  /// kDeadlineExceeded once it passes \p deadline.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  void SetDeadlineAfter(std::chrono::nanoseconds budget) {
    SetDeadline(std::chrono::steady_clock::now() + budget);
  }
  bool has_deadline() const { return has_deadline_; }

  /// Arms the soft memory budget consulted by TryCharge. "Soft" because it
  /// bounds the *tracked* allocations (arena growth, tile-entry tables,
  /// APRIL interval payloads), not every byte the allocator hands out.
  /// \p bytes must fit the signed counter (at most INT64_MAX).
  void SetMemoryBudget(size_t bytes) {
    STJ_CHECK_MSG(bytes <= static_cast<uint64_t>(INT64_MAX),
                  "memory budget exceeds INT64_MAX bytes");
    budget_remaining_.store(static_cast<int64_t>(bytes),
                            std::memory_order_relaxed);
    has_budget_ = true;
  }
  bool has_memory_budget() const { return has_budget_; }

  /// Requests a cooperative stop with \p cause; the first request wins and
  /// records the trip time for cancel-latency accounting. Returns true when
  /// this call performed the trip. Safe from any thread (and, for
  /// kCancelled, from signal handlers: the slow path is one CAS plus a
  /// steady-clock read).
  bool RequestStop(StopCause cause);

  /// Client-initiated cancellation (RequestStop(kCancelled)).
  void Cancel() { RequestStop(StopCause::kCancelled); }

  /// True once any stop cause tripped. One relaxed load — this is the fast
  /// path of every check-in.
  bool StopRequested() const {
    return stop_.load(std::memory_order_relaxed) !=
           static_cast<uint8_t>(StopCause::kNone);
  }

  StopCause cause() const {
    return static_cast<StopCause>(stop_.load(std::memory_order_acquire));
  }

  /// Ok while running; otherwise the Status a service should return for the
  /// query: kCancelled / kDeadlineExceeded / kResourceExhausted.
  Status ToStatus() const;

  /// Charges \p bytes against the soft memory budget. Returns true when the
  /// charge fits (or no budget is armed); on overflow trips kMemoryExceeded
  /// and returns false — the caller abandons the allocation and unwinds
  /// cooperatively. A fault-injection ChargeHook, when installed, decides
  /// instead of the budget arithmetic.
  bool TryCharge(size_t bytes);

  /// Returns \p bytes of budget (freed scratch); no-op without a budget.
  void Release(size_t bytes) {
    if (has_budget_) {
      budget_remaining_.fetch_add(static_cast<int64_t>(bytes),
                                  std::memory_order_relaxed);
    }
  }

  /// Bytes charged so far (monotone; Release does not subtract). Telemetry,
  /// not an accounting invariant.
  uint64_t charged_bytes() const {
    return charged_bytes_.load(std::memory_order_relaxed);
  }

  /// Remaining budget (may be transiently negative around a failed charge).
  /// Meaningless without an armed budget. Exposed for the charge/release
  /// balance invariants the model checker asserts (tests/model/).
  int64_t budget_remaining() const {
    return budget_remaining_.load(std::memory_order_relaxed);
  }

  ExecWatchdogStats WatchdogSnapshot() const {
    ExecWatchdogStats stats;
    stats.checkins = checkins_.load(std::memory_order_relaxed);
    stats.deadline_polls = deadline_polls_.load(std::memory_order_relaxed);
    stats.stop_observations =
        stop_observations_.load(std::memory_order_relaxed);
    stats.max_cancel_latency_us =
        max_cancel_latency_us_.load(std::memory_order_relaxed);
    return stats;
  }

  /// Fault-injection hook (tests/robustness): invoked on every check-in
  /// with the 1-based *global* check-in ordinal, before the stop-flag test,
  /// and may call RequestStop to simulate a cancel or deadline at an exact
  /// point in the schedule. Installing a hook routes every check-in through
  /// a serialising slow path — never install one outside tests.
  using CheckInHook = std::function<void(ExecContext&, uint64_t ordinal)>;
  void SetCheckInHook(CheckInHook hook) { checkin_hook_ = std::move(hook); }

  /// Fault-injection hook for TryCharge: receives the charge size and the
  /// 1-based global charge ordinal; returning false simulates an allocation
  /// failure (the context trips kMemoryExceeded exactly as a real overflow
  /// would). Replaces the budget arithmetic while installed.
  using ChargeHook =
      std::function<bool(ExecContext&, size_t bytes, uint64_t ordinal)>;
  void SetChargeHook(ChargeHook hook) { charge_hook_ = std::move(hook); }

  /// Per-worker check-in cursor. Each worker of a cancellable loop owns one
  /// Scope on its stack; local counters keep the hot path free of shared
  /// writes, and the destructor flushes them into the context's watchdog
  /// totals. A Scope over a null context is a no-op whose CheckIn() always
  /// returns false, so call sites need no branching on "is this query
  /// bounded?".
  class Scope {
   public:
    explicit Scope(ExecContext* ctx)
        : ctx_(ctx), until_poll_(kDeadlinePollPeriod) {}
    ~Scope() { Flush(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Declares one unit of work about to start. Returns true when the
    /// worker must stop (the context tripped): the worker abandons its
    /// remaining work at this boundary, leaving everything completed before
    /// it valid.
    bool CheckIn() {
      if (ctx_ == nullptr) return false;
      if (observed_stop_) return true;
      ++checkins_;
      if (ctx_->checkin_hook_ != nullptr) ctx_->RunCheckInHook();
      if (ctx_->StopRequested()) return ObserveStop();
      if (ctx_->has_deadline_ && --until_poll_ == 0) {
        until_poll_ = kDeadlinePollPeriod;
        ++deadline_polls_;
        if (ctx_->PollDeadline()) return ObserveStop();
      }
      return false;
    }

    /// True once this scope observed the trip (sticky).
    bool stopped() const { return observed_stop_; }

    uint64_t checkins() const { return checkins_; }

    /// Microseconds between the trip and this scope observing it; 0 until
    /// stopped() turns true.
    uint64_t observed_latency_us() const { return observed_latency_us_; }

    /// Stop cause at observation time (kNone until stopped()).
    StopCause observed_cause() const { return observed_cause_; }

   private:
    /// Merges the local counters into the context watchdog totals (called
    /// once, from the destructor; the accessors above stay valid for the
    /// scope's whole lifetime).
    void Flush();

    bool ObserveStop();

    ExecContext* ctx_;
    uint64_t checkins_ = 0;
    uint64_t deadline_polls_ = 0;
    uint64_t observed_latency_us_ = 0;
    uint32_t until_poll_;
    bool observed_stop_ = false;
    StopCause observed_cause_ = StopCause::kNone;
  };

 private:
  friend class Scope;

  /// Reads the steady clock; trips kDeadlineExceeded when past the
  /// deadline. Returns StopRequested() afterwards.
  bool PollDeadline();

  /// Slow path when a fault-injection CheckInHook is installed.
  void RunCheckInHook();

  void NoteStopObserved(uint64_t latency_us);

  STJ_ATOMIC_DOC(
      "stop cause; any thread CASes kNone->cause once (RequestStop), workers "
      "read relaxed per check-in — staleness only delays the cut, cause() "
      "reads acquire to order against the trip's bookkeeping");
  std::atomic<uint8_t> stop_{static_cast<uint8_t>(StopCause::kNone)};
  /// Steady-clock microseconds at the moment of the trip (latency origin).
  STJ_ATOMIC_DOC(
      "written once by the tripping thread before the stop_ CAS publishes; "
      "observers read it only after seeing stop_ != kNone");
  std::atomic<int64_t> trip_time_us_{0};

  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};

  bool has_budget_ = false;
  STJ_ATOMIC_DOC(
      "signed budget counter; TryCharge/Release fetch_sub/fetch_add relaxed "
      "from any worker — only the sign matters and each charge observes its "
      "own subtraction, so no ordering beyond atomicity is needed");
  std::atomic<int64_t> budget_remaining_{0};
  STJ_ATOMIC_DOC("monotone telemetry total; relaxed add, read after the run");
  std::atomic<uint64_t> charged_bytes_{0};
  STJ_ATOMIC_DOC("fault-injection ordinal; relaxed fetch_add gives each "
                 "charge a unique 1-based id, order between workers is moot");
  std::atomic<uint64_t> charge_ordinal_{0};

  // Watchdog totals (Scope::Flush merges the per-worker counters). All four
  // are write-only during the run and read after workers joined.
  STJ_ATOMIC_DOC("watchdog total; relaxed add at scope exit, read post-join");
  std::atomic<uint64_t> checkins_{0};
  STJ_ATOMIC_DOC("watchdog total; relaxed add at scope exit, read post-join");
  std::atomic<uint64_t> deadline_polls_{0};
  STJ_ATOMIC_DOC("watchdog total; relaxed add at scope exit, read post-join");
  std::atomic<uint64_t> stop_observations_{0};
  STJ_ATOMIC_DOC("watchdog maximum; CAS max loop at scope exit, read "
                 "post-join — contended only in the instant after a trip");
  std::atomic<uint64_t> max_cancel_latency_us_{0};

  CheckInHook checkin_hook_;
  STJ_ATOMIC_DOC("fault-injection ordinal; relaxed fetch_add gives each "
                 "check-in a unique 1-based id for schedule replay");
  std::atomic<uint64_t> checkin_ordinal_{0};
  ChargeHook charge_hook_;
};

}  // namespace stj
