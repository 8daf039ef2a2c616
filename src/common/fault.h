// Fault-tolerance primitives: deterministic fault injection and retry
// policies.
//
// The paper's Fig. 1 deployment (event queue → continuous engine → result
// consumers) assumes an always-available transport and sink; a real
// deployment gets transient failures on both sides. This header provides
// the two building blocks the pipeline uses to stay loss-free under such
// failures:
//
//  * FaultInjector — named failure points compiled into the transport and
//    sink paths (`SERAPH_FAULT_POINT("driver.deliver")`). Disarmed they
//    cost one pointer-sized branch; armed they fail deterministically
//    (schedule- or seeded-probability-based), which is how the fault
//    tolerance tests drive the full loop without mocks everywhere.
//  * RetryPolicy — a bounded number of immediate attempts. Nothing waits
//    between them: the engine runs in event time, and a transient failure
//    that outlasts the attempts is left to the caller's next pump (the
//    driver) or to the dead-letter queue (sinks).
//
// Only kUnavailable statuses are considered transient (see
// Status::IsTransient); every other code is permanent and is never
// retried.
#ifndef SERAPH_COMMON_FAULT_H_
#define SERAPH_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace seraph {

// A bounded number of immediate tries.
struct RetryPolicy {
  // Total tries including the first (1 = no retries).
  int max_attempts = 3;

  static RetryPolicy None() {
    RetryPolicy p;
    p.max_attempts = 1;
    return p;
  }

  // True when `status` is transient and `attempts_made` tries (1-based)
  // have not yet exhausted the budget.
  bool ShouldRetry(const Status& status, int attempts_made) const {
    return status.IsTransient() && attempts_made < max_attempts;
  }
};

// Process-wide registry of named failure points. Disarmed points are
// free; armed points fail according to their mode:
//
//   ArmProbability("driver.deliver", 0.2);   // seeded RNG, 20% of hits
//   ArmSchedule("sink.emit", {2, 3, 7});     // exactly hits #2, #3, #7
//   ArmNext("queue.poll", 2);                // the next two hits
//
// All state is deterministic given the seed and the hit sequence.
// Thread-safe: Fire and the arm/disarm mutators are mutex-guarded (the
// parallel engine may hit fault points from worker threads), and the
// disarmed fast path (`armed()`) stays a single atomic load. Note that
// with probability points, concurrent firing threads make the *mapping*
// of RNG draws to hits schedule-dependent — deterministic chaos tests
// keep fault points on coordinator-driven paths.
class FaultInjector {
 public:
  FaultInjector() : rng_(kDefaultSeed) {}

  // The process-wide instance every SERAPH_FAULT_POINT consults.
  static FaultInjector& Global();

  // Reseeds the probability RNG (also resets its stream position).
  void Seed(uint64_t seed);

  // Arms `point` to fail each hit with probability `probability` drawn
  // from the seeded RNG.
  void ArmProbability(const std::string& point, double probability);
  // Arms `point` to fail exactly on the given 1-based hit numbers.
  void ArmSchedule(const std::string& point, std::vector<int64_t> hits);
  // Arms `point` to fail its next `n` hits, then recover.
  void ArmNext(const std::string& point, int64_t n);

  void Disarm(const std::string& point);
  // Disarms every point and zeroes all counters (keeps the seed).
  void Reset();

  // Environment-driven chaos knobs (used by tools such as seraph_run):
  //   SERAPH_FAULT_SEED=<uint64>            seed for probability points
  //   SERAPH_FAULT_POINTS=<p>=<prob>[,...]  e.g. "driver.deliver=0.05"
  // Unset variables leave the injector untouched.
  void ConfigureFromEnv();

  // The hook behind SERAPH_FAULT_POINT: counts a hit on `point` and
  // returns kUnavailable when the point is armed and fires.
  Status Fire(const std::string& point);

  // True when at least one point is armed (fast-path check; lock-free).
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  int64_t hits(const std::string& point) const;
  int64_t failures(const std::string& point) const;

 private:
  static constexpr uint64_t kDefaultSeed = 42;

  struct Point {
    enum class Mode { kProbability, kSchedule, kNext };
    Mode mode = Mode::kProbability;
    double probability = 0.0;
    std::set<int64_t> schedule;  // 1-based hit numbers that fail.
    int64_t fail_next = 0;       // Remaining forced failures (kNext).
  };

  // Guards every map and the RNG; armed_ mirrors points_.empty() so the
  // disarmed hot path never takes the lock.
  mutable std::mutex mu_;
  std::atomic<bool> armed_{false};
  std::map<std::string, Point> points_;
  std::map<std::string, int64_t> hits_;
  std::map<std::string, int64_t> failures_;
  std::mt19937_64 rng_;
};

}  // namespace seraph

// Compiled-in failure point: returns a kUnavailable status to the caller
// when the named point is armed and fires; no-op (one branch) otherwise.
// Use inside functions returning Status or Result<T>.
#define SERAPH_FAULT_POINT(point)                                        \
  do {                                                                   \
    ::seraph::FaultInjector& _seraph_fi =                                \
        ::seraph::FaultInjector::Global();                               \
    if (_seraph_fi.armed()) {                                            \
      ::seraph::Status _seraph_fault = _seraph_fi.Fire(point);           \
      if (!_seraph_fault.ok()) return _seraph_fault;                     \
    }                                                                    \
  } while (false)

#endif  // SERAPH_COMMON_FAULT_H_
