// Open-loop load generator: one dispatcher (the calling thread) offers
// requests on a fixed schedule to a handler thread (or two, one per request
// kind). Every request is timed from the moment it was due, so a late
// dispatcher or a stalled handler shows in the latency of every request it
// delays; the dispatcher's own lateness is recorded as well.
#ifndef E2EBENCH_LOADGEN_H_
#define E2EBENCH_LOADGEN_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

#include "bench_core.h"

namespace e2ebench {

/// One scheduled request. `kind` and `payload` are the workload's own.
struct Job {
  int64_t due_ns = 0;
  int64_t enqueue_ns = 0;
  uint64_t span_id = 0;  // root span of the request (traced runs)
  int64_t index = 0;
  int kind = 0;
  int64_t payload[3] = {0, 0, 0};
};

/// One handler thread fed through a FIFO queue.
class Handler {
 public:
  /// `handle(job, start_ns)` runs one request on the handler thread.
  using Handle = std::function<void(const Job& job, int64_t start_ns)>;
  explicit Handler(Handle handle);
  ~Handler();
  Handler(const Handler&) = delete;
  Handler& operator=(const Handler&) = delete;

  void Submit(const Job& job);
  /// Blocks until every submitted request has finished.
  void WaitIdle();

 private:
  void Loop();
  Handle handle_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<Job> queue_;  // guarded by mu_
  bool busy_ = false;      // guarded by mu_
  bool stop_ = false;      // guarded by mu_
  std::thread thread_;
};

/// Result of one fixed-rate phase.
struct PhaseStats {
  Samples lateness_ms;  // dispatch time - due time
};

/// Offers `rate` requests/s for `seconds` to `handler` from the calling
/// thread; `fill(i, &job)` supplies request i. With `aux`, requests of
/// kind 1 go to that handler instead. Call TightenTimerSlack() on the
/// dispatching thread first so its wake-ups track the schedule.
PhaseStats RunPhase(Handler* handler, double rate, double seconds,
                    const std::function<void(int64_t, Job*)>& fill,
                    Handler* aux = nullptr);

/// Lowers this thread's timer slack so sleeps end close to their deadline.
void TightenTimerSlack();

}  // namespace e2ebench

#endif  // E2EBENCH_LOADGEN_H_
