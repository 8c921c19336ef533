#include "loadgen.h"

#include <sys/prctl.h>

#include <chrono>

namespace e2ebench {

void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

Handler::Handler(Handle handle)
    : handle_(std::move(handle)), thread_([this] { Loop(); }) {}

Handler::~Handler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Handler::Submit(const Job& job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(job);
  }
  cv_.notify_one();
}

void Handler::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
}

void Handler::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ and drained
    const Job job = queue_.front();
    queue_.pop_front();
    busy_ = true;
    lock.unlock();
    handle_(job, NowNs());
    lock.lock();
    busy_ = false;
    if (queue_.empty()) idle_cv_.notify_all();
  }
}

PhaseStats RunPhase(Handler* handler, double rate, double seconds,
                    const std::function<void(int64_t, Job*)>& fill,
                    Handler* aux) {
  PhaseStats stats;
  const double period_ns = 1e9 / rate;
  const int64_t total = static_cast<int64_t>(rate * seconds);
  const int64_t start = NowNs() + 1'000'000;  // first request due in 1 ms
  for (int64_t i = 0; i < total; ++i) {
    Job job;
    job.index = i;
    job.due_ns = start + static_cast<int64_t>(static_cast<double>(i) * period_ns);
    fill(i, &job);
    int64_t now = NowNs();
    if (job.due_ns > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(job.due_ns - now));
      now = NowNs();
    }
    job.enqueue_ns = now;
    stats.lateness_ms.Add(static_cast<double>(now - job.due_ns) / 1e6);
    (aux != nullptr && job.kind == 1 ? aux : handler)->Submit(job);
  }
  return stats;
}

}  // namespace e2ebench
