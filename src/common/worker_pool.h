#ifndef SCX_COMMON_WORKER_POOL_H_
#define SCX_COMMON_WORKER_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace scx {

/// Default parallelism for the executor's partition evaluation
/// (ClusterConfig::exec_threads = 0): the SCX_NUM_THREADS environment
/// variable when set to a positive integer, otherwise the hardware
/// concurrency.
int DefaultNumThreads();

/// A fixed-size pool of `threads - 1` workers plus the calling thread.
/// Run(n, fn) evaluates fn(0), ..., fn(n-1) across all participants and
/// returns once every job finished. Jobs of one batch must be mutually
/// independent; the caller is responsible for making their writes disjoint.
///
/// Run is not reentrant — a job must never call Run on the same pool (the
/// executor guarantees this by structuring each operator as a sequence of
/// flat job lists — per-partition passes and (partition, morsel) passes —
/// with all fan-out decided before the Run call, never from inside a job).
class WorkerPool {
 public:
  /// `threads` is the total parallelism including the calling thread;
  /// threads <= 1 creates no workers and Run degenerates to a serial loop.
  explicit WorkerPool(int threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const { return threads_; }

  /// Runs fn(0..n-1); the calling thread participates. Returns when all
  /// jobs finished.
  void Run(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  const int threads_;
  std::vector<std::thread> pool_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(size_t)>* job_fn_ = nullptr;
  size_t job_count_ = 0;
  size_t next_job_ = 0;
  size_t jobs_done_ = 0;
  bool stop_ = false;
};

}  // namespace scx

#endif  // SCX_COMMON_WORKER_POOL_H_
