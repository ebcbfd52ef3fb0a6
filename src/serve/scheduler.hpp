// Priority job scheduler layered on util::ThreadPool.
//
// Shape: the pool's index-job primitive hosts `workers` persistent
// worker loops (a dispatcher thread calls pool.run(workers, loop); the
// dispatcher itself is one of the workers, matching the pool's
// caller-participates contract). Each loop pops the best queued job —
// priority descending, then earliest deadline, then FIFO by id — and
// drives its runner. Jobs' own data-parallel regions go through the
// global parallel_for pool, so a simulate job still uses every core
// even when only one serve worker exists.
//
// Admission control: a bounded queue (queue_full), rejection after
// stop() (shutting_down), and per-job absolute deadlines derived from
// the submitted timeout_ms. Deadlines are enforced at dispatch time
// (an expired queued job fails with deadline_exceeded without running)
// and cooperatively while running (Job::keep_going promotes expiry to
// a cancel directive at step/iteration granularity).
//
// Preemption: when every worker is busy and a submitted job outranks a
// running one, the victim's directive is raised to kYield; its runner
// checkpoints into the job directory and returns, the job re-enters
// the queue, and — because every runner's resume path restores the
// engine state bit-exactly (docs/serialization.md) — the eventual
// result is identical to an uninterrupted run. That guarantee is what
// makes preemption safe to apply to any job, not just idempotent ones.
//
// Retention: finished jobs stay queryable (status, wait, the result)
// until kRetainedPerQueueSlot × max_queue_depth newer jobs have
// finished; then the oldest finished job is forgotten and queries for
// its id answer not_found, so a long-running daemon's job table stays
// bounded.
//
// Shutdown: stop() drains — queued jobs are cancelled with
// shutting_down, running jobs get drain_timeout to finish before being
// cancelled cooperatively — then the worker loops exit and the
// ThreadPool's drain-then-stop shutdown() completes the join.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/graph_cache.hpp"
#include "serve/job.hpp"
#include "util/thread_pool.hpp"

namespace rumor::serve {

class Scheduler {
 public:
  struct Options {
    std::size_t workers = 2;
    std::size_t max_queue_depth = 64;
    std::size_t cache_capacity = 4;
    /// Graph-cache resident-byte budget; 0 disables byte budgeting
    /// and the entry-count bound alone governs.
    std::uint64_t cache_budget_bytes = 0;
    /// Byte-budget eviction never drops below this many entries.
    std::size_t cache_min_entries = 1;
    /// Per-job working directories live under here (created on
    /// demand, removed when the job reaches a terminal state).
    std::string job_root = "rumord-jobs";
    /// How long stop() waits for running jobs before cancelling them.
    std::chrono::milliseconds drain_timeout{5000};
  };

  /// Finished jobs retained per slot of max_queue_depth.
  static constexpr std::size_t kRetainedPerQueueSlot = 4;

  explicit Scheduler(Options options);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admission result: either a job or a documented rejection code.
  struct Submission {
    std::shared_ptr<Job> job;  ///< null when rejected
    std::string error_code;    ///< queue_full | shutting_down | ""
  };

  /// Validate admission and enqueue. `timeout_ms == 0` means no
  /// deadline. Spec errors are NOT checked here — they surface when
  /// the job runs (state failed / bad_request) — so submit stays O(1).
  Submission submit(JobType type, io::JsonValue spec, int priority,
                    std::uint64_t timeout_ms);

  /// Snapshot a job as a JSON object (id, type, state, priority,
  /// preemptions, and — when terminal — result or error). nullopt for
  /// unknown ids, including finished jobs past the retention bound.
  std::optional<io::JsonValue> job_json(std::uint64_t id) const;

  /// Cancel a queued or running job. Returns false for unknown or
  /// already-terminal jobs. Queued jobs terminalize immediately;
  /// running jobs stop at their next cooperative poll.
  bool cancel(std::uint64_t id);

  /// Block until the job reaches a terminal state. False on timeout or
  /// unknown id.
  bool wait(std::uint64_t id, std::chrono::milliseconds timeout);

  /// Drain-then-stop; idempotent. After return no job is running.
  void stop();

  bool stopping() const;
  std::size_t queued_count() const;
  std::size_t running_count() const;
  GraphCache& cache() { return cache_; }
  const Options& options() const { return options_; }

 private:
  struct JobOrder {
    bool operator()(const std::shared_ptr<Job>& a,
                    const std::shared_ptr<Job>& b) const;
  };

  void worker_loop();
  void finalize_locked(const std::shared_ptr<Job>& job, JobState state,
                       std::string error_code, std::string error_message);
  void maybe_preempt_locked(const Job& incoming);
  static bool is_terminal(JobState state) {
    return state == JobState::kDone || state == JobState::kFailed ||
           state == JobState::kCancelled;
  }

  const Options options_;
  GraphCache cache_;
  util::ThreadPool pool_;
  std::thread dispatcher_;

  mutable std::mutex mutex_;
  std::mutex stop_mutex_;            ///< serializes concurrent stop()
  std::condition_variable work_cv_;  ///< workers wait for jobs / stop
  std::condition_variable done_cv_;  ///< wait()/stop() wait for terminals
  std::set<std::shared_ptr<Job>, JobOrder> queue_;
  /// Live jobs plus the most recently finished ones.
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::deque<std::uint64_t> finished_;  ///< retained, oldest first
  std::vector<std::shared_ptr<Job>> running_jobs_;
  std::uint64_t next_id_ = 1;
  bool stopping_ = false;
  bool stopped_ = false;
};

}  // namespace rumor::serve
