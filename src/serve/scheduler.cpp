#include "serve/scheduler.hpp"

#include <algorithm>
#include <filesystem>

#include "serve/metrics.hpp"
#include "serve/runners.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace rumor::serve {

namespace {

double elapsed_ms(Job::Clock::time_point from, Job::Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

const char* to_string(JobType type) {
  switch (type) {
    case JobType::kSimulate: return "simulate";
    case JobType::kPlan: return "plan";
    case JobType::kSweep: return "sweep";
    case JobType::kStream: return "stream";
  }
  return "unknown";
}

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

bool Scheduler::JobOrder::operator()(const std::shared_ptr<Job>& a,
                                     const std::shared_ptr<Job>& b) const {
  if (a->priority != b->priority) return a->priority > b->priority;
  if (a->has_deadline != b->has_deadline) return a->has_deadline;
  if (a->has_deadline && a->deadline != b->deadline) {
    return a->deadline < b->deadline;
  }
  return a->id < b->id;  // FIFO tie-break; also the equivalence key
}

Scheduler::Scheduler(Options options)
    : options_(std::move(options)),
      cache_(GraphCache::Options{options_.cache_capacity,
                                 options_.cache_budget_bytes,
                                 options_.cache_min_entries}),
      pool_(options_.workers) {
  util::require(options_.workers >= 1, "Scheduler: need at least one worker");
  util::require(!options_.job_root.empty(), "Scheduler: job_root is required");
  std::filesystem::create_directories(options_.job_root);
  // The pool hosts the worker loops as one long-lived index job; the
  // dispatcher thread is the pool's participating caller.
  dispatcher_ = std::thread([this] {
    pool_.run(options_.workers, [this](std::size_t) { worker_loop(); });
  });
}

Scheduler::~Scheduler() { stop(); }

Scheduler::Submission Scheduler::submit(JobType type, io::JsonValue spec,
                                        int priority,
                                        std::uint64_t timeout_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) {
    serve_metrics().jobs_rejected.add();
    return {nullptr, kErrShuttingDown};
  }
  if (queue_.size() >= options_.max_queue_depth) {
    serve_metrics().jobs_rejected.add();
    return {nullptr, kErrQueueFull};
  }
  auto job = std::make_shared<Job>();
  job->id = next_id_++;
  job->type = type;
  job->priority = priority;
  job->spec = std::move(spec);
  job->submitted_at = Job::Clock::now();
  if (timeout_ms > 0) {
    job->has_deadline = true;
    job->deadline = job->submitted_at + std::chrono::milliseconds(timeout_ms);
  }
  job->dir = options_.job_root + "/job-" + std::to_string(job->id);
  std::filesystem::create_directories(job->dir);
  jobs_[job->id] = job;
  queue_.insert(job);
  serve_metrics().jobs_submitted.add();
  serve_metrics().jobs_queued.set(static_cast<double>(queue_.size()));
  maybe_preempt_locked(*job);
  work_cv_.notify_one();
  return {job, ""};
}

void Scheduler::maybe_preempt_locked(const Job& incoming) {
  if (running_jobs_.size() < options_.workers) return;  // a worker is free
  // Pick the weakest running job the incoming one outranks. Outranking
  // means strictly higher priority, or equal priority where only the
  // incoming job has a deadline (deadline-urgent beats best-effort).
  std::shared_ptr<Job> victim;
  for (const auto& running : running_jobs_) {
    const bool outranked =
        incoming.priority > running->priority ||
        (incoming.priority == running->priority && incoming.has_deadline &&
         !running->has_deadline);
    if (!outranked) continue;
    if (!victim || running->priority < victim->priority ||
        (running->priority == victim->priority && !running->has_deadline &&
         victim->has_deadline)) {
      victim = running;
    }
  }
  if (victim) victim->raise_directive(Directive::kYield);
}

void Scheduler::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    std::shared_ptr<Job> job = *queue_.begin();
    queue_.erase(queue_.begin());
    serve_metrics().jobs_queued.set(static_cast<double>(queue_.size()));
    const auto now = Job::Clock::now();
    if (stopping_) {
      finalize_locked(job, JobState::kCancelled, kErrShuttingDown,
                      "daemon shutting down");
      continue;
    }
    if (job->deadline_passed(now)) {
      finalize_locked(job, JobState::kFailed, kErrDeadlineExceeded,
                      "deadline expired before the job was dispatched");
      continue;
    }
    if (job->directive.load(std::memory_order_relaxed) != Directive::kRun) {
      finalize_locked(job, JobState::kCancelled, kErrCancelled,
                      "cancelled while queued");
      continue;
    }
    job->state = JobState::kRunning;
    running_jobs_.push_back(job);
    serve_metrics().jobs_running.set(
        static_cast<double>(running_jobs_.size()));
    serve_metrics().queue_latency_ms.record(
        elapsed_ms(job->submitted_at, now));
    lock.unlock();

    RunOutcome outcome;
    bool failed = false;
    std::string fail_code, fail_message;
    try {
      outcome = run_job(*job, cache_);
    } catch (const util::InvalidArgument& e) {
      failed = true;
      fail_code = kErrBadRequest;
      fail_message = e.what();
    } catch (const util::IoError& e) {
      failed = true;
      fail_code = kErrBadRequest;
      fail_message = e.what();
    } catch (const std::exception& e) {
      failed = true;
      fail_code = kErrInternal;
      fail_message = e.what();
    }

    lock.lock();
    running_jobs_.erase(
        std::find(running_jobs_.begin(), running_jobs_.end(), job));
    serve_metrics().jobs_running.set(
        static_cast<double>(running_jobs_.size()));
    serve_metrics().job_duration_ms.record(
        elapsed_ms(now, Job::Clock::now()));
    if (failed) {
      finalize_locked(job, JobState::kFailed, std::move(fail_code),
                      std::move(fail_message));
      continue;
    }
    if (outcome.kind == RunOutcome::kCompleted) {
      job->result = std::move(outcome.result);
      finalize_locked(job, JobState::kDone, "", "");
      continue;
    }
    // Interrupted: a yield requeues (unless a cancel overtook it), a
    // cancel terminalizes — as deadline_exceeded when that is why.
    Directive expected = Directive::kYield;
    if (job->directive.compare_exchange_strong(expected, Directive::kRun)) {
      job->state = JobState::kQueued;
      ++job->preemptions;
      serve_metrics().jobs_preempted.add();
      queue_.insert(job);
      serve_metrics().jobs_queued.set(static_cast<double>(queue_.size()));
      done_cv_.notify_all();  // stop() watches the running set shrink
      work_cv_.notify_one();
    } else if (job->deadline_passed()) {
      finalize_locked(job, JobState::kFailed, kErrDeadlineExceeded,
                      "deadline exceeded while running");
    } else {
      finalize_locked(job, JobState::kCancelled, kErrCancelled, "cancelled");
    }
  }
}

void Scheduler::finalize_locked(const std::shared_ptr<Job>& job,
                                JobState state, std::string error_code,
                                std::string error_message) {
  job->state = state;
  job->error_code = std::move(error_code);
  job->error_message = std::move(error_message);
  switch (state) {
    case JobState::kDone:
      serve_metrics().jobs_completed.add();
      break;
    case JobState::kFailed:
      if (job->error_code == kErrDeadlineExceeded) {
        serve_metrics().jobs_expired.add();
      }
      serve_metrics().jobs_failed.add();
      break;
    case JobState::kCancelled:
      serve_metrics().jobs_cancelled.add();
      break;
    default:
      break;
  }
  std::error_code ec;
  std::filesystem::remove_all(job->dir, ec);
  if (ec) {
    util::log_warn() << "scheduler: failed to remove job dir " << job->dir
                     << ": " << ec.message();
  }
  // Waiters hold their own reference, so forgetting a job they wait on
  // cannot pull it out from under them.
  finished_.push_back(job->id);
  const std::size_t retained =
      kRetainedPerQueueSlot * options_.max_queue_depth;
  while (finished_.size() > retained) {
    jobs_.erase(finished_.front());
    finished_.pop_front();
  }
  done_cv_.notify_all();
}

std::optional<io::JsonValue> Scheduler::job_json(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const Job& job = *it->second;
  io::JsonValue out = io::JsonValue::make_object();
  out.set("id", static_cast<double>(job.id));
  out.set("type", to_string(job.type));
  out.set("state", to_string(job.state));
  out.set("priority", job.priority);
  out.set("preemptions", static_cast<double>(job.preemptions));
  if (job.state == JobState::kDone) out.set("result", job.result);
  if (!job.error_code.empty()) {
    io::JsonValue error = io::JsonValue::make_object();
    error.set("code", job.error_code);
    error.set("message", job.error_message);
    out.set("error", std::move(error));
  }
  return out;
}

bool Scheduler::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  const std::shared_ptr<Job>& job = it->second;
  if (is_terminal(job->state)) return false;
  job->raise_directive(Directive::kCancel);
  if (job->state == JobState::kQueued) {
    queue_.erase(job);
    serve_metrics().jobs_queued.set(static_cast<double>(queue_.size()));
    finalize_locked(job, JobState::kCancelled, kErrCancelled,
                    "cancelled while queued");
  }
  return true;
}

bool Scheduler::wait(std::uint64_t id, std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  const std::shared_ptr<Job> job = it->second;
  return done_cv_.wait_for(lock, timeout,
                           [&] { return is_terminal(job->state); });
}

void Scheduler::stop() {
  std::lock_guard<std::mutex> stop_guard(stop_mutex_);
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopped_) return;
  stopping_ = true;
  while (!queue_.empty()) {
    std::shared_ptr<Job> job = *queue_.begin();
    queue_.erase(queue_.begin());
    finalize_locked(job, JobState::kCancelled, kErrShuttingDown,
                    "daemon shutting down");
  }
  serve_metrics().jobs_queued.set(0.0);
  work_cv_.notify_all();
  const bool drained =
      done_cv_.wait_for(lock, options_.drain_timeout, [&] {
        return running_jobs_.empty() && queue_.empty();
      });
  if (!drained) {
    for (const auto& job : running_jobs_) {
      job->raise_directive(Directive::kCancel);
    }
    done_cv_.wait(lock,
                  [&] { return running_jobs_.empty() && queue_.empty(); });
  }
  lock.unlock();
  if (dispatcher_.joinable()) dispatcher_.join();
  // Exercise the pool's own drain-then-stop; the worker loops have
  // exited, so this returns promptly and rejects any future run().
  pool_.shutdown(std::chrono::milliseconds(1000));
  lock.lock();
  stopped_ = true;
}

bool Scheduler::stopping() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stopping_;
}

std::size_t Scheduler::queued_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t Scheduler::running_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_jobs_.size();
}

}  // namespace rumor::serve
