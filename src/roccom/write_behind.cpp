#include "roccom/write_behind.h"

#include "roccom/block_wire.h"
#include "telemetry/trace.h"
#include "util/check_hooks.h"
#include "util/log.h"

namespace roc::roccom {

WriteBehind::WriteBehind(comm::Env& env, const char* category,
                         const char* thread_name, RunFn run, IdleFn on_idle)
    : env_(env),
      category_(category),
      run_(std::move(run)),
      on_idle_(std::move(on_idle)),
      gate_storage_(env.make_gate()),
      gate_(gate_storage_.get()) {
  gate_->set_name("write-behind-gate");
  worker_ = env_.spawn_worker([this, thread_name] {
    telemetry::set_thread_name(thread_name);
    worker_loop();
  });
}

WriteBehind::~WriteBehind() {
  try {
    (void)drain();
  } catch (const std::exception& e) {
    ROC_ERROR << category_ << ": background write failed: " << e.what();
  }
  gate_->lock();
  ROC_CHECK_SHARED_WRITE(&stop_, "write_behind.stop");
  stop_ = true;
  gate_->notify_all();
  gate_->unlock();
  worker_->join();
}

WriteBehind::Posted WriteBehind::post(const IoRequest& req,
                                      const std::vector<const Pane*>& panes,
                                      uint64_t capacity) {
  Job job;
  job.req = req;
  job.ctx = telemetry::current_trace_context();
  {
    telemetry::Span marshal(category_, "marshal");
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: one reservation per
    // request, amortised over its blocks.
    job.blocks.reserve(panes.size());
    for (const Pane* p : panes) {
      // Marshal into the reusable scratch chain, then gather into one
      // pooled buffer: the single marshalling copy.  Everything downstream
      // (queue, send, server buffer, file write) shares references.
      WireBlock::serialize_chain_into(*p->block, req.attribute, &pool_,
                                      scratch_);
      SharedBuffer bytes = pool_.gather(scratch_);
      job.bytes += bytes.size();
      // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: reserved above; growth
      // is a reference push, amortised per request.
      job.blocks.push_back(std::move(bytes));
    }
    // One charge for the request's whole copy: on the simulator, one
    // virtual-time step per request, not per pane.
    env_.charge_local_copy(job.bytes);
  }
  Posted posted{job.bytes, 0};
  comm::GateLock lock(*gate_);
  ROC_CHECK_SHARED_READ(&failure_, "write_behind.failure");
  if (failure_) std::rethrow_exception(failure_);
  ROC_CHECK_SHARED_READ(&busy_, "write_behind.busy");
  while (queued_bytes_ + job.bytes > capacity && (!queue_.empty() || busy_)) {
    telemetry::Span backpressure(category_, "backpressure");
    ++posted.waits;
    gate_->wait();
  }
  ROC_CHECK_SHARED_WRITE(&queued_bytes_, "write_behind.queued_bytes");
  queued_bytes_ += job.bytes;
  ROC_CHECK_SHARED_WRITE(&queue_, "write_behind.queue");
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: amortised job-queue
  // growth; payloads are moved references.
  queue_.push_back(std::move(job));
  gate_->notify_all();
  return posted;
}

bool WriteBehind::drain() {
  comm::GateLock lock(*gate_);
  ROC_CHECK_SHARED_READ(&queue_, "write_behind.queue");
  ROC_CHECK_SHARED_READ(&busy_, "write_behind.busy");
  bool waited = false;
  while (!queue_.empty() || busy_) {
    waited = true;
    gate_->wait();
  }
  ROC_CHECK_SHARED_READ(&failure_, "write_behind.failure");
  if (failure_) std::rethrow_exception(failure_);
  return waited;
}

void WriteBehind::worker_loop() {
  gate_->lock();
  for (;;) {
    ROC_CHECK_SHARED_WRITE(&queue_, "write_behind.queue");
    ROC_CHECK_SHARED_WRITE(&busy_, "write_behind.busy");
    if (queue_.empty() && !busy_) {
      ROC_CHECK_SHARED_READ(&stop_, "write_behind.stop");
      if (stop_) break;
      gate_->wait();
      continue;
    }
    // The next job, or, once the queue has drained after one, the idle
    // callback (T-Rochdf closes its file there) before drain() returns.
    const bool idle = queue_.empty();
    Job job;
    if (!idle) {
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    busy_ = true;
    gate_->unlock();
    std::exception_ptr failure;
    try {
      if (idle)
        on_idle_();
      else
        run_(job);
    } catch (...) {
      failure = std::current_exception();
    }
    gate_->lock();
    ROC_CHECK_SHARED_WRITE(&failure_, "write_behind.failure");
    if (!failure_) failure_ = failure;
    ROC_CHECK_SHARED_WRITE(&queued_bytes_, "write_behind.queued_bytes");
    queued_bytes_ -= job.bytes;
    // Without an idle callback the worker is idle as soon as the queue is.
    busy_ = !idle && on_idle_;
    gate_->notify_all();
  }
  gate_->unlock();
}

}  // namespace roc::roccom
