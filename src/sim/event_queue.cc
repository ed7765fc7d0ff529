#include "src/sim/event_queue.h"

namespace slice {

void EventQueue::Push(SimTime when, Action action, bool background) {
  if (when < now_) {
    when = now_;
  }
  if (!background) {
    ++foreground_pending_;
  }
  heap_.push(Event{
      .when = when, .seq = next_seq_++, .background = background, .action = std::move(action)});
}

void EventQueue::ScheduleAt(SimTime when, Action action) {
  Push(when, std::move(action), in_background_);
}

void EventQueue::ScheduleBackgroundAt(SimTime when, Action action) {
  Push(when, std::move(action), true);
}

void EventQueue::ScheduleDrainAt(SimTime when, DrainFn fn, void* sink, uint32_t payload) {
  if (when < now_) {
    when = now_;
  }
  if (!in_background_) {
    ++foreground_pending_;
  }
  Event ev;
  ev.when = when;
  ev.seq = next_seq_++;
  ev.background = in_background_;
  ev.drain_payload = payload;
  ev.drain_fn = fn;
  ev.drain_sink = sink;
  heap_.push(std::move(ev));
}

bool EventQueue::PeekDrain(const void* sink, uint32_t* payload) const {
  if (heap_.empty()) {
    return false;
  }
  const Event& top = heap_.top();
  if (top.drain_fn == nullptr || top.drain_sink != sink || top.when != now_) {
    return false;
  }
  *payload = top.drain_payload;
  return true;
}

void EventQueue::AbsorbDrain() {
  SLICE_CHECK(!heap_.empty() && heap_.top().drain_fn != nullptr && heap_.top().when == now_);
  const bool background = heap_.top().background;
  heap_.pop();
  ++executed_;
  if (!background) {
    SLICE_CHECK(foreground_pending_ > 0);
    --foreground_pending_;
  }
  // The caller keeps processing inside the current dispatch; RunOne restores
  // the pre-dispatch status afterwards.
  in_background_ = background;
}

bool EventQueue::RunOne() {
  if (heap_.empty()) {
    return false;
  }
  Event ev = std::move(const_cast<Event&>(heap_.top()));
  heap_.pop();
  SLICE_CHECK(ev.when >= now_);
  now_ = ev.when;
  ++executed_;
  if (!ev.background) {
    SLICE_CHECK(foreground_pending_ > 0);
    --foreground_pending_;
  }
  const bool prev_background = in_background_;
  in_background_ = ev.background;
  if (dispatch_hook_ != nullptr) {
    dispatch_hook_(dispatch_hook_ctx_, /*begin=*/true);
  }
  if (ev.drain_fn != nullptr) {
    ev.drain_fn(ev.drain_sink, ev.drain_payload);
  } else {
    ev.action();
  }
  if (dispatch_hook_ != nullptr) {
    dispatch_hook_(dispatch_hook_ctx_, /*begin=*/false);
  }
  in_background_ = prev_background;
  return true;
}

void EventQueue::RunUntilIdle() {
  while (foreground_pending_ > 0 && RunOne()) {
  }
}

void EventQueue::RunUntil(SimTime deadline) {
  while (!heap_.empty() && heap_.top().when <= deadline) {
    RunOne();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace slice
