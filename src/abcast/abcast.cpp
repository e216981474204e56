#include "abcast/abcast.hpp"

#include "obs/observer.hpp"

namespace fdgm::abcast {

namespace {
/// Hard cap on the batch size k.
constexpr std::size_t kMaxBatch = 32;
/// A partial batch (queue below the adaptive target) flushes after at
/// most this queueing delay (ms).
constexpr double kFlushDelayMs = 1.0;
/// Backlog that buys one extra message of batch target (ms): the target
/// is 1 + floor((wire backlog + local CPU backlog) / kBacklogRefMs),
/// capped at kMaxBatch.  An idle system flushes every submission
/// immediately.
constexpr double kBacklogRefMs = 4.0;
/// Credit window: own messages submitted but not yet locally A-delivered
/// before can_submit() turns false.
constexpr std::size_t kCreditWindow = 64;
}  // namespace

AtomicBroadcastProcess::AtomicBroadcastProcess(net::System& sys, net::ProcessId self,
                                               BatchConfig batching)
    : sys_(&sys), self_(self), batching_(batching) {}

AtomicBroadcastProcess::~AtomicBroadcastProcess() {
  if (flush_timer_ != 0) {
    sys_->scheduler().cancel(flush_timer_);
    flush_timer_ = 0;
  }
}

MsgId AtomicBroadcastProcess::a_broadcast() {
  if (sys_->node(self_).crashed()) return MsgId{};
  const MsgId id{self_, next_msg_seq_++};
  const AppMessage* msg = sys_->arena().make<AppMessage>(id, sys_->now());
  enqueue_submission(msg);
  return id;
}

void AtomicBroadcastProcess::enqueue_submission(AppMessagePtr msg) {
  if (auto* o = sys_->obs()) {
    o->on_submit(msg->id.origin, msg->id.seq, sys_->now());
    // Unbatched, the message enters the ordering machinery in this very
    // call: the submission-wait phase is zero by construction.
    if (!batching_.enabled) o->on_order_start(msg->id.origin, msg->id.seq, sys_->now());
    // Causal anchor: accepted while the credit window was shut — the
    // walker attributes this message's submission wait to credit, not
    // the batch timer.
    if (o->causal() && batching_.enabled && !can_submit()) {
      obs::MsgRefList refs;
      refs.add(msg->id.origin, msg->id.seq);
      o->trace_marker(obs::EdgeKind::kCreditClosed, self_, refs, sys_->now());
    }
  }
  if (!batching_.enabled) {
    // Bit-identity contract: the unbatched path is exactly the
    // pre-batching hot path — no queue, no timer, no credit accounting.
    disseminate(&msg, 1);
    return;
  }
  ++in_flight_;
  queue_.push_back(msg);
  if (queue_.size() >= batch_target())
    flush_queue();
  else
    arm_flush_timer();
}

bool AtomicBroadcastProcess::can_submit() const {
  return !batching_.enabled || in_flight_ < kCreditWindow;
}

std::size_t AtomicBroadcastProcess::batch_target() const {
  if (!batching_.enabled) return 1;
  // Adaptive k: every kBacklogRefMs of queueing horizon — time the next
  // message would wait for the shared wire plus this host's CPU anyway —
  // buys one more message of batching.  Idle system: k = 1, the flush is
  // immediate and the batch path collapses to per-message submission.
  const double backlog =
      sys_->network().wire_backlog() + sys_->network().cpu_backlog(self_);
  if (backlog <= 0.0) return 1;
  const double extra = backlog / kBacklogRefMs;
  if (extra >= static_cast<double>(kMaxBatch - 1)) return kMaxBatch;
  return 1 + static_cast<std::size_t>(extra);
}

void AtomicBroadcastProcess::flush_queue() {
  if (flush_timer_ != 0) {
    sys_->scheduler().cancel(flush_timer_);
    flush_timer_ = 0;
  }
  if (queue_.empty()) return;
  ++batches_flushed_;
  // Swap into the scratch vector: disseminate may deliver synchronously,
  // and a DeliverSink can submit again from inside that delivery.  The two
  // vectors ping-pong their capacity, so steady state does not allocate.
  flushing_.clear();
  flushing_.swap(queue_);
  if (auto* o = sys_->obs()) {
    for (const AppMessagePtr m : flushing_) o->on_order_start(m->id.origin, m->id.seq, sys_->now());
    o->on_batch_flush(self_, sys_->now());
  }
  disseminate(flushing_.data(), flushing_.size());
}

net::PayloadPtr AtomicBroadcastProcess::data_payload(const AppMessagePtr* msgs,
                                                     std::size_t count) {
  if (count == 1) return msgs[0];
  return sys_->arena().make<AppBatch>(std::vector<AppMessagePtr>(msgs, msgs + count));
}

void AtomicBroadcastProcess::arm_flush_timer() {
  if (flush_timer_ != 0) return;
  flush_timer_ = sys_->scheduler().schedule_after(kFlushDelayMs, [this] {
    flush_timer_ = 0;
    // The queue survives a crash (stable storage, like the message
    // counter); on_restart re-flushes it.
    if (sys_->node(self_).crashed()) return;
    flush_queue();
  });
}

void AtomicBroadcastProcess::deliver(AppMessagePtr m) {
  if (!delivered_.insert(m->id)) return;
  log_.push_back(m);
  // First-write-wins inside the observer: across the n local deliveries
  // of one message this records the *global-first* A-delivery instant.
  if (auto* o = sys_->obs()) o->on_delivered(m->id.origin, m->id.seq, sys_->now(), self_);
  if (m->id.origin == self_ && in_flight_ > 0) --in_flight_;
  if (deliver_sink_ != nullptr) deliver_sink_->on_deliver(*m);
}

void AtomicBroadcastProcess::on_restart() {
  if (flush_timer_ != 0) {
    sys_->scheduler().cancel(flush_timer_);
    flush_timer_ = 0;
  }
  // Accepted-but-unflushed submissions were recorded by the harness the
  // moment a_broadcast returned; dropping them would leave recorded
  // messages undeliverable forever.  Reissue them through the restarted
  // algorithm (the overrider reset its volatile state before calling us).
  flush_queue();
}

}  // namespace fdgm::abcast
