#include "abcast/fd_abcast.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/observer.hpp"

namespace fdgm::abcast {

namespace {
/// Crash-recovery catch-up: period (ms) of the watchdog that re-requests
/// a log sync from the peers while the recovered process is behind.
constexpr double kSyncRetryMs = 100.0;
}  // namespace

// ------------------------------------------------ crash-recovery wire types
// Payload kinds on kAtomicBroadcast: the FD stack uses 0..7, the GM stack
// (gm_abcast.cpp) 8..15, so the two stacks can never mis-cast each
// other's payloads even inside one test binary.

/// "Send me everything after log position `log_len`."
class FdAbcastProcess::SyncReq final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kAtomicBroadcast;
  static constexpr std::uint8_t kKind = 0;
  explicit SyncReq(std::uint64_t log_len) : Payload(kProto, kKind), log_len(log_len) {}
  std::uint64_t log_len;
};

/// A peer's snapshot: the log suffix the requester misses, the peer's
/// consensus position, its rotation anchors and its undecided contents.
class FdAbcastProcess::SyncResp final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kAtomicBroadcast;
  static constexpr std::uint8_t kKind = 1;
  SyncResp() : Payload(kProto, kKind) {}
  std::uint64_t from_len = 0;         // echo of the request
  std::vector<AppMessagePtr> suffix;  // log()[from_len..)
  std::uint64_t next = 1;             // peer's next_to_process_
  /// Rotation anchors (decision number, winner), in number order.
  std::vector<std::pair<std::uint64_t, net::ProcessId>> winners;
  std::vector<AppMessagePtr> pending;  // undecided contents
};

FdAbcastProcess::FdAbcastProcess(net::System& sys, net::ProcessId self, fd::FailureDetector& fd,
                                 FdAbcastConfig cfg)
    : AtomicBroadcastProcess(sys, self, cfg.batching),
      fd_(&fd),
      cfg_(cfg),
      consensus_(sys, self, fd, *this, /*first_number=*/1) {
  sys.node(self).register_handler(net::ProtocolId::kReliableBroadcast, this);
  sys.node(self).register_handler(net::ProtocolId::kAtomicBroadcast, this);
}

FdAbcastProcess::~FdAbcastProcess() {
  sys_->node(self_).register_handler(net::ProtocolId::kReliableBroadcast, nullptr);
  sys_->node(self_).register_handler(net::ProtocolId::kAtomicBroadcast, nullptr);
}

FdAbcastProcess::DataPlaneSizes FdAbcastProcess::data_plane_dbg() const {
  return {pending_count_, pending_.slots(), delivered_words(),
          consensus_.decided_words_dbg(), starts_.size(), cohorts_.size()};
}

void FdAbcastProcess::disseminate(const AppMessagePtr* msgs, std::size_t count) {
  // One data multicast (and later one proposal slot) carries the whole
  // batch; receivers unpack it back into per-message pending entries, so
  // the ordering machinery below is the same for any batch size.  The
  // local R-delivery follows the multicast (see the header).
  const net::PayloadPtr data = data_payload(msgs, count);
  sys_->node(self_).multicast_others(sys_->all(), net::ProtocolId::kReliableBroadcast, data);
  on_rdeliver(data);
}

// ------------------------------------------------- crash-recovery catch-up

void FdAbcastProcess::on_restart() {
  // Stable storage: the base's A-delivery record (apply_sync_resp extends
  // it by the synced suffix), the message counter and the submission
  // queue (the base class re-flushes it).  Decisions and message contents
  // are objective data and stay; only this incarnation's instance starts
  // are void (our in-flight proposals died with us), so every
  // still-pending id becomes proposable again.
  starts_.clear();
  rebound_cohorts();
  AtomicBroadcastProcess::on_restart();
  syncing_ = true;
  ++sync_epoch_;
  send_sync_req();
  watch_log_ = delivered_count();
  watch_next_ = next_to_process_;
  const std::uint64_t epoch = sync_epoch_;
  sys_->scheduler().schedule_after(kSyncRetryMs, [this, epoch] { catchup_tick(epoch); });
}

void FdAbcastProcess::send_sync_req() {
  if (sys_->n() == 1) {
    syncing_ = false;  // single-process system: nothing to catch up on
    return;
  }
  sys_->node(self_).multicast_others(sys_->all(), net::ProtocolId::kAtomicBroadcast,
                                     sys_->arena().make<SyncReq>(delivered_count()));
}

void FdAbcastProcess::catchup_tick(std::uint64_t epoch) {
  if (epoch != sync_epoch_) return;   // superseded by a newer restart
  if (sys_->node(self_).crashed()) return;  // dies with us; a restart re-arms
  // Re-request while behind: either no peer answered yet, or nothing
  // progressed over a whole period although work is outstanding (a
  // decision or content we will never receive was in flight during the
  // previous sync).  A healthy process makes progress between ticks and
  // sends nothing here.
  const bool stalled = delivered_count() == watch_log_ && next_to_process_ == watch_next_;
  const bool outstanding = pending_count_ > 0 || !ready_decisions_.empty();
  if (syncing_ || (stalled && outstanding)) send_sync_req();
  if (!syncing_ && !outstanding) return;  // caught up and quiet: the watchdog retires
  watch_log_ = delivered_count();
  watch_next_ = next_to_process_;
  sys_->scheduler().schedule_after(kSyncRetryMs, [this, epoch] { catchup_tick(epoch); });
}

void FdAbcastProcess::handle_sync_req(net::ProcessId from, const SyncReq& req) {
  // Only a peer that can cover the whole missing suffix responds, and only
  // the first such peer by id (by local suspicion knowledge) — the
  // requester ignores duplicates, this merely bounds the traffic.
  if (delivered_count() < req.log_len) return;
  for (net::ProcessId q : sys_->all())
    if (q != from && q != self_ && q < self_ && !fd_->suspects(q)) return;
  SyncResp* resp = sys_->arena().make<SyncResp>();
  resp->from_len = req.log_len;
  resp->suffix.assign(log().begin() + static_cast<std::ptrdiff_t>(req.log_len), log().end());
  resp->next = next_to_process_;
  resp->winners.reserve(winners_.size());
  winners_.for_each([resp](std::uint64_t number, net::ProcessId winner) {
    resp->winners.emplace_back(number, winner);
  });
  resp->pending.reserve(pending_count_);
  pending_.for_each([resp](const MsgId&, const Pending& p) { resp->pending.push_back(p.msg); });
  sys_->node(self_).send(from, net::ProtocolId::kAtomicBroadcast, resp);
}

void FdAbcastProcess::apply_sync_resp(const SyncResp& resp) {
  if (resp.from_len != delivered_count()) return;  // stale (an earlier sync applied)
  syncing_ = false;
  for (AppMessagePtr msg : resp.suffix) {
    if (delivered(msg->id)) continue;
    if (pending_.find(msg->id) != nullptr) erase_pending(msg->id);
    deliver(msg);
  }
  for (AppMessagePtr msg : resp.pending) admit_data(msg);
  if (resp.next > next_to_process_) {
    next_to_process_ = resp.next;
    // Prune first, then adopt the peer's anchors inside the window: the
    // same set as adopting all and pruning after, without stretching the
    // window over the decisions skipped.
    prune_winners();
    for (const auto& [number, winner] : resp.winners)
      if (number + kPipeline >= next_to_process_) winners_.assign(number, winner);
    ready_decisions_.erase_below(next_to_process_);
    consensus_.close_below(next_to_process_);
  }
  process_ready_decisions();
  maybe_start_next();
}

void FdAbcastProcess::on_message(const net::Message& m) {
  if (m.proto == net::ProtocolId::kReliableBroadcast) {
    on_rdeliver(m.payload);
    return;
  }
  if (auto req = net::payload_cast<SyncReq>(m)) {
    handle_sync_req(m.src, *req);
    return;
  }
  if (auto resp = net::payload_cast<SyncResp>(m)) {
    apply_sync_resp(*resp);
    return;
  }
  throw std::logic_error("FdAbcastProcess: foreign payload");
}

void FdAbcastProcess::on_rdeliver(net::PayloadPtr payload) {
  bool admitted = false;
  if (!for_each_message(payload, [&](AppMessagePtr m) { admitted |= admit_data(m); }))
    throw std::logic_error("FdAbcastProcess: bad data payload");
  if (!admitted) return;  // everything in it was already delivered (log sync)
  process_ready_decisions();  // a decision may have been waiting for this content
  maybe_start_next();
}

bool FdAbcastProcess::admit_data(AppMessagePtr msg) {
  if (delivered(msg->id)) return false;
  Pending& p = pending_.slot(msg->id);
  if (p.msg == nullptr) {
    p.msg = msg;
    p.admission = admissions_++;
    ++cohorts_.back().count;
    ++pending_count_;
  }
  return true;
}

void FdAbcastProcess::erase_pending(const MsgId& id) {
  Pending& p = *pending_.find(id);
  // Its cohort: the last one that starts at or before its admission.
  auto c = cohorts_.end() - 1;
  while (c->first > p.admission) --c;
  --c->count;
  p = Pending{};
  --pending_count_;
  pending_.release(id);
}

void FdAbcastProcess::rebound_cohorts() {
  // Both lists ascend (starts_ by `admitted`, in start order), so one
  // merge pass keeps the cohorts a live start bounds and folds the others
  // into their predecessor.
  std::size_t kept = 0;
  std::size_t s = 0;
  for (std::size_t i = 1; i < cohorts_.size(); ++i) {
    while (s < starts_.size() && starts_[s].admitted < cohorts_[i].first) ++s;
    if (s < starts_.size() && starts_[s].admitted == cohorts_[i].first)
      cohorts_[++kept] = cohorts_[i];
    else
      cohorts_[kept].count += cohorts_[i].count;
  }
  cohorts_.resize(kept + 1);
  if (!starts_.empty() && cohorts_.back().first < starts_.back().admitted)
    cohorts_.push_back(Cohort{starts_.back().admitted, 0});
}

int FdAbcastProcess::offset_for(std::uint64_t number) const {
  if (!cfg_.renumbering || number <= kPipeline) return 0;
  const net::ProcessId winner = winners_.get(number - kPipeline);
  return winner == kNoWinner ? 0 : winner;
}

void FdAbcastProcess::prune_winners() {
  if (next_to_process_ > kPipeline) winners_.erase_below(next_to_process_ - kPipeline);
}

void FdAbcastProcess::record_start(std::uint64_t number) {
  // `number` is an instance not yet applied here, so above swept_.
  std::erase_if(starts_, [number](const Start& st) { return st.number <= number; });
  starts_.push_back(Start{number, admissions_});
  rebound_cohorts();
  // Causal anchor: the consensus round covering these messages starts
  // here; the walker closes the interval at the decision (on_ordered).
  if (auto* o = sys_->obs(); o != nullptr && o->causal()) {
    obs::MsgRefList refs;
    pending_.for_each([&refs](const MsgId& id, const Pending&) { refs.add(id.origin, id.seq); });
    o->trace_marker(obs::EdgeKind::kConsStart, self_, refs, sys_->now());
  }
}

net::PayloadPtr FdAbcastProcess::pending_proposal() {
  std::vector<MsgId> ids;
  ids.reserve(pending_count_);
  pending_.for_each([&ids](const MsgId& id, const Pending&) { ids.push_back(id); });
  return sys_->arena().make<Proposal>(self_, std::move(ids));
}

consensus::StartInfo FdAbcastProcess::make_start_info(std::uint64_t number) {
  record_start(number);
  const int offset = offset_for(number);
  // Only the round-1 coordinator proposes its initial value.  Anyone
  // else's would ride an ESTIMATE with timestamp 0, which is never chosen
  // (StartInfo::initial): a payload is built only where it is sent.
  const bool proposes = consensus::coordinator_of(sys_->all(), offset, 1) == self_;
  return consensus::StartInfo{
      .members = &sys_->all(),
      .coordinator_offset = offset,
      .initial = proposes ? pending_proposal() : nullptr,
      // Recovery rounds with no locked value may batch in later arrivals.
      .refresh =
          [this, number] {
            record_start(number);
            return pending_proposal();
          },
  };
}

void FdAbcastProcess::maybe_start_next() {
  // Start the lowest startable instance when some pending message is not
  // yet covered by a proposal of ours.  Messages arriving while the
  // pipeline is full batch into a later instance (aggregation, §4.1).
  //
  // The uncovered ids are every pending id while no start is live, else
  // the last cohort's: a count read, O(1) instead of an O(pending) scan
  // per delivery/arrival, which dominated large-n runs.
  if ((starts_.empty() ? pending_count_ : cohorts_.back().count) == 0) return;
  std::uint64_t k = next_to_process_;
  while (can_start(k)) {
    if (!consensus_.running(k) && !consensus_.decided(k)) {
      consensus_.start(k, make_start_info(k));
      return;
    }
    ++k;
  }
}

std::optional<consensus::StartInfo> FdAbcastProcess::join(std::uint64_t number) {
  // Traffic for instances beyond the pipeline window is buffered until our
  // decisions catch up (retry_buffered is called as they are processed).
  if (!can_start(number)) return std::nullopt;
  return make_start_info(number);
}

void FdAbcastProcess::on_decide(std::uint64_t number, net::PayloadPtr value) {
  const Proposal* prop = net::payload_cast<Proposal>(value);
  if (prop == nullptr) throw std::logic_error("FdAbcastProcess: bad decision payload");
  // A consensus decision fixes the global order of every message it
  // covers; first-write-wins in the observer makes this the *earliest*
  // decision instant across the n processes deciding the instance.
  if (auto* o = sys_->obs()) {
    for (const MsgId& id : prop->ids) o->on_ordered(id.origin, id.seq, sys_->now());
  }
  ready_decisions_.emplace(number, prop);
  process_ready_decisions();
  maybe_start_next();
}

void FdAbcastProcess::process_ready_decisions() {
  bool applied = false;
  while (true) {
    const Proposal* ready = ready_decisions_.get(next_to_process_);
    if (ready == nullptr) break;
    const Proposal& prop = *ready;
    // Deliver the decision's messages in id order.  All correct processes
    // apply the same vector, so the delivery order is identical everywhere.
    for (const MsgId& id : prop.ids) {
      if (delivered(id)) continue;
      const Pending* p = pending_.find(id);
      if (p == nullptr) return;  // content not yet R-delivered; retry on arrival
      AppMessagePtr msg = p->msg;
      erase_pending(id);
      deliver(msg);
    }
    // Re-proposal: ids covered only by starts at or below the decision
    // just applied (their latest proposal lost) become uncovered again.
    swept_ = next_to_process_;
    std::erase_if(starts_, [this](const Start& st) { return st.number <= swept_; });
    rebound_cohorts();
    winners_.emplace(next_to_process_, prop.proposer);
    prune_winners();
    ready_decisions_.erase(next_to_process_);
    ++next_to_process_;
    applied = true;
  }
  // The window may have opened: retry joins buffered by the service and
  // any local starts we deferred.  The window (can_start) only moves when
  // next_to_process_ advanced, so the retry is skipped — identically, not
  // just cheaply — when nothing was applied: this function runs on every
  // content arrival.
  if (!applied) return;
  consensus_.retry_buffered();
  maybe_start_next();
}

}  // namespace fdgm::abcast

namespace fdgm::obs {

// Defined here because the Proposal payload is private to the FD stack.
void classify_fd_payload(net::PayloadPtr p, MsgRefList& out) {
  using Proposal = abcast::FdAbcastProcess::Proposal;
  if (const auto* prop = net::payload_cast<Proposal>(p)) {
    for (const abcast::MsgId& id : prop->ids) out.add(id.origin, id.seq);
  }
  // SyncReq / SyncResp are recovery control traffic: no live message of
  // the steady-state critical path rides them.
}

}  // namespace fdgm::obs
