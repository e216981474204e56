// Cold-path side of the causal tracing layer: the generic payload
// classifier and the critical-path walker (see causal.hpp for the edge
// model and obs/observer.hpp for the hot-path recording).
//
// Walker algorithm: for each delivered message the lifecycle span gives
// three phase windows — submission wait [submit, order_start), ordering
// [order_start, ordered) and delivery [ordered, delivered).  The
// message's recorded edges become candidate intervals (stalls carry
// their own interval; hop markers are paired FIFO per (kind, node);
// kSeqEnter / kConsStart anchor intervals that close at the ordering
// instant).  Within each phase the candidates claim time greedily in
// priority order — loss-recovery stalls first, then protocol queues,
// then CPU/wire hops — over a disjoint-interval sweep, so overlapping
// evidence (a frame retransmitted three times, ten hops of the same
// batch) never double-counts a millisecond.  Whatever no candidate
// explains falls into the phase's default bucket; the per-cause sums of
// a message therefore add up to its end-to-end latency exactly.
#include "obs/causal.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <unordered_map>

#include "abcast/abcast.hpp"
#include "consensus/types.hpp"
#include "obs/observer.hpp"

namespace fdgm::obs {

const char* cause_name(Cause c) {
  switch (c) {
    case Cause::kCreditWait: return "credit_wait";
    case Cause::kBatchWait: return "batch_wait";
    case Cause::kCpuQueue: return "cpu_queue";
    case Cause::kWire: return "wire";
    case Cause::kLossNack: return "loss_nack";
    case Cause::kLossTimer: return "loss_timer";
    case Cause::kLossBackoff: return "loss_backoff";
    case Cause::kSeqQueue: return "seq_queue";
    case Cause::kConsensusRound: return "consensus_round";
    case Cause::kReorderHold: return "reorder_hold";
    case Cause::kCount: break;
  }
  return "unknown";
}

void classify_payload(net::PayloadPtr p, MsgRefList& out) {
  if (p == nullptr) return;
  switch (p->payload_proto()) {
    case net::ProtocolId::kApplication:
      abcast::for_each_message(
          p, [&out](abcast::AppMessagePtr m) { out.add(m->id.origin, m->id.seq); });
      return;
    case net::ProtocolId::kConsensus:
      // ESTIMATE / PROPOSE / DECIDE carry the candidate decision value (a
      // Proposal of message ids); ACK / NACK carry nothing.
      if (const auto* c = net::payload_cast<consensus::ConsensusMsg>(p)) {
        classify_payload(c->value, out);
      }
      return;
    case net::ProtocolId::kAtomicBroadcast:
      // Kind split per the stacks' convention: FD owns 0..7, GM 8..15.
      if (p->payload_kind() < 8)
        classify_fd_payload(p, out);
      else
        classify_gm_payload(p, out);
      return;
    default:
      // Membership / state transfer / workload / transport control frames
      // carry no live application message.
      return;
  }
}

namespace {

/// One candidate interval with its cause bucket.
struct Cand {
  double t0;
  double t1;
  Cause cause;
};

/// Disjoint claimed-interval list (sorted, non-overlapping).  claim()
/// returns the measure of [t0, t1) not yet covered and inserts it.
class ClaimSet {
 public:
  double claim(double t0, double t1) {
    if (t1 <= t0) return 0.0;
    double gained = t1 - t0;
    // Subtract overlaps with existing intervals; gather the merge range.
    std::size_t first = 0;
    while (first < iv_.size() && iv_[first].second < t0) ++first;
    std::size_t last = first;
    double lo = t0;
    double hi = t1;
    while (last < iv_.size() && iv_[last].first <= t1) {
      const double o0 = std::max(t0, iv_[last].first);
      const double o1 = std::min(t1, iv_[last].second);
      if (o1 > o0) gained -= o1 - o0;
      lo = std::min(lo, iv_[last].first);
      hi = std::max(hi, iv_[last].second);
      ++last;
    }
    iv_.erase(iv_.begin() + static_cast<std::ptrdiff_t>(first),
              iv_.begin() + static_cast<std::ptrdiff_t>(last));
    iv_.insert(iv_.begin() + static_cast<std::ptrdiff_t>(first), {lo, hi});
    return std::max(gained, 0.0);
  }

  void reset() { iv_.clear(); }

 private:
  std::vector<std::pair<double, double>> iv_;
};

/// FIFO pairing key for hop markers: (kind, node).
struct PairKey {
  EdgeKind kind;
  std::int16_t node;
  friend bool operator==(const PairKey&, const PairKey&) = default;
};
struct PairKeyHash {
  std::size_t operator()(const PairKey& k) const {
    return (static_cast<std::size_t>(k.kind) << 16) ^
           static_cast<std::size_t>(static_cast<std::uint16_t>(k.node));
  }
};

[[nodiscard]] constexpr EdgeKind open_of(EdgeKind done) {
  switch (done) {
    case EdgeKind::kSendDone: return EdgeKind::kSendEnq;
    case EdgeKind::kWireDone: return EdgeKind::kWireEnq;
    case EdgeKind::kRecvDone: return EdgeKind::kRecvEnq;
    case EdgeKind::kReorderRel: return EdgeKind::kReorderEnq;
    default: return EdgeKind::kCount;
  }
}

[[nodiscard]] constexpr Cause hop_cause(EdgeKind done) {
  switch (done) {
    case EdgeKind::kSendDone:
    case EdgeKind::kRecvDone: return Cause::kCpuQueue;
    case EdgeKind::kWireDone: return Cause::kWire;
    case EdgeKind::kReorderRel: return Cause::kReorderHold;
    default: return Cause::kCount;
  }
}

[[nodiscard]] constexpr Cause stall_cause(EdgeKind k) {
  switch (k) {
    case EdgeKind::kStallNack: return Cause::kLossNack;
    case EdgeKind::kStallTimer: return Cause::kLossTimer;
    case EdgeKind::kStallBackoff: return Cause::kLossBackoff;
    default: return Cause::kCount;
  }
}

}  // namespace

std::vector<MsgCausal> Observer::critical_paths(double from, double to) const {
  std::vector<MsgCausal> out;
  if (edges_.empty() && spans_.empty()) return out;

  // Bucket each origin's edges by message sequence number once (cold
  // path; the slabs are in chronological recording order, which the
  // FIFO hop pairing below relies on).
  for (int origin = 0; origin < n_; ++origin) {
    const auto& spans = spans_[static_cast<std::size_t>(origin)];
    std::unordered_map<std::uint32_t, std::vector<const Edge*>> by_seq;
    if (static_cast<std::size_t>(origin) < edges_.size()) {
      for (const Edge& e : edges_[static_cast<std::size_t>(origin)]) by_seq[e.seq].push_back(&e);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.submit < from || s.submit >= to || s.delivered < 0.0) continue;
      const double sub = s.submit;
      const double os = s.order_start;
      const double od = s.ordered;
      const double del = s.delivered;

      MsgCausal mc;
      mc.origin = origin;
      mc.seq = static_cast<std::uint64_t>(i) + 1;
      mc.submit = sub;
      mc.delivered = del;

      // ---- candidate intervals from this message's edges ----
      std::vector<Cand> cands;
      bool credit_closed = false;
      bool seq_entered = false;
      const auto it = by_seq.find(static_cast<std::uint32_t>(mc.seq));
      if (it != by_seq.end()) {
        std::unordered_map<PairKey, std::vector<double>, PairKeyHash> open;
        std::unordered_map<PairKey, std::size_t, PairKeyHash> head;
        for (const Edge* e : it->second) {
          if (const Cause sc = stall_cause(e->kind); sc != Cause::kCount) {
            cands.push_back({e->t0, e->t1, sc});
            continue;
          }
          switch (e->kind) {
            case EdgeKind::kSendEnq:
            case EdgeKind::kWireEnq:
            case EdgeKind::kRecvEnq:
            case EdgeKind::kReorderEnq:
              open[PairKey{e->kind, e->node}].push_back(e->t0);
              break;
            case EdgeKind::kSendDone:
            case EdgeKind::kWireDone:
            case EdgeKind::kRecvDone:
            case EdgeKind::kReorderRel: {
              const PairKey k{open_of(e->kind), e->node};
              auto oit = open.find(k);
              std::size_t& h = head[k];
              if (oit != open.end() && h < oit->second.size()) {
                cands.push_back({oit->second[h], e->t0, hop_cause(e->kind)});
                ++h;
              }
              break;
            }
            case EdgeKind::kSeqEnter:
              seq_entered = true;
              cands.push_back({e->t0, od, Cause::kSeqQueue});
              break;
            case EdgeKind::kConsStart:
              cands.push_back({e->t0, od, Cause::kConsensusRound});
              break;
            case EdgeKind::kCreditClosed:
              credit_closed = true;
              break;
            default:
              break;
          }
        }
      }
      // Priority order of the greedy claim: loss-recovery stalls explain
      // time before protocol queues, which explain it before generic
      // CPU/wire hops (the hops of the recovering frame overlap its
      // stall; the stall is the *reason*).
      std::stable_sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
        auto rank = [](Cause c) {
          switch (c) {
            case Cause::kLossNack: return 0;
            case Cause::kLossTimer: return 1;
            case Cause::kLossBackoff: return 2;
            case Cause::kSeqQueue: return 3;
            case Cause::kConsensusRound: return 4;
            case Cause::kReorderHold: return 5;
            case Cause::kCpuQueue: return 6;
            default: return 7;  // kWire and anything else
          }
        };
        return rank(a.cause) < rank(b.cause);
      });

      // ---- per-phase claim sweep; residual goes to the phase default ----
      struct Phase {
        double lo, hi;
        Cause fallback;
      };
      const Phase phases[3] = {
          {sub, os, credit_closed ? Cause::kCreditWait : Cause::kBatchWait},
          {os, od, seq_entered ? Cause::kSeqQueue : Cause::kConsensusRound},
          {od, del, Cause::kWire},
      };
      ClaimSet claims;
      for (const Phase& ph : phases) {
        if (ph.hi <= ph.lo) continue;
        claims.reset();
        double claimed = 0.0;
        for (const Cand& c : cands) {
          const double t0 = std::max(c.t0, ph.lo);
          const double t1 = std::min(c.t1, ph.hi);
          if (t1 <= t0) continue;
          const double got = claims.claim(t0, t1);
          mc.ms[static_cast<std::size_t>(c.cause)] += got;
          claimed += got;
        }
        // Exact-sum residual: the phase's unexplained remainder.
        const double residual = (ph.hi - ph.lo) - claimed;
        if (residual > 0.0) mc.ms[static_cast<std::size_t>(ph.fallback)] += residual;
      }
      out.push_back(mc);
    }
  }
  return out;
}

CauseTotals Observer::cause_totals(double from, double to) const {
  CauseTotals t;
  for (const MsgCausal& m : critical_paths(from, to)) {
    ++t.count;
    for (std::size_t c = 0; c < kCauseCount; ++c) t.sums[c] += m.ms[c];
  }
  return t;
}

void Observer::write_critical_path_csv(std::ostream& os) const {
  os << std::setprecision(17);
  os << "origin,seq,submit_ms,delivered_ms,latency_ms";
  for (std::size_t c = 0; c < kCauseCount; ++c) os << ',' << cause_name(static_cast<Cause>(c));
  os << '\n';
  const auto paths = critical_paths(0.0, std::numeric_limits<double>::infinity());
  std::array<std::vector<double>, kCauseCount> per_cause;
  for (const MsgCausal& m : paths) {
    os << m.origin << ',' << m.seq << ',' << m.submit << ',' << m.delivered << ','
       << m.delivered - m.submit;
    for (std::size_t c = 0; c < kCauseCount; ++c) {
      os << ',' << m.ms[c];
      per_cause[c].push_back(m.ms[c]);
    }
    os << '\n';
  }
  // Aggregate footer (comment lines, so the per-message block stays a
  // plain CSV): per-cause sum and p50/p99 across messages.
  auto quant = [](std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
    return v[k];
  };
  os << "# cause,sum_ms,p50_ms,p99_ms over " << paths.size() << " messages\n";
  for (std::size_t c = 0; c < kCauseCount; ++c) {
    double sum = 0.0;
    for (double v : per_cause[c]) sum += v;
    os << "# " << cause_name(static_cast<Cause>(c)) << ',' << sum << ','
       << quant(per_cause[c], 0.5) << ',' << quant(per_cause[c], 0.99) << '\n';
  }
}

}  // namespace fdgm::obs
