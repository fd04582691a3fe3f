#include "src/fault/hidden_probe.h"

#include <memory>

namespace fault {

namespace {

// Outside the group's 0x0C000000 port block: the ordering layers never see
// token traffic, which is the whole point.
constexpr uint32_t kProbePort = 0x0B0BE001;

}  // namespace

HiddenChannelProbe::HiddenChannelProbe(ChaosRig* rig, obs::ProvenanceRecorder* recorder)
    : HiddenChannelProbe(rig, recorder, Config()) {}

HiddenChannelProbe::HiddenChannelProbe(ChaosRig* rig, obs::ProvenanceRecorder* recorder,
                                       Config config)
    : rig_(rig), recorder_(recorder), config_(config) {
  for (size_t slot = 0; slot < rig_->num_slots(); ++slot) {
    RegisterReceiver(slot, rig_->TransportOfSlot(slot));
  }
  rig_->SetIncarnationHook(
      [this](size_t slot, net::Transport& transport, catocs::GroupMember& /*member*/) {
        RegisterReceiver(slot, transport);
      });
}

HiddenChannelProbe::~HiddenChannelProbe() {
  Stop();
  rig_->SetIncarnationHook({});
}

void HiddenChannelProbe::Start() {
  timer_ = std::make_unique<sim::PeriodicTimer>(&rig_->simulator(), config_.interval,
                                                [this] { Tick(); });
  // Phase-shifted off the workload ticks so probe sends interleave with (and
  // never shadow) ordinary traffic.
  timer_->Start(config_.interval + sim::Duration::Micros(1337));
}

void HiddenChannelProbe::Stop() {
  if (timer_) {
    timer_->Stop();
  }
}

void HiddenChannelProbe::RegisterReceiver(size_t slot, net::Transport& transport) {
  transport.RegisterReceiver(
      kProbePort, [this, slot](net::NodeId /*src*/, uint32_t /*port*/, const net::PayloadPtr& p) {
        if (const auto* token = net::PayloadCast<ProbeToken>(p)) {
          OnToken(slot, token->src_key());
        }
      });
}

void HiddenChannelProbe::Tick() {
  const size_t n = rig_->num_slots();
  const uint64_t round = rounds_++;
  // Deterministic round-robin over live slots: src rotates with the round,
  // dst is the next live slot after it.
  size_t src = static_cast<size_t>(round % n);
  size_t tried = 0;
  while (tried < n && !rig_->SlotAlive(src)) {
    src = (src + 1) % n;
    ++tried;
  }
  if (tried == n) {
    return;  // nobody alive this round
  }
  size_t dst = (src + 1) % n;
  tried = 0;
  while (tried < n && (dst == src || !rig_->SlotAlive(dst))) {
    dst = (dst + 1) % n;
    ++tried;
  }
  if (tried == n || dst == src) {
    return;  // src is the only live slot
  }
  const catocs::MessageId m1 = rig_->ProbeSend(src, config_.mode);
  if (m1.seq == 0) {
    return;  // dropped or flush-queued: nothing identifiable to token
  }
  // Unreliable datagram, deliberately: the reliable path is FIFO per
  // destination, so a token behind m1's own multicast segment could never
  // overtake it and the "hidden" channel would leak no reordering at all.
  // An unreliable token races m1 on an independent latency sample — the
  // word-of-mouth channel of §2. A dropped token is a lost probe round.
  rig_->TransportOfSlot(src).SendUnreliable(rig_->NodeOf(dst), kProbePort,
                                            std::make_shared<ProbeToken>(catocs::SpanKey(m1)));
}

void HiddenChannelProbe::OnToken(size_t slot, uint64_t src_key) {
  if (!rig_->SlotAlive(slot)) {
    return;  // token outlived the incarnation it was addressed to
  }
  const catocs::MessageId m2 = rig_->ProbeSend(slot, config_.mode);
  if (m2.seq == 0) {
    // Queued behind a flush: the send happens later under an id we never
    // learn. Skipping keeps ground truth and the recorder in exact agreement
    // — neither sees this edge.
    return;
  }
  ++edges_injected_;
  edges_.push_back(Edge{catocs::SpanKey(m2), src_key});
  if (recorder_ != nullptr) {
    recorder_->InjectHiddenEdge(catocs::SpanKey(m2), src_key);
  }
}

uint64_t CountHiddenMisses(const std::vector<ChaosRig::DeliveryRecord>& deliveries,
                           const std::vector<HiddenChannelProbe::Edge>& edges) {
  // Per member: message key -> position in that member's delivery sequence.
  std::map<catocs::MemberId, std::map<obs::MsgKey, size_t>> order;
  for (size_t i = 0; i < deliveries.size(); ++i) {
    order[deliveries[i].at].emplace(catocs::SpanKey(deliveries[i].delivery.id()), i);
  }
  uint64_t misses = 0;
  for (const auto& edge : edges) {
    for (const auto& [member, index_of] : order) {
      auto dep = index_of.find(edge.dependent);
      if (dep == index_of.end()) {
        continue;  // this member never delivered the dependent: no check
      }
      auto pred = index_of.find(edge.predecessor);
      if (pred == index_of.end() || pred->second > dep->second) {
        ++misses;
      }
    }
  }
  return misses;
}

}  // namespace fault
