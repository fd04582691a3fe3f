#include "src/fault/chaos_rig.h"

#include <cassert>
#include <sstream>
#include <utility>

namespace fault {

ChaosRig::ChaosRig(sim::Simulator* simulator, ChaosRigConfig config)
    : simulator_(simulator), config_(std::move(config)) {
  assert(config_.num_slots >= 2);
  config_.group.enable_membership = true;
  if (config_.group.causal_buffer == catocs::CausalBufferKind::kOverlay) {
    config_.causal_only = true;
  }
  network_ = std::make_unique<net::Network>(
      simulator_, std::make_unique<net::UniformLatency>(config_.latency_lo, config_.latency_hi),
      config_.network);
  std::vector<catocs::MemberId> founding;
  for (size_t slot = 0; slot < config_.num_slots; ++slot) {
    founding.push_back(static_cast<catocs::MemberId>(slot + 1));
  }
  next_id_ = static_cast<catocs::MemberId>(config_.num_slots + 1);
  slots_.resize(config_.num_slots);
  for (size_t slot = 0; slot < config_.num_slots; ++slot) {
    auto inc = std::make_unique<Incarnation>();
    inc->id = founding[slot];
    inc->transport = std::make_unique<net::Transport>(simulator_, network_.get(), inc->id,
                                                      config_.transport);
    inc->member = std::make_unique<catocs::GroupMember>(simulator_, inc->transport.get(),
                                                        config_.group, inc->id, founding);
    WireIncarnation(slot, *inc);
    slots_[slot].incarnations.push_back(std::move(inc));
  }
}

ChaosRig::~ChaosRig() = default;

void ChaosRig::WireIncarnation(size_t slot, Incarnation& inc) {
  catocs::GroupMember* member = inc.member.get();
  Incarnation* raw = &inc;
  member->SetDeliveryHandler([this, slot, raw](const catocs::Delivery& delivery) {
    if (const auto* update = net::PayloadCast<ChaosUpdate>(delivery.payload())) {
      raw->store[update->key()] = update->value();
    }
    deliveries_.push_back(DeliveryRecord{raw->id, slot, delivery});
    stability_samples_.push_back(StabilitySample{raw->id, raw->member->view().id,
                                                 raw->member->stability().StableVector()});
    if (config_.group.budget.bounded()) {
      const catocs::ResourceBudget& budget = raw->member->budget();
      budget_samples_.push_back(BudgetSample{raw->id, simulator_->now(),
                                             budget.pressure_epoch(), budget.pressure(),
                                             budget.used_bytes(),
                                             config_.group.budget.max_bytes});
    }
  });
  member->SetViewHandler([this, raw](const catocs::View& view) {
    views_.push_back(ViewRecord{raw->id, simulator_->now(), view});
    if (raw->rejoiner) {
      for (auto& stat : recoveries_) {
        if (stat.new_id == raw->id && !stat.rejoined) {
          stat.rejoined = true;
          stat.rejoined_at = simulator_->now();
        }
      }
    }
  });
  member->SetStateProvider(
      [raw]() -> net::PayloadPtr { return std::make_shared<ChaosSnapshot>(raw->store); });
  member->SetStateApplier([raw](const net::PayloadPtr& payload) {
    if (const auto* snapshot = net::PayloadCast<ChaosSnapshot>(payload)) {
      raw->store = snapshot->store();
    }
  });
  // A transport give-up is an externally detected failure: feed it to the
  // membership layer so an evicted-but-undetected peer still gets flushed out.
  inc.transport->SetFailureHandler([member](net::NodeId peer) {
    member->ReportFailure(static_cast<catocs::MemberId>(peer));
  });
}

void ChaosRig::Start() {
  for (auto& slot : slots_) {
    slot.incarnations.back()->member->Start();
  }
  workload_running_ = true;
  for (size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].workload = std::make_unique<sim::PeriodicTimer>(
        simulator_, kWorkloadInterval, [this, i] { WorkloadTick(i); });
    // Staggered starts so slots never tick at the same instant.
    slots_[i].workload->Start(sim::Duration::Micros(700 * static_cast<int64_t>(i + 1)));
  }
}

void ChaosRig::StopWorkload() {
  workload_running_ = false;
  for (auto& slot : slots_) {
    if (slot.workload) {
      slot.workload->Stop();
    }
  }
}

void ChaosRig::WorkloadTick(size_t slot) {
  if (!workload_running_ || !slots_[slot].alive) {
    return;
  }
  Incarnation& inc = current(slot);
  const size_t burst = overload_factor_ == 1.0
                           ? config_.workload_burst
                           : static_cast<size_t>(
                                 static_cast<double>(config_.workload_burst) * overload_factor_ +
                                 0.5);
  for (size_t i = 0; i < burst; ++i) {
    const uint64_t counter = ++inc.send_counter;
    const uint64_t key = (static_cast<uint64_t>(inc.id) << 32) | counter;
    const auto mode = (!config_.causal_only && counter % 3 == 0) ? catocs::OrderingMode::kTotal
                                                                 : catocs::OrderingMode::kCausal;
    const catocs::SendResult result = inc.member->TrySend(
        mode, std::make_shared<ChaosUpdate>(key, counter, config_.payload_bytes));
    if (result.status == catocs::SendStatus::kBackpressured) {
      ++sends_backpressured_;
    } else if (result.status == catocs::SendStatus::kShed) {
      ++sends_shed_;
    }
  }
}

catocs::MessageId ChaosRig::ProbeSend(size_t slot, catocs::OrderingMode mode) {
  if (!slots_[slot].alive) {
    return catocs::MessageId{0, 0};
  }
  Incarnation& inc = current(slot);
  const uint64_t counter = ++probe_counter_;
  const uint64_t key = (1ull << 63) | counter;
  return inc.member->Send(mode,
                          std::make_shared<ChaosUpdate>(key, counter, config_.payload_bytes));
}

void ChaosRig::CrashSlot(size_t slot) {
  if (!slots_[slot].alive) {
    return;
  }
  slots_[slot].alive = false;
  slots_[slot].ever_crashed = true;
  Incarnation& inc = current(slot);
  inc.member->Stop();
  network_->SetNodeUp(inc.id, false);
  inc.transport->ResetPeerState();
  RecoveryStat stat;
  stat.slot = slot;
  stat.old_id = inc.id;
  stat.crashed_at = simulator_->now();
  recoveries_.push_back(stat);
}

void ChaosRig::RecoverSlot(size_t slot) {
  if (slots_[slot].alive) {
    return;
  }
  auto inc = std::make_unique<Incarnation>();
  inc->id = next_id_++;
  inc->rejoiner = true;
  inc->transport = std::make_unique<net::Transport>(simulator_, network_.get(), inc->id,
                                                    config_.transport);
  inc->member = std::make_unique<catocs::GroupMember>(
      simulator_, inc->transport.get(), config_.group, inc->id,
      std::vector<catocs::MemberId>{inc->id});
  WireIncarnation(slot, *inc);
  if (incarnation_hook_) {
    incarnation_hook_(slot, *inc->transport, *inc->member);
  }
  inc->member->Start();
  // Slot 0 never crashes (the generator guarantees it), so its founding
  // member is always a valid contact — and, as the lowest id, the flush
  // coordinator that serves the state snapshot.
  const catocs::MemberId contact = current(0).id;
  for (auto& stat : recoveries_) {
    if (stat.slot == slot && !stat.rejoined && stat.new_id == 0) {
      stat.new_id = inc->id;
      stat.recover_started = simulator_->now();
    }
  }
  inc->member->JoinGroup(contact);
  slots_[slot].incarnations.push_back(std::move(inc));
  slots_[slot].alive = true;
}

net::NodeId ChaosRig::NodeOf(size_t slot) const { return current(slot).id; }

const catocs::GroupMember& ChaosRig::MemberOfSlot(size_t slot) const {
  return *current(slot).member;
}

std::vector<catocs::MemberId> ChaosRig::AlwaysLiveMembers() const {
  std::vector<catocs::MemberId> out;
  for (size_t slot = 0; slot < slots_.size(); ++slot) {
    if (!slots_[slot].ever_crashed) {
      out.push_back(current(slot).id);
    }
  }
  return out;
}

std::map<catocs::MemberId, std::map<uint64_t, uint64_t>> ChaosRig::LiveStores() const {
  std::map<catocs::MemberId, std::map<uint64_t, uint64_t>> out;
  for (const auto& slot : slots_) {
    if (slot.alive) {
      const Incarnation& inc = *slot.incarnations.back();
      out.emplace(inc.id, inc.store);
    }
  }
  return out;
}

namespace {

uint64_t Fnv1a(uint64_t hash, const std::string& s) {
  for (unsigned char c : s) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

uint64_t ChaosRig::TraceHash() const {
  uint64_t hash = 14695981039346656037ull;
  std::ostringstream line;
  for (const auto& record : deliveries_) {
    line.str("");
    line << "d " << record.delivery.delivered_at.nanos() << " at=" << record.at
         << " id=" << record.delivery.id().ToString()
         << " mode=" << catocs::ToString(record.delivery.mode())
         << " ts=" << record.delivery.total_seq;
    hash = Fnv1a(hash, line.str());
  }
  for (const auto& record : views_) {
    line.str("");
    line << "v " << record.when.nanos() << " at=" << record.at << " view=" << record.view.id
         << " n=" << record.view.members.size();
    for (catocs::MemberId member : record.view.members) {
      line << " " << member;
    }
    hash = Fnv1a(hash, line.str());
  }
  for (const auto& stat : recoveries_) {
    line.str("");
    line << "r slot=" << stat.slot << " old=" << stat.old_id << " new=" << stat.new_id
         << " crashed=" << stat.crashed_at.nanos()
         << " rejoined=" << (stat.rejoined ? stat.rejoined_at.nanos() : -1);
    hash = Fnv1a(hash, line.str());
  }
  return hash;
}

catocs::PipelineStats ChaosRig::AggregatePipelineStats() const {
  catocs::PipelineStats merged;
  for (const Slot& slot : slots_) {
    for (const auto& inc : slot.incarnations) {
      merged.Merge(inc->member->pipeline_stats());
    }
  }
  return merged;
}

}  // namespace fault
