#include "src/fault/injector.h"

#include <set>
#include <vector>

namespace fault {

void FaultInjector::Install(const FaultPlan& plan) {
  const sim::TimePoint base = simulator_->now();
  for (const FaultEvent& event : plan.events) {
    simulator_->ScheduleAt(base + (event.at - sim::TimePoint::Zero()),
                           [this, event] { Apply(event); });
  }
}

void FaultInjector::Apply(const FaultEvent& event) {
  ++events_applied_;
  net::Network& network = rig_->network();
  switch (event.kind) {
    case FaultKind::kCrash:
      rig_->CrashSlot(event.slot);
      break;
    case FaultKind::kRecover:
      rig_->RecoverSlot(event.slot);
      break;
    case FaultKind::kPartition:
    case FaultKind::kLongPartition: {
      // Resolve slots to their node ids as of now. Down slots are omitted;
      // a slot that recovers mid-partition gets an id unknown to the spec
      // and lands in the implicit extra component (see network.h).
      std::vector<std::set<net::NodeId>> components;
      for (const auto& slots : event.components) {
        std::set<net::NodeId> ids;
        for (size_t slot : slots) {
          if (slot < rig_->num_slots() && rig_->SlotAlive(slot)) {
            ids.insert(rig_->NodeOf(slot));
          }
        }
        if (!ids.empty()) {
          components.push_back(std::move(ids));
        }
      }
      if (components.size() >= 2) {
        network.Partition(components);
        if (event.kind == FaultKind::kLongPartition) {
          // Over-timeout split: the plan carries the heal inside the event
          // (the paired crash/recover of the evicted minority is scheduled
          // by the generator, after this heal).
          simulator_->ScheduleAfter(event.duration,
                                    [&network] { network.HealPartition(); });
        }
      }
      break;
    }
    case FaultKind::kHeal:
      network.HealPartition();
      break;
    case FaultKind::kDropBurst: {
      const double baseline = network.drop_probability();
      network.set_drop_probability(event.value);
      simulator_->ScheduleAfter(event.duration, [&network, baseline] {
        network.set_drop_probability(baseline);
      });
      break;
    }
    case FaultKind::kDuplicateBurst: {
      const double baseline = network.duplicate_probability();
      network.set_duplicate_probability(event.value);
      simulator_->ScheduleAfter(event.duration, [&network, baseline] {
        network.set_duplicate_probability(baseline);
      });
      break;
    }
    case FaultKind::kLatencySpike: {
      const double baseline = network.latency_scale();
      network.set_latency_scale(event.value);
      simulator_->ScheduleAfter(event.duration, [&network, baseline] {
        network.set_latency_scale(baseline);
      });
      break;
    }
    case FaultKind::kSlowReceiver: {
      // Scales the *current incarnation's* inbound latency. If the slot
      // crashes and rejoins mid-window the fresh id is unaffected — the
      // laggard died, which is one legitimate way to stop lagging.
      const net::NodeId node = rig_->NodeOf(event.slot);
      const double baseline = network.node_inbound_scale(node);
      network.set_node_inbound_scale(node, event.value);
      simulator_->ScheduleAfter(event.duration, [&network, node, baseline] {
        network.set_node_inbound_scale(node, baseline);
      });
      break;
    }
    case FaultKind::kOverloadBurst: {
      const double baseline = rig_->overload_factor();
      rig_->SetOverloadFactor(event.value);
      simulator_->ScheduleAfter(event.duration, [this, baseline] {
        rig_->SetOverloadFactor(baseline);
      });
      break;
    }
  }
}

}  // namespace fault
