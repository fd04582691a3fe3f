#include "src/fault/oracle.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "src/catocs/group.h"

namespace fault {

namespace {

using catocs::MemberId;
using catocs::MessageId;

class Collector {
 public:
  explicit Collector(size_t cap) : cap_(cap) {}

  void Add(std::string violation) {
    if (violations_.size() < cap_) {
      violations_.push_back(std::move(violation));
    }
    ++total_;
  }
  bool full() const { return total_ >= cap_; }
  std::vector<std::string> Take() { return std::move(violations_); }

 private:
  size_t cap_;
  size_t total_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace

std::string OracleReport::Summary() const {
  std::ostringstream out;
  out << (ok() ? "OK" : "VIOLATIONS") << " (" << deliveries_audited << " deliveries, "
      << views_audited << " view installs audited)";
  for (const auto& violation : violations) {
    out << "\n  ! " << violation;
  }
  return out.str();
}

OracleReport InvariantOracle::Audit(const ChaosRig& rig) const {
  TraceObservations trace;
  trace.deliveries = rig.deliveries();
  trace.views = rig.views();
  trace.stability_samples = rig.stability_samples();
  trace.recoveries = rig.recoveries();
  trace.budget_samples = rig.budget_samples();
  trace.always_live = rig.AlwaysLiveMembers();
  trace.live_stores = rig.LiveStores();
  return Audit(trace);
}

OracleReport InvariantOracle::Audit(const TraceObservations& trace) const {
  OracleReport report;
  Collector collect(kMaxViolations);

  // Reuse the ordering checkers from group.cc: causal order, FIFO, and
  // total-order agreement are the same properties whether the group is
  // static or chaotic.
  std::vector<catocs::GroupFabric::Record> records;
  records.reserve(trace.deliveries.size());
  for (const auto& record : trace.deliveries) {
    records.push_back(catocs::GroupFabric::Record{record.at, record.delivery});
  }
  report.deliveries_audited = records.size();
  if (std::string err = catocs::CheckCausalDeliveryInvariant(records); !err.empty()) {
    collect.Add("causal-order: " + err);
  }
  if (std::string err = catocs::CheckFifoInvariant(records); !err.empty()) {
    collect.Add("fifo: " + err);
  }
  if (std::string err = catocs::CheckTotalOrderInvariant(records); !err.empty()) {
    collect.Add("total-order: " + err);
  }

  // No duplicate delivery at a single incarnation.
  {
    std::set<std::pair<MemberId, MessageId>> seen;
    for (const auto& record : trace.deliveries) {
      if (!seen.insert({record.at, record.delivery.id()}).second) {
        std::ostringstream out;
        out << "duplicate-delivery: member " << record.at << " delivered "
            << record.delivery.id().ToString() << " twice (second at "
            << record.delivery.delivered_at.nanos() << "ns)";
        collect.Add(out.str());
      }
    }
  }

  // The final agreed view: the highest view id anyone installed. A member
  // evicted from it while still alive (false suspicion under lossy links)
  // wedges under the primary-partition rule instead of seceding, so it
  // legitimately stops delivering; completeness and state agreement apply
  // only to always-live members still inside the final view. With no view
  // change ever recorded, every founding member qualifies.
  std::set<MemberId> final_members;
  bool have_final_view = false;
  uint64_t final_view_id = 0;
  for (const auto& record : trace.views) {
    if (!have_final_view || record.view.id > final_view_id) {
      final_view_id = record.view.id;
      final_members = std::set<MemberId>(record.view.members.begin(), record.view.members.end());
      have_final_view = true;
    }
  }
  const auto in_final_view = [&](MemberId member) {
    return !have_final_view || final_members.count(member) > 0;
  };

  // No lost delivery: never-crashed members of the final view agree exactly
  // on the delivered set (view-synchronous atomicity among survivors).
  {
    const std::vector<MemberId> always = trace.always_live;
    std::map<MemberId, std::set<MessageId>> delivered_at;
    for (MemberId member : always) {
      if (in_final_view(member)) {
        delivered_at[member];  // ensure present even if it delivered nothing
      }
    }
    for (const auto& record : trace.deliveries) {
      auto it = delivered_at.find(record.at);
      if (it != delivered_at.end()) {
        it->second.insert(record.delivery.id());
      }
    }
    std::set<MessageId> union_set;
    for (const auto& [member, set] : delivered_at) {
      union_set.insert(set.begin(), set.end());
    }
    for (const auto& [member, set] : delivered_at) {
      if (collect.full()) {
        break;
      }
      for (const MessageId& id : union_set) {
        if (!set.count(id)) {
          std::ostringstream out;
          out << "lost-delivery: member " << member << " (never crashed) missed "
              << id.ToString() << " which another live member delivered";
          collect.Add(out.str());
          if (collect.full()) {
            break;
          }
        }
      }
    }
  }

  // View synchrony: one member set per view id, ids strictly increasing per
  // incarnation.
  {
    report.views_audited = trace.views.size();
    std::map<uint64_t, std::vector<MemberId>> members_of_view;
    std::map<MemberId, uint64_t> last_view_at;
    for (const auto& record : trace.views) {
      auto [it, inserted] = members_of_view.emplace(record.view.id, record.view.members);
      if (!inserted && it->second != record.view.members) {
        std::ostringstream out;
        out << "view-synchrony: view " << record.view.id << " installed at member " << record.at
            << " with a different member set than elsewhere (split brain)";
        collect.Add(out.str());
      }
      auto [last, first_install] = last_view_at.emplace(record.at, record.view.id);
      if (!first_install) {
        if (record.view.id <= last->second) {
          std::ostringstream out;
          out << "view-synchrony: member " << record.at << " installed view " << record.view.id
              << " after view " << last->second;
          collect.Add(out.str());
        }
        last->second = record.view.id;
      }
    }
  }

  // Stability monotonicity within a view: the floor a member observes never
  // retreats until the member set changes.
  {
    struct Last {
      uint64_t view_id = 0;
      catocs::VectorClock stable;
      bool valid = false;
    };
    std::map<MemberId, Last> last_sample;
    for (const auto& sample : trace.stability_samples) {
      Last& last = last_sample[sample.at];
      if (last.valid && last.view_id == sample.view_id) {
        for (const auto& [sender, value] : last.stable.entries()) {
          if (sample.stable.Get(sender) < value) {
            std::ostringstream out;
            out << "stability-regression: member " << sample.at << " in view " << sample.view_id
                << " saw the stable floor for sender " << sender << " fall from " << value
                << " to " << sample.stable.Get(sender);
            collect.Add(out.str());
            break;
          }
        }
      }
      last.view_id = sample.view_id;
      last.stable = sample.stable;
      last.valid = true;
    }
  }

  // Replicated-state agreement at quiescence: every live incarnation —
  // including rejoiners rebuilt from snapshot + redelivery — holds the same
  // application store.
  {
    auto stores = trace.live_stores;
    for (auto it = stores.begin(); it != stores.end();) {
      it = in_final_view(it->first) ? std::next(it) : stores.erase(it);
    }
    if (!stores.empty()) {
      const auto& [ref_member, ref_store] = *stores.begin();
      for (const auto& [member, store] : stores) {
        if (store != ref_store) {
          std::ostringstream out;
          size_t missing = 0;
          size_t extra = 0;
          for (const auto& [key, value] : ref_store) {
            auto it = store.find(key);
            if (it == store.end() || it->second != value) {
              ++missing;
            }
          }
          for (const auto& [key, value] : store) {
            if (!ref_store.count(key)) {
              ++extra;
            }
          }
          out << "state-divergence: member " << member << " store differs from member "
              << ref_member << " (" << missing << " missing/changed, " << extra
              << " extra of " << ref_store.size() << " keys)";
          collect.Add(out.str());
        }
      }
    }
  }

  // Bounded memory: no sampled ledger exceeds its configured cap, and the
  // pressure signal behaves as documented — epochs never regress at a
  // member, and within one epoch the level is monotone non-decreasing
  // (escalation is immediate; de-escalation always opens a new epoch).
  {
    struct LastPressure {
      uint64_t epoch = 0;
      int level = 0;
      bool valid = false;
    };
    std::map<MemberId, LastPressure> last_pressure;
    for (const auto& sample : trace.budget_samples) {
      if (collect.full()) {
        break;
      }
      if (sample.max_bytes != 0 && sample.used_bytes > sample.max_bytes) {
        std::ostringstream out;
        out << "budget-exceeded: member " << sample.at << " at " << sample.when.nanos()
            << "ns held " << sample.used_bytes << " bytes against a cap of "
            << sample.max_bytes;
        collect.Add(out.str());
      }
      LastPressure& last = last_pressure[sample.at];
      const int level = static_cast<int>(sample.level);
      if (last.valid) {
        if (sample.epoch < last.epoch) {
          std::ostringstream out;
          out << "pressure-epoch-regression: member " << sample.at << " at "
              << sample.when.nanos() << "ns went from epoch " << last.epoch << " back to "
              << sample.epoch;
          collect.Add(out.str());
        } else if (sample.epoch == last.epoch && level < last.level) {
          std::ostringstream out;
          out << "pressure-regression: member " << sample.at << " at " << sample.when.nanos()
              << "ns de-escalated from " << catocs::ToString(
                     static_cast<catocs::MemoryPressure>(last.level))
              << " to " << catocs::ToString(sample.level) << " without a new epoch";
          collect.Add(out.str());
        }
      }
      last.epoch = sample.epoch;
      last.level = level;
      last.valid = true;
    }
  }

  // Every recovery completed: the fresh incarnation installed a view
  // containing itself.
  {
    for (const auto& stat : trace.recoveries) {
      if (stat.new_id != 0 && !stat.rejoined) {
        std::ostringstream out;
        out << "wedged-rejoin: slot " << stat.slot << " (old id " << stat.old_id
            << ", new id " << stat.new_id << ") started rejoining at "
            << stat.recover_started.nanos() << "ns but never installed a view with itself";
        collect.Add(out.str());
      }
    }
  }

  report.violations = collect.Take();
  return report;
}

}  // namespace fault
