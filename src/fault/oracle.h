// InvariantOracle: audits a ChaosRig run for the safety properties the
// CATOCS stack promises even under adversity —
//   * causal delivery order at every observer (reusing the group.cc checker);
//   * FIFO per sender;
//   * agreement on the total order (same sequence number, same message,
//     everywhere; strictly increasing per observer);
//   * no duplicate delivery at any single incarnation;
//   * no lost delivery: members that were never crashed agree exactly on the
//     set of delivered messages (atomicity among survivors);
//   * view synchrony: a view id names one member set, installed consistently,
//     with ids strictly increasing at each incarnation;
//   * stability monotonicity: the stability floor observed at a member never
//     retreats within a view (it legitimately resets across views — a joiner
//     that has not reported yet empties the floor);
//   * replicated-state agreement at quiescence: every live incarnation's
//     application store is identical — including rejoiners built from a
//     state-transfer snapshot plus redelivery;
//   * recovery completion: every recover event ends in an installed view
//     containing the new incarnation (a wedged rejoin is a finding, not a
//     timeout to shrug at);
//   * bounded memory (only meaningful for runs with a bounded budget): no
//     sampled ledger ever exceeds the configured byte cap, pressure
//     epochs never regress, and the pressure level is monotone
//     non-decreasing within one epoch (hysteresis means de-escalation always
//     starts a new epoch — see resource_budget.h).
//
// A violation is a human-readable string naming the observer, the messages,
// and the instant — enough to replay the seed and break at the moment it
// happens.

#ifndef REPRO_SRC_FAULT_ORACLE_H_
#define REPRO_SRC_FAULT_ORACLE_H_

#include <map>
#include <string>
#include <vector>

#include "src/fault/chaos_rig.h"

namespace fault {

// The oracle stops collecting after this many violations.
inline constexpr size_t kMaxViolations = 16;

struct OracleReport {
  std::vector<std::string> violations;
  uint64_t deliveries_audited = 0;
  uint64_t views_audited = 0;

  bool ok() const { return violations.empty(); }
  std::string Summary() const;
};

// The raw evidence the oracle judges. Audit(const ChaosRig&) packs this from
// a rig; tests hand-build it to prove the oracle *detects* each violation
// class (an oracle that never fires is worse than none).
struct TraceObservations {
  std::vector<ChaosRig::DeliveryRecord> deliveries;
  std::vector<ChaosRig::ViewRecord> views;
  std::vector<ChaosRig::StabilitySample> stability_samples;
  std::vector<ChaosRig::RecoveryStat> recoveries;
  std::vector<ChaosRig::BudgetSample> budget_samples;
  std::vector<catocs::MemberId> always_live;
  std::map<catocs::MemberId, std::map<uint64_t, uint64_t>> live_stores;
};

class InvariantOracle {
 public:
  OracleReport Audit(const ChaosRig& rig) const;
  OracleReport Audit(const TraceObservations& trace) const;
};

}  // namespace fault

#endif  // REPRO_SRC_FAULT_ORACLE_H_
