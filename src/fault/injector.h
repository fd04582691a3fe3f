// FaultInjector: turns a FaultPlan into scheduled simulator events against a
// ChaosRig. Slot-indexed events resolve to concrete node ids at the instant
// they fire (a recovered slot has a fresh id by then); burst events capture
// the pre-burst baseline when applied and schedule their own revert. The
// injector draws nothing from any RNG, so installing a plan perturbs no
// random stream — determinism is preserved under fault injection.

#ifndef REPRO_SRC_FAULT_INJECTOR_H_
#define REPRO_SRC_FAULT_INJECTOR_H_

#include <cstdint>

#include "src/fault/chaos_rig.h"
#include "src/fault/fault_plan.h"

namespace fault {

class FaultInjector {
 public:
  FaultInjector(sim::Simulator* simulator, ChaosRig* rig)
      : simulator_(simulator), rig_(rig) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedules every event of the plan (plus burst reverts) relative to the
  // current simulated time. The injector must outlive the run.
  void Install(const FaultPlan& plan);

  uint64_t events_applied() const { return events_applied_; }

 private:
  void Apply(const FaultEvent& event);

  sim::Simulator* simulator_;
  ChaosRig* rig_;
  uint64_t events_applied_ = 0;
};

}  // namespace fault

#endif  // REPRO_SRC_FAULT_INJECTOR_H_
