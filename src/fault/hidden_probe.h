// HiddenChannelProbe: manufactures *known* out-of-band causality inside a
// ChaosRig run, so the provenance recorder's hidden-miss accounting can be
// validated against ground truth instead of taken on faith.
//
// Each probe round, on a deterministic timer:
//   1. pick src = round mod slots (advancing past dead slots) and dst = the
//      next live slot after src;
//   2. m1 = rig.ProbeSend(src): an ordinary ordered multicast;
//   3. src passes a token naming m1 straight to dst over a dedicated port,
//      as an unreliable datagram — out-of-band in ordering (it races m1's
//      own multicast instead of queueing behind it) and in reliability (a
//      dropped token is a lost probe round);
//   4. on token receipt, dst issues m2 = rig.ProbeSend(dst) and injects the
//      hidden edge m2 -> m1 into the recorder.
//
// m2 is a real causal consequence of m1 (it exists only because the token
// arrived), yet m2's vector timestamp reflects m1 only if dst happened to
// causally deliver m1 first — exactly the unrecognized-causality hole of §2.
// Every member that delivers m2 before m1 is a hidden-channel miss.
//
// The probe re-registers its token receiver on recovery rejoins through the
// rig's incarnation hook; a token addressed to a crashed incarnation is
// simply lost, like any other traffic to it.

#ifndef REPRO_SRC_FAULT_HIDDEN_PROBE_H_
#define REPRO_SRC_FAULT_HIDDEN_PROBE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/chaos_rig.h"
#include "src/obs/provenance.h"

namespace fault {

// The out-of-band token: names the probe message the receiver's next send
// will causally depend on. Travels on kProbePort, outside the group's block.
class ProbeToken : public net::Payload {
 public:
  explicit ProbeToken(uint64_t src_key) : src_key_(src_key) {}
  size_t SizeBytes() const override { return 16; }
  std::string Describe() const override { return "probe-token"; }
  uint64_t src_key() const { return src_key_; }

 private:
  uint64_t src_key_;
};

class HiddenChannelProbe {
 public:
  struct Config {
    sim::Duration interval = sim::Duration::Millis(40);
    catocs::OrderingMode mode = catocs::OrderingMode::kCausal;
  };

  // One ground-truth hidden edge: `dependent` was sent because `predecessor`
  // arrived over the token channel.
  struct Edge {
    obs::MsgKey dependent = 0;
    obs::MsgKey predecessor = 0;
  };

  // Registers the token receiver on every current incarnation and installs
  // the rig's incarnation hook for future rejoins. The recorder may be null
  // (edges are then only collected locally — useful for rig-level tests).
  HiddenChannelProbe(ChaosRig* rig, obs::ProvenanceRecorder* recorder);
  HiddenChannelProbe(ChaosRig* rig, obs::ProvenanceRecorder* recorder, Config config);
  ~HiddenChannelProbe();

  HiddenChannelProbe(const HiddenChannelProbe&) = delete;
  HiddenChannelProbe& operator=(const HiddenChannelProbe&) = delete;

  void Start();
  void Stop();

  const std::vector<Edge>& edges() const { return edges_; }
  uint64_t rounds() const { return rounds_; }
  uint64_t edges_injected() const { return edges_injected_; }

 private:
  void Tick();
  void OnToken(size_t slot, uint64_t src_key);
  void RegisterReceiver(size_t slot, net::Transport& transport);

  ChaosRig* rig_;
  obs::ProvenanceRecorder* recorder_;
  Config config_;
  std::unique_ptr<sim::PeriodicTimer> timer_;
  std::vector<Edge> edges_;
  uint64_t rounds_ = 0;
  uint64_t edges_injected_ = 0;
};

// Independent ground-truth recount of hidden-channel misses from the rig's
// delivery records: for each edge and each member that delivered the
// dependent, a miss iff the predecessor was not delivered there first. Must
// equal the recorder's totals().hidden_missed when the recorder's hidden
// edges are exactly `edges` — the oracle cross-check bench_e19 and
// fuzz_chaos --trace run.
uint64_t CountHiddenMisses(const std::vector<ChaosRig::DeliveryRecord>& deliveries,
                           const std::vector<HiddenChannelProbe::Edge>& edges);

}  // namespace fault

#endif  // REPRO_SRC_FAULT_HIDDEN_PROBE_H_
