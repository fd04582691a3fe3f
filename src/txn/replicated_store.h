// Replicated key-value stores, both sides of the §4.4 comparison.
//
// TxnCoordinator/TxnReplica — the transactional design (HARP-like):
// two-phase commit over reliable transport with a read-any /
// write-all-available policy. Every write (or write *group* — "say
// together") is prepared at all replicas on the availability list; replicas
// force a WAL record before voting, so a committed write is durable.
// Replicas may vote NO for state-level reasons (storage, protection — the
// paper's limitation 2), aborting the group atomically. Replicas that time
// out during prepare are dropped from the availability list and the write
// commits with the survivors — matching CATOCS's failure behavior without
// giving up grouping or durability.
//
// CatocsPrimary/CatocsReplica — the CATOCS design (Deceit-like): a single
// primary updater causally multicasts updates to the replica group and
// acknowledges the client after `write_safety_level` replica acks. Level 0
// is fully asynchronous — and loses the update if the primary dies first
// (non-durability, §2); level >= replicas-1 is effectively synchronous RPC,
// which is the paper's point about the "asynchrony" claim.

#ifndef REPRO_SRC_TXN_REPLICATED_STORE_H_
#define REPRO_SRC_TXN_REPLICATED_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/catocs/group_member.h"
#include "src/net/transport.h"
#include "src/sim/simulator.h"
#include "src/txn/lock_manager.h"
#include "src/txn/wal.h"

namespace txn {

// --- transactional design ----------------------------------------------------

struct TxnReplicaConfig {
  // How lock conflicts are resolved (DESIGN §12): detect leaves deadlocks to
  // the wait-for monitor, the other two prevent them by timestamp order.
  DeadlockPolicy policy = DeadlockPolicy::kDetect;
};

class TxnReplica {
 public:
  static constexpr uint32_t kPreparePort = 0x79000001;
  static constexpr uint32_t kVotePort = 0x79000002;
  static constexpr uint32_t kDecisionPort = 0x79000003;

  TxnReplica(sim::Simulator* simulator, net::Transport* transport,
             const TxnReplicaConfig& config = {});

  // State-level veto (limitation 2): return false to reject a write, e.g.
  // out of storage or protection failure. Default accepts everything.
  void SetVoteHook(std::function<bool(const std::string& key)> hook) {
    vote_hook_ = std::move(hook);
  }

  std::optional<double> Read(const std::string& key) const;
  const std::map<std::string, double>& store() const { return store_; }
  const WriteAheadLog& wal() const { return wal_; }

  // Prepared-but-undecided transactions this replica aborted on its own
  // (wait-die refusal or wound) — each one went back to its coordinator as a
  // NO vote.
  uint64_t local_aborts() const { return local_aborts_; }

  // The replica's lock manager, exposed so a WaitForReporter can feed its
  // WaitForEdges to the deadlock monitor (detect policy) and so benches can
  // read prevention-side counters.
  LockManager& lock_manager() { return locks_; }

 private:
  struct PendingTxn {
    std::map<std::string, double> writes;
    net::NodeId coordinator = 0;
    bool voted = false;  // YES sent — abort only via coordinator decision
  };

  void OnPrepare(net::NodeId coordinator, const net::PayloadPtr& payload);
  void OnDecision(net::NodeId coordinator, const net::PayloadPtr& payload);
  // Unilateral local abort before voting: release locks, vote NO. No-op for
  // unknown or already-voted transactions.
  void AbortLocal(uint64_t txn);

  sim::Simulator* simulator_;
  net::Transport* transport_;
  LockManager locks_;
  WriteAheadLog wal_;
  std::function<bool(const std::string&)> vote_hook_;
  std::map<std::string, double> store_;
  std::map<uint64_t, PendingTxn> pending_;
  uint64_t local_aborts_ = 0;
};

struct CoordinatorStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;  // abort decisions, counting every attempt
  uint64_t replicas_dropped = 0;
  uint64_t retries = 0;  // aborted attempts re-issued with retained timestamp
  uint64_t failed = 0;   // logical transactions given up (attempts exhausted)
};

struct CoordinatorConfig {
  sim::Duration prepare_timeout = sim::Duration::Millis(100);
  // Tags transaction ids (uid = namespace<<40 | seq) and timestamp low bits
  // so concurrent coordinators never collide. 0 reproduces the seed's ids.
  uint64_t id_namespace = 0;
  // Write-all-available (seed behavior): replicas that miss the prepare
  // timeout are dropped and the write commits with the survivors. When
  // false, a timeout aborts the attempt instead (contention benches: a slow
  // vote means lock waits, not a dead replica).
  bool drop_slow_on_timeout = true;
  // Aborted attempts (NO vote, wait-die death, wound, deadlock victim) are
  // retried up to this many attempts total, after a deterministic linear
  // backoff, with the ORIGINAL timestamp and a fresh uid — retained age is
  // what makes the prevention policies starvation-free.
  uint32_t max_attempts = 1;
  sim::Duration retry_backoff = sim::Duration::Millis(5);
};

class TxnCoordinator {
 public:
  using DoneFn = std::function<void(bool committed)>;

  TxnCoordinator(sim::Simulator* simulator, net::Transport* transport,
                 std::vector<net::NodeId> replicas, const CoordinatorConfig& config = {});

  // Atomically writes a *group* of keys at all available replicas. done
  // fires once per logical transaction, after the final attempt.
  void WriteMany(std::map<std::string, double> writes, DoneFn done);
  void Write(const std::string& key, double value, DoneFn done) {
    WriteMany({{key, value}}, std::move(done));
  }

  // Aborts a live attempt by uid (the deadlock monitor's victim kill). The
  // abort decision releases the victim's locks at every participant; the
  // attempt then retries per config. False if the uid is not in flight.
  bool AbortInFlight(uint64_t txn);

  // Observation hook, fired once per COMMIT decision with the write set and
  // the participant set the transaction committed with. Commit decisions for
  // the same key are serialized by 2PL (a later writer's prepare cannot be
  // granted anywhere until the earlier decision arrived there), so the call
  // order is the per-key serialization order — what a chaos oracle needs to
  // compute the exact expected store of every surviving replica.
  using CommitObserver = std::function<void(uint64_t txn, const std::map<std::string, double>& writes,
                                            const std::vector<net::NodeId>& participants)>;
  void SetCommitObserver(CommitObserver observer) { commit_observer_ = std::move(observer); }

  const std::vector<net::NodeId>& availability_list() const { return available_; }
  const CoordinatorStats& stats() const { return stats_; }

 private:
  struct InFlight {
    std::map<std::string, double> writes;
    std::map<net::NodeId, bool> votes;  // replica -> voted (value = yes)
    std::vector<net::NodeId> participants;
    DoneFn done;
    sim::EventId timeout{};
    bool decided = false;
    uint64_t ts = 0;       // retained across attempts
    uint32_t attempt = 1;  // 1-based
  };

  void StartAttempt(std::map<std::string, double> writes, DoneFn done, uint64_t ts,
                    uint32_t attempt);
  void OnVote(net::NodeId replica, const net::PayloadPtr& payload);
  void MaybeDecide(uint64_t txn);
  void Decide(uint64_t txn, bool commit, const std::vector<net::NodeId>& slow);

  sim::Simulator* simulator_;
  net::Transport* transport_;
  std::vector<net::NodeId> available_;
  CoordinatorConfig config_;
  TimestampAuthority timestamps_;
  std::map<uint64_t, InFlight> in_flight_;
  uint64_t next_txn_ = 1;
  CoordinatorStats stats_;
  CommitObserver commit_observer_;
};

// --- CATOCS design -------------------------------------------------------------

class CatocsReplica {
 public:
  static constexpr uint32_t kAckPort = 0x79000010;

  // Attaches to a group member: every delivered update is applied in the
  // delivery order, and acked back to the update's primary.
  CatocsReplica(sim::Simulator* simulator, net::Transport* transport,
                catocs::GroupMember* member);

  std::optional<double> Read(const std::string& key) const;
  const std::map<std::string, double>& store() const { return store_; }

  // Optional durability: with a WAL attached, every applied update is
  // appended (asynchronously flushed) before the ack goes back to the
  // primary's port handler. RecoverFromWal rebuilds the store from the
  // records durable at a crash instant — the replay a restarted replica runs
  // before rejoining the group and requesting a delta via state transfer.
  // Returns the number of records replayed.
  void AttachWal(WriteAheadLog* wal) { wal_ = wal; }
  uint64_t RecoverFromWal(const WriteAheadLog& wal, sim::TimePoint crash_time);

 private:
  void OnDeliver(const catocs::Delivery& delivery);

  sim::Simulator* simulator_;
  net::Transport* transport_;
  catocs::GroupMember* member_;
  WriteAheadLog* wal_ = nullptr;
  std::map<std::string, double> store_;
};

struct CatocsPrimaryStats {
  uint64_t writes_issued = 0;
  uint64_t writes_acked = 0;
};

class CatocsPrimary {
 public:
  using DoneFn = std::function<void()>;

  // write_safety_level = number of *remote* replica acknowledgments to wait
  // for before reporting the write complete (Deceit's "k").
  CatocsPrimary(sim::Simulator* simulator, net::Transport* transport,
                catocs::GroupMember* member, int write_safety_level);

  void Write(const std::string& key, double value, DoneFn done);

  const CatocsPrimaryStats& stats() const { return stats_; }

 private:
  struct AwaitingAcks {
    int remaining;
    DoneFn done;
  };

  void OnAck(net::NodeId replica, const net::PayloadPtr& payload);

  sim::Simulator* simulator_;
  net::Transport* transport_;
  catocs::GroupMember* member_;
  int write_safety_level_;
  std::map<uint64_t, AwaitingAcks> awaiting_;
  uint64_t next_update_ = 1;
  CatocsPrimaryStats stats_;
};

// Keys whose values differ (or exist on one side only) between two replica
// stores — the §4.4 consistency check after failures.
std::vector<std::string> DivergentKeys(const std::map<std::string, double>& a,
                                       const std::map<std::string, double>& b);

}  // namespace txn

#endif  // REPRO_SRC_TXN_REPLICATED_STORE_H_
