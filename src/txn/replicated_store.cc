#include "src/txn/replicated_store.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace txn {

namespace {

class PrepareMsg : public net::Payload {
 public:
  PrepareMsg(uint64_t txn, uint64_t ts, std::map<std::string, double> writes)
      : txn_(txn), ts_(ts), writes_(std::move(writes)) {}
  // Sim-level wire-size approximation; the timestamp rides in the same
  // header word as the txn id (both derive from one 64-bit id in a real
  // encoding), so the formula matches the seed byte for byte.
  size_t SizeBytes() const override { return 8 + writes_.size() * 24; }
  std::string Describe() const override { return "prepare"; }
  uint64_t txn() const { return txn_; }
  uint64_t ts() const { return ts_; }
  const std::map<std::string, double>& writes() const { return writes_; }

 private:
  uint64_t txn_;
  uint64_t ts_;
  std::map<std::string, double> writes_;
};

class VoteMsg : public net::Payload {
 public:
  VoteMsg(uint64_t txn, bool yes) : txn_(txn), yes_(yes) {}
  size_t SizeBytes() const override { return 9; }
  std::string Describe() const override { return yes_ ? "vote-yes" : "vote-no"; }
  uint64_t txn() const { return txn_; }
  bool yes() const { return yes_; }

 private:
  uint64_t txn_;
  bool yes_;
};

class DecisionMsg : public net::Payload {
 public:
  DecisionMsg(uint64_t txn, bool commit) : txn_(txn), commit_(commit) {}
  size_t SizeBytes() const override { return 9; }
  std::string Describe() const override { return commit_ ? "commit" : "abort"; }
  uint64_t txn() const { return txn_; }
  bool commit() const { return commit_; }

 private:
  uint64_t txn_;
  bool commit_;
};

class UpdateMsg : public net::Payload {
 public:
  UpdateMsg(uint64_t update_id, net::NodeId primary, std::string key, double value)
      : update_id_(update_id), primary_(primary), key_(std::move(key)), value_(value) {}
  size_t SizeBytes() const override { return 20 + key_.size(); }
  std::string Describe() const override { return "update:" + key_; }
  uint64_t update_id() const { return update_id_; }
  net::NodeId primary() const { return primary_; }
  const std::string& key() const { return key_; }
  double value() const { return value_; }

 private:
  uint64_t update_id_;
  net::NodeId primary_;
  std::string key_;
  double value_;
};

class UpdateAckMsg : public net::Payload {
 public:
  explicit UpdateAckMsg(uint64_t update_id) : update_id_(update_id) {}
  size_t SizeBytes() const override { return 8; }
  std::string Describe() const override { return "update-ack"; }
  uint64_t update_id() const { return update_id_; }

 private:
  uint64_t update_id_;
};

}  // namespace

// --- TxnReplica ----------------------------------------------------------------

TxnReplica::TxnReplica(sim::Simulator* simulator, net::Transport* transport,
                       const TxnReplicaConfig& config)
    : simulator_(simulator),
      transport_(transport),
      locks_(config.policy),
      wal_(simulator) {
  // Wound victims (starvation-free policy): locks are already released when
  // the handler runs; all that is left is the 2PC-level abort.
  locks_.SetAbortHandler([this](TxnId txn) { AbortLocal(txn); });
  transport_->RegisterReceiver(kPreparePort,
                               [this](net::NodeId src, uint32_t, const net::PayloadPtr& p) {
                                 OnPrepare(src, p);
                               });
  transport_->RegisterReceiver(kDecisionPort,
                               [this](net::NodeId src, uint32_t, const net::PayloadPtr& p) {
                                 OnDecision(src, p);
                               });
}

void TxnReplica::OnPrepare(net::NodeId coordinator, const net::PayloadPtr& payload) {
  const auto* prepare = net::PayloadCast<PrepareMsg>(payload);
  assert(prepare != nullptr);
  const uint64_t txn = prepare->txn();

  // State-level veto: the replica may refuse (limitation 2 in action — a
  // receiver can reject an operation regardless of delivery order).
  if (vote_hook_) {
    for (const auto& [key, value] : prepare->writes()) {
      if (!vote_hook_(key)) {
        transport_->SendReliable(coordinator, kVotePort, std::make_shared<VoteMsg>(txn, false));
        return;
      }
    }
  }

  PendingTxn& pending = pending_[txn];
  pending.writes = prepare->writes();
  pending.coordinator = coordinator;
  locks_.BeginTxn(txn, prepare->ts());

  // Acquire exclusive locks on all keys, then force the WAL record, then
  // vote YES (and pin: a YES-voted transaction may no longer abort
  // unilaterally, so it must not be woundable). Contention delays the vote;
  // under a prevention policy it may instead abort the transaction here.
  auto continue_after_locks = [this, txn, coordinator] {
    std::ostringstream record;
    record << "prepare txn=" << txn;
    wal_.Append(record.str(), [this, txn, coordinator] {
      auto it = pending_.find(txn);
      if (it == pending_.end()) {
        return;  // already decided (aborted) before the flush finished
      }
      it->second.voted = true;
      locks_.Pin(txn);
      transport_->SendReliable(coordinator, kVotePort, std::make_shared<VoteMsg>(txn, true));
    });
  };
  // Count locks to acquire; grant callback fires when the last is granted.
  // Iterate a copy of the key list: a wait-die refusal (or a wound during a
  // cascading grant) can erase the pending entry mid-loop.
  std::vector<std::string> keys;
  keys.reserve(pending.writes.size());
  for (const auto& [key, value] : pending.writes) {
    keys.push_back(key);
  }
  auto remaining = std::make_shared<size_t>(keys.size());
  for (const std::string& key : keys) {
    const AcquireResult result =
        locks_.AcquireEx(txn, key, LockMode::kExclusive,
                         [remaining, continue_after_locks]() mutable {
                           if (--*remaining == 0) {
                             continue_after_locks();
                           }
                         });
    if (result == AcquireResult::kAborted) {
      AbortLocal(txn);  // younger than a conflicting holder: die, vote NO
      return;
    }
    if (result == AcquireResult::kGranted) {
      if (--*remaining == 0) {
        continue_after_locks();
      }
    }
    if (!pending_.count(txn)) {
      return;  // wounded while acquiring (a later key's grant cascade)
    }
  }
  if (keys.empty()) {
    continue_after_locks();
  }
}

void TxnReplica::AbortLocal(uint64_t txn) {
  auto it = pending_.find(txn);
  if (it == pending_.end() || it->second.voted) {
    return;  // unknown, or YES already sent — only the coordinator may abort
  }
  const net::NodeId coordinator = it->second.coordinator;
  // Erase before releasing: the WAL-flush callback checks pending_ and must
  // not send a stale YES after this NO.
  pending_.erase(it);
  locks_.ReleaseAll(txn);
  ++local_aborts_;
  transport_->SendReliable(coordinator, kVotePort, std::make_shared<VoteMsg>(txn, false));
}

void TxnReplica::OnDecision(net::NodeId /*coordinator*/, const net::PayloadPtr& payload) {
  const auto* decision = net::PayloadCast<DecisionMsg>(payload);
  assert(decision != nullptr);
  auto it = pending_.find(decision->txn());
  if (it == pending_.end()) {
    return;
  }
  if (decision->commit()) {
    for (const auto& [key, value] : it->second.writes) {
      store_[key] = value;
    }
    std::ostringstream record;
    record << "commit txn=" << decision->txn();
    wal_.Append(record.str(), nullptr);
  }
  locks_.ReleaseAll(decision->txn());
  pending_.erase(it);
}

std::optional<double> TxnReplica::Read(const std::string& key) const {
  auto it = store_.find(key);
  return it == store_.end() ? std::nullopt : std::optional<double>(it->second);
}

// --- TxnCoordinator --------------------------------------------------------------

TxnCoordinator::TxnCoordinator(sim::Simulator* simulator, net::Transport* transport,
                               std::vector<net::NodeId> replicas,
                               const CoordinatorConfig& config)
    : simulator_(simulator),
      transport_(transport),
      available_(std::move(replicas)),
      config_(config),
      timestamps_(config.id_namespace) {
  transport_->RegisterReceiver(TxnReplica::kVotePort,
                               [this](net::NodeId src, uint32_t, const net::PayloadPtr& p) {
                                 OnVote(src, p);
                               });
}

void TxnCoordinator::WriteMany(std::map<std::string, double> writes, DoneFn done) {
  // One timestamp per LOGICAL transaction, retained across every retry: the
  // prevention policies' no-starvation guarantee is exactly that a restarted
  // transaction keeps its age and so only ever gains priority.
  StartAttempt(std::move(writes), std::move(done), timestamps_.Issue(simulator_->now()), 1);
}

void TxnCoordinator::StartAttempt(std::map<std::string, double> writes, DoneFn done,
                                  uint64_t ts, uint32_t attempt) {
  const uint64_t txn = (config_.id_namespace << 40) | next_txn_++;
  InFlight& flight = in_flight_[txn];
  flight.writes = writes;
  flight.participants = available_;
  flight.done = std::move(done);
  flight.ts = ts;
  flight.attempt = attempt;
  if (flight.participants.empty()) {
    // Every replica has been dropped: there is nobody to prepare at, and
    // retrying cannot repopulate the availability list, so fail the
    // transaction now instead of burning a timeout per attempt.
    flight.attempt = config_.max_attempts;
    simulator_->ScheduleAfter(sim::Duration::Zero(), [this, txn] { Decide(txn, false, {}); });
    return;
  }
  auto prepare = std::make_shared<PrepareMsg>(txn, ts, std::move(writes));
  for (net::NodeId replica : flight.participants) {
    transport_->SendReliable(replica, TxnReplica::kPreparePort, prepare);
  }
  flight.timeout = simulator_->ScheduleAfter(config_.prepare_timeout, [this, txn] {
    auto it = in_flight_.find(txn);
    if (it == in_flight_.end() || it->second.decided) {
      return;
    }
    if (!config_.drop_slow_on_timeout) {
      // A slow vote under contention means lock waits, not a dead replica:
      // abort the attempt (and retry per config) instead of shrinking the
      // availability list.
      Decide(txn, false, {});
      return;
    }
    // Write-all-available: replicas that did not answer in time are dropped
    // from the availability list and the write commits with the rest —
    // unless someone actually voted NO.
    std::vector<net::NodeId> slow;
    bool any_no = false;
    for (net::NodeId replica : it->second.participants) {
      auto vote = it->second.votes.find(replica);
      if (vote == it->second.votes.end()) {
        slow.push_back(replica);
      } else if (!vote->second) {
        any_no = true;
      }
    }
    Decide(txn, !any_no && slow.size() < it->second.participants.size(), slow);
  });
}

bool TxnCoordinator::AbortInFlight(uint64_t txn) {
  auto it = in_flight_.find(txn);
  if (it == in_flight_.end() || it->second.decided) {
    return false;
  }
  Decide(txn, false, {});
  return true;
}

void TxnCoordinator::OnVote(net::NodeId replica, const net::PayloadPtr& payload) {
  const auto* vote = net::PayloadCast<VoteMsg>(payload);
  assert(vote != nullptr);
  auto it = in_flight_.find(vote->txn());
  if (it == in_flight_.end() || it->second.decided) {
    return;
  }
  it->second.votes[replica] = vote->yes();
  if (!vote->yes()) {
    // One NO settles the outcome. Deciding now matters under contention:
    // the replicas that have not voted yet may be queued behind this very
    // transaction's locks, and the abort decision is what frees them.
    Decide(vote->txn(), false, {});
    return;
  }
  MaybeDecide(vote->txn());
}

void TxnCoordinator::MaybeDecide(uint64_t txn) {
  InFlight& flight = in_flight_.at(txn);
  bool all_yes = true;
  for (net::NodeId replica : flight.participants) {
    auto vote = flight.votes.find(replica);
    if (vote == flight.votes.end()) {
      return;  // still waiting (timeout handles stragglers)
    }
    if (!vote->second) {
      all_yes = false;
    }
  }
  Decide(txn, all_yes, {});
}

void TxnCoordinator::Decide(uint64_t txn, bool commit, const std::vector<net::NodeId>& slow) {
  auto it = in_flight_.find(txn);
  if (it == in_flight_.end() || it->second.decided) {
    return;
  }
  InFlight& flight = it->second;
  flight.decided = true;
  simulator_->Cancel(flight.timeout);
  for (net::NodeId dropped : slow) {
    available_.erase(std::remove(available_.begin(), available_.end(), dropped),
                     available_.end());
    ++stats_.replicas_dropped;
  }
  auto decision = std::make_shared<DecisionMsg>(txn, commit);
  for (net::NodeId replica : flight.participants) {
    // Dropped replicas get the decision too (best effort); they are simply
    // no longer counted on.
    transport_->SendReliable(replica, TxnReplica::kDecisionPort, decision);
  }
  if (commit) {
    ++stats_.committed;
    if (commit_observer_) {
      commit_observer_(txn, flight.writes, flight.participants);
    }
  } else {
    ++stats_.aborted;
  }
  DoneFn done = std::move(flight.done);
  std::map<std::string, double> writes = std::move(flight.writes);
  const uint64_t ts = flight.ts;
  const uint32_t attempt = flight.attempt;
  in_flight_.erase(it);
  if (!commit && attempt < config_.max_attempts) {
    ++stats_.retries;
    // Deterministic backoff, linear in the attempt number; the retry keeps
    // the original timestamp but gets a fresh uid (replicas may still hold
    // late state under the old one).
    simulator_->ScheduleAfter(
        config_.retry_backoff * static_cast<int64_t>(attempt),
        [this, writes = std::move(writes), done = std::move(done), ts, attempt]() mutable {
          StartAttempt(std::move(writes), std::move(done), ts, attempt + 1);
        });
    return;
  }
  if (!commit) {
    ++stats_.failed;
  }
  if (done) {
    done(commit);
  }
}

// --- CatocsReplica ---------------------------------------------------------------

CatocsReplica::CatocsReplica(sim::Simulator* simulator, net::Transport* transport,
                             catocs::GroupMember* member)
    : simulator_(simulator), transport_(transport), member_(member) {
  member_->SetDeliveryHandler([this](const catocs::Delivery& d) { OnDeliver(d); });
}

namespace {

// WAL record format for a replicated update: "<key>=<hexfloat value>".
// Hexfloat round-trips doubles exactly, so replay is bit-faithful.
std::string EncodeWalUpdate(const std::string& key, double value) {
  std::ostringstream out;
  out << key << '=' << std::hexfloat << value;
  return out.str();
}

}  // namespace

void CatocsReplica::OnDeliver(const catocs::Delivery& delivery) {
  if (const auto* update = net::PayloadCast<UpdateMsg>(delivery.payload())) {
    store_[update->key()] = update->value();
    if (wal_ != nullptr) {
      wal_->Append(EncodeWalUpdate(update->key(), update->value()), nullptr);
    }
    if (update->primary() != transport_->node()) {
      transport_->SendReliable(update->primary(), kAckPort,
                               std::make_shared<UpdateAckMsg>(update->update_id()));
    }
  }
}

std::optional<double> CatocsReplica::Read(const std::string& key) const {
  auto it = store_.find(key);
  return it == store_.end() ? std::nullopt : std::optional<double>(it->second);
}

uint64_t CatocsReplica::RecoverFromWal(const WriteAheadLog& wal, sim::TimePoint crash_time) {
  store_.clear();
  uint64_t replayed = 0;
  for (const LogRecord& record : wal.DurableRecordsAt(crash_time)) {
    // Keys never contain '='; split on the last one to stay robust anyway.
    const size_t eq = record.payload.rfind('=');
    if (eq == std::string::npos) {
      continue;
    }
    store_[record.payload.substr(0, eq)] = std::strtod(record.payload.c_str() + eq + 1, nullptr);
    ++replayed;
  }
  return replayed;
}

// --- CatocsPrimary ---------------------------------------------------------------

CatocsPrimary::CatocsPrimary(sim::Simulator* simulator, net::Transport* transport,
                             catocs::GroupMember* member, int write_safety_level)
    : simulator_(simulator),
      transport_(transport),
      member_(member),
      write_safety_level_(write_safety_level) {
  transport_->RegisterReceiver(CatocsReplica::kAckPort,
                               [this](net::NodeId src, uint32_t, const net::PayloadPtr& p) {
                                 OnAck(src, p);
                               });
}

void CatocsPrimary::Write(const std::string& key, double value, DoneFn done) {
  const uint64_t update_id = next_update_++;
  ++stats_.writes_issued;
  member_->CausalSend(std::make_shared<UpdateMsg>(update_id, transport_->node(), key, value));
  if (write_safety_level_ <= 0) {
    // Fully asynchronous: report success immediately — durability be damned.
    ++stats_.writes_acked;
    if (done) {
      done();
    }
    return;
  }
  awaiting_[update_id] = AwaitingAcks{write_safety_level_, std::move(done)};
}

void CatocsPrimary::OnAck(net::NodeId /*replica*/, const net::PayloadPtr& payload) {
  const auto* ack = net::PayloadCast<UpdateAckMsg>(payload);
  assert(ack != nullptr);
  auto it = awaiting_.find(ack->update_id());
  if (it == awaiting_.end()) {
    return;
  }
  if (--it->second.remaining <= 0) {
    ++stats_.writes_acked;
    DoneFn done = std::move(it->second.done);
    awaiting_.erase(it);
    if (done) {
      done();
    }
  }
}

std::vector<std::string> DivergentKeys(const std::map<std::string, double>& a,
                                       const std::map<std::string, double>& b) {
  std::vector<std::string> out;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() || ib != b.end()) {
    if (ib == b.end() || (ia != a.end() && ia->first < ib->first)) {
      out.push_back(ia->first);
      ++ia;
    } else if (ia == a.end() || ib->first < ia->first) {
      out.push_back(ib->first);
      ++ib;
    } else {
      if (ia->second != ib->second) {
        out.push_back(ia->first);
      }
      ++ia;
      ++ib;
    }
  }
  return out;
}

}  // namespace txn
