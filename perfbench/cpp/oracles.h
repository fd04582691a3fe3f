// Correctness oracles the benchmark runs on every repetition. Each one takes
// plain delivery or commit records, so the self-test can feed it a
// corrupted record and show that it trips. A finding is counted into the
// run's failures and printed; the benchmark then exits non-zero.

#ifndef PERFBENCH_CPP_ORACLES_H_
#define PERFBENCH_CPP_ORACLES_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/catocs/message.h"
#include "src/catocs/vector_clock.h"
#include "src/net/payload.h"

namespace perfbench {

// Bounded list of human-readable findings plus the exact count.
struct Findings {
  uint64_t count = 0;
  std::vector<std::string> first;

  // `weight` counts several failed operations under one finding (e.g. one
  // message missing at several members).
  void Add(std::string what, uint64_t weight = 1) {
    count += weight;
    if (first.size() < 8) {
      first.push_back(std::move(what));
    }
  }
};

// Inline causal audit, the watermark form of CheckCausalOrderLinear (E21):
// per receiver H = pointwise max of delivered timestamps; delivering
// (q, s) while H[q] >= s means an already-delivered message had (q, s) in
// its causal past, or (q, s) was delivered twice.
class CausalAudit {
 public:
  explicit CausalAudit(size_t receivers) : watermark_(receivers) {}
  void OnDeliver(size_t receiver, const catocs::MessageId& id, const catocs::VectorClock& vt,
                 Findings& findings);

 private:
  std::vector<catocs::VectorClock> watermark_;
};

// Static groups: every accepted message is delivered exactly once at each
// of the `receivers` members by the end of the drain.
class DeliveryLedger {
 public:
  DeliveryLedger(size_t senders, size_t receivers)
      : receivers_(receivers), counts_(senders + 1), accepted_through_(senders + 1, 0) {}
  // Sender ids are 1-based member ids. A sender's own delivery may come
  // before its send returns, so deliveries are matched at the end.
  void OnAccepted(const catocs::MessageId& id);
  void OnDeliver(const catocs::MessageId& id, Findings& findings);
  // Deliveries missing at the end of the drain, added to `findings`.
  uint64_t Missing(Findings& findings) const;
  uint64_t accepted() const { return accepted_; }

 private:
  size_t receivers_;
  std::vector<std::vector<uint32_t>> counts_;  // [sender][seq-1]
  std::vector<uint64_t> accepted_through_;     // [sender] highest accepted seq
  uint64_t accepted_ = 0;
};

// Dynamic groups (total-churn): total-order agreement, view synchrony and
// completeness.
//  - a view id names one member set wherever it is installed, and view ids
//    rise at every member (view synchrony as src/fault/oracle.h defines it);
//  - a total sequence number names one message everywhere, and each member
//    delivers total sequence numbers in increasing order, each message once;
//  - a message first delivered (anywhere) in view v is delivered at every
//    member that installed v and is alive at the end;
//  - every send a live member had accepted is delivered back to it.
class ViewSyncAudit {
 public:
  void OnView(catocs::MemberId member, uint64_t view_id,
              const std::vector<catocs::MemberId>& members, Findings& findings);
  void OnAccepted(catocs::MemberId sender) { ++accepted_[sender]; }
  void OnDeliver(catocs::MemberId member, const catocs::MessageId& id, uint64_t total_seq,
                 Findings& findings);
  // Deliveries missing at the end, added to `findings`.
  uint64_t Finish(const std::set<catocs::MemberId>& alive, Findings& findings) const;

 private:
  struct MemberLog {
    std::vector<uint64_t> views;  // installed, in order
    std::set<catocs::MessageId> delivered;
    uint64_t last_total_seq = 0;
    uint64_t self_delivered = 0;
  };
  std::map<catocs::MemberId, MemberLog> logs_;
  std::map<uint64_t, std::vector<catocs::MemberId>> view_members_;
  std::map<uint64_t, catocs::MessageId> by_total_seq_;
  // The view each message was first delivered in, anywhere.
  std::map<catocs::MessageId, uint64_t> first_view_;
  std::map<catocs::MemberId, uint64_t> accepted_;
};

// Replicated application state of total-churn: a running digest over the
// totally ordered deliveries. State transfer hands it to joiners, so every
// live member must end with the same digest.
struct LogDigest {
  uint64_t count = 0;
  uint64_t hash = 14695981039346656037ull;

  void Fold(const catocs::MessageId& id, uint64_t total_seq);
  bool operator==(const LogDigest&) const = default;
};

class DigestSnapshot : public net::Payload {
 public:
  explicit DigestSnapshot(LogDigest digest) : digest_(digest) {}
  size_t SizeBytes() const override { return sizeof(LogDigest); }
  std::string Describe() const override { return "perfbench-digest"; }
  const LogDigest& digest() const { return digest_; }

 private:
  LogDigest digest_;
};

void CheckStateAgreement(const std::map<catocs::MemberId, LogDigest>& live, Findings& findings);

// txn-contention: replays the commit log — each committed write set, in
// decision order — and requires every replica's store to equal it. 2PL
// serializes commit decisions on a key, so the replay is the exact expected
// store; a lost, phantom or duplicated commit shows as a mismatch.
using WriteSet = std::map<std::string, double>;
void CheckCommitLog(const std::vector<WriteSet>& log,
                    const std::vector<const std::map<std::string, double>*>& stores,
                    Findings& findings);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_ORACLES_H_
