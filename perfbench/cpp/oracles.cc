#include "cpp/oracles.h"

#include <algorithm>

namespace perfbench {

void CausalAudit::OnDeliver(size_t receiver, const catocs::MessageId& id,
                            const catocs::VectorClock& vt, Findings& findings) {
  catocs::VectorClock& h = watermark_[receiver];
  if (h.Get(id.sender) >= id.seq) {
    findings.Add("causal: receiver " + std::to_string(receiver) + " delivered " + id.ToString() +
                 " after a message that depends on it (or twice)");
  }
  h.Merge(vt);
}

void DeliveryLedger::OnAccepted(const catocs::MessageId& id) {
  uint64_t& through = accepted_through_.at(id.sender);
  through = std::max(through, id.seq);
  ++accepted_;
}

void DeliveryLedger::OnDeliver(const catocs::MessageId& id, Findings& findings) {
  if (id.sender >= counts_.size() || id.seq == 0) {
    findings.Add("ledger: delivered " + id.ToString() + " from outside the group");
    return;
  }
  std::vector<uint32_t>& lane = counts_[id.sender];
  if (lane.size() < id.seq) {
    lane.resize(id.seq, 0);
  }
  ++lane[id.seq - 1];
}

uint64_t DeliveryLedger::Missing(Findings& findings) const {
  uint64_t missing = 0;
  for (size_t sender = 0; sender < counts_.size(); ++sender) {
    const std::vector<uint32_t>& lane = counts_[sender];
    for (uint64_t seq = 1; seq <= std::max<uint64_t>(lane.size(), accepted_through_[sender]);
         ++seq) {
      const uint32_t got = seq <= lane.size() ? lane[seq - 1] : 0;
      const std::string id =
          catocs::MessageId{static_cast<catocs::MemberId>(sender), seq}.ToString();
      if (seq > accepted_through_[sender]) {
        findings.Add("ledger: delivered " + id + ", which was never accepted");
      } else if (got < receivers_) {
        missing += receivers_ - got;
        findings.Add("ledger: " + id + " delivered at " + std::to_string(got) + " of " +
                         std::to_string(receivers_) + " members",
                     receivers_ - got);
      }
    }
  }
  return missing;
}

void ViewSyncAudit::OnView(catocs::MemberId member, uint64_t view_id,
                           const std::vector<catocs::MemberId>& members, Findings& findings) {
  auto [it, fresh] = view_members_.emplace(view_id, members);
  if (!fresh && it->second != members) {
    findings.Add("view: view " + std::to_string(view_id) + " installed with two member sets");
  }
  MemberLog& log = logs_[member];
  if (!log.views.empty() && log.views.back() >= view_id) {
    findings.Add("view: member " + std::to_string(member) + " installed view " +
                 std::to_string(view_id) + " after view " + std::to_string(log.views.back()));
  }
  log.views.push_back(view_id);
}

void ViewSyncAudit::OnDeliver(catocs::MemberId member, const catocs::MessageId& id,
                              uint64_t total_seq, Findings& findings) {
  MemberLog& log = logs_[member];
  if (log.views.empty()) {
    findings.Add("view: member " + std::to_string(member) + " delivered " + id.ToString() +
                 " before installing any view");
    return;
  }
  if (!log.delivered.insert(id).second) {
    findings.Add("total: member " + std::to_string(member) + " delivered " + id.ToString() +
                 " twice");
  }
  first_view_.emplace(id, log.views.back());
  if (id.sender == member) {
    ++log.self_delivered;
  }
  if (total_seq == 0) {
    return;
  }
  if (total_seq <= log.last_total_seq) {
    findings.Add("total: member " + std::to_string(member) + " delivered seq " +
                 std::to_string(total_seq) + " after seq " + std::to_string(log.last_total_seq));
  }
  log.last_total_seq = total_seq;
  auto [it, fresh] = by_total_seq_.emplace(total_seq, id);
  if (!fresh && it->second != id) {
    findings.Add("total: seq " + std::to_string(total_seq) + " is " + it->second.ToString() +
                 " at one member and " + id.ToString() + " at member " + std::to_string(member));
  }
}

uint64_t ViewSyncAudit::Finish(const std::set<catocs::MemberId>& alive,
                               Findings& findings) const {
  uint64_t missing = 0;
  for (catocs::MemberId m : alive) {
    const auto log = logs_.find(m);
    if (log == logs_.end()) {
      continue;
    }
    const std::vector<uint64_t>& views = log->second.views;
    for (const auto& [id, view] : first_view_) {
      if (std::binary_search(views.begin(), views.end(), view) &&
          log->second.delivered.count(id) == 0) {
        ++missing;
        findings.Add("view: live member " + std::to_string(m) + " never delivered " +
                     id.ToString() + ", first delivered in its view " + std::to_string(view));
      }
    }
  }
  for (catocs::MemberId m : alive) {
    const auto acc = accepted_.find(m);
    const uint64_t want = acc == accepted_.end() ? 0 : acc->second;
    const auto log = logs_.find(m);
    const uint64_t got = log == logs_.end() ? 0 : log->second.self_delivered;
    if (got < want) {
      missing += want - got;
      findings.Add("view: live member " + std::to_string(m) + " got back " + std::to_string(got) +
                       " of its " + std::to_string(want) + " accepted sends",
                   want - got);
    }
  }
  return missing;
}

void LogDigest::Fold(const catocs::MessageId& id, uint64_t total_seq) {
  for (uint64_t v : {static_cast<uint64_t>(id.sender), id.seq, total_seq}) {
    hash = (hash ^ v) * 1099511628211ull;
  }
  ++count;
}

void CheckStateAgreement(const std::map<catocs::MemberId, LogDigest>& live, Findings& findings) {
  if (live.empty()) {
    return;
  }
  const auto& [first_id, first] = *live.begin();
  for (const auto& [id, digest] : live) {
    if (!(digest == first)) {
      findings.Add("state: member " + std::to_string(id) + " holds " +
                   std::to_string(digest.count) + " ordered updates, member " +
                   std::to_string(first_id) + " holds " + std::to_string(first.count) +
                   (digest.count == first.count ? " with a different digest" : ""));
    }
  }
}

void CheckCommitLog(const std::vector<WriteSet>& log,
                    const std::vector<const std::map<std::string, double>*>& stores,
                    Findings& findings) {
  WriteSet want;
  for (const WriteSet& commit : log) {
    for (const auto& [key, value] : commit) {
      want[key] = value;
    }
  }
  for (size_t i = 0; i < stores.size(); ++i) {
    if (*stores[i] != want) {
      findings.Add("txn: replica " + std::to_string(i) +
                   " store differs from the replayed commit log (lost or phantom commit)");
    }
  }
}

}  // namespace perfbench
