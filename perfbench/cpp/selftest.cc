// The oracles' own test: each one is fed a clean record set, which must pass,
// and the same set with one delivery record or commit-log entry corrupted,
// which must trip it. An oracle that never fires would let the benchmark
// report a broken program as correct.

#include <cstdio>
#include <functional>
#include <string>

#include "cpp/oracles.h"

namespace perfbench {

namespace {

using catocs::MessageId;
using catocs::VectorClock;

// Runs `feed` on fresh findings; `corrupt` selects the corrupted variant.
bool Check(const char* name, const std::function<void(bool corrupt, Findings&)>& feed) {
  Findings clean;
  feed(false, clean);
  Findings bad;
  feed(true, bad);
  const bool ok = clean.count == 0 && bad.count > 0;
  std::printf("oracle %-28s clean=%llu corrupted=%llu %s%s%s\n", name,
              static_cast<unsigned long long>(clean.count),
              static_cast<unsigned long long>(bad.count), ok ? "PASS" : "FAIL",
              bad.first.empty() ? "" : "  first: ", bad.first.empty() ? "" : bad.first[0].c_str());
  return ok;
}

}  // namespace

int RunOracleSelftest() {
  bool ok = true;

  // Receiver 0 sees m1=(1,1) then m2=(1,2) whose clock covers m1. The
  // corrupted record delivers m2 first: a causal inversion.
  ok &= Check("causal-watermark", [](bool corrupt, Findings& f) {
    CausalAudit audit(2);
    const MessageId m1{1, 1};
    const MessageId m2{1, 2};
    const VectorClock v1{{1, 1}};
    const VectorClock v2{{1, 2}};
    if (corrupt) {
      audit.OnDeliver(0, m2, v2, f);
      audit.OnDeliver(0, m1, v1, f);
    } else {
      audit.OnDeliver(0, m1, v1, f);
      audit.OnDeliver(0, m2, v2, f);
    }
  });

  // Two members, two accepted messages; the corrupted run loses one
  // delivery record.
  ok &= Check("delivery-ledger", [](bool corrupt, Findings& f) {
    DeliveryLedger ledger(2, 2);
    const MessageId a{1, 1};
    const MessageId b{2, 1};
    ledger.OnAccepted(a);
    ledger.OnAccepted(b);
    ledger.OnDeliver(a, f);
    ledger.OnDeliver(a, f);
    ledger.OnDeliver(b, f);
    if (!corrupt) {
      ledger.OnDeliver(b, f);
    }
    ledger.Missing(f);
  });

  // Two members agree on total sequence 1 and 2; the corrupted record
  // gives member 2 a different message at sequence 2.
  ok &= Check("total-order-agreement", [](bool corrupt, Findings& f) {
    ViewSyncAudit audit;
    audit.OnView(1, 1, {1, 2}, f);
    audit.OnView(2, 1, {1, 2}, f);
    audit.OnDeliver(1, {1, 1}, 1, f);
    audit.OnDeliver(1, {2, 1}, 2, f);
    audit.OnDeliver(2, {1, 1}, 1, f);
    audit.OnDeliver(2, corrupt ? MessageId{1, 2} : MessageId{2, 1}, 2, f);
  });

  // Member 3 crashes in view 1; 1 and 2 survive into view 2. The corrupted
  // record set drops member 2's delivery of a view-1 message.
  ok &= Check("view-synchrony", [](bool corrupt, Findings& f) {
    ViewSyncAudit audit;
    for (catocs::MemberId m : {1u, 2u, 3u}) {
      audit.OnView(m, 1, {1, 2, 3}, f);
    }
    audit.OnAccepted(1);
    audit.OnDeliver(1, {1, 1}, 1, f);
    audit.OnDeliver(3, {1, 1}, 1, f);
    if (!corrupt) {
      audit.OnDeliver(2, {1, 1}, 1, f);
    }
    audit.OnView(1, 2, {1, 2}, f);
    audit.OnView(2, 2, {1, 2}, f);
    audit.Finish({1, 2}, f);
  });

  ok &= Check("view-membership", [](bool corrupt, Findings& f) {
    ViewSyncAudit audit;
    audit.OnView(1, 2, {1, 2}, f);
    audit.OnView(2, 2, corrupt ? std::vector<catocs::MemberId>{2, 3}
                               : std::vector<catocs::MemberId>{1, 2},
                 f);
  });

  ok &= Check("state-agreement", [](bool corrupt, Findings& f) {
    LogDigest a;
    LogDigest b;
    a.Fold({1, 1}, 1);
    b.Fold(corrupt ? MessageId{2, 1} : MessageId{1, 1}, 1);
    CheckStateAgreement({{1, a}, {2, b}}, f);
  });

  // The corrupted commit log carries a value no replica committed.
  ok &= Check("commit-log-replay", [](bool corrupt, Findings& f) {
    const std::map<std::string, double> store = {{"k1", 2}, {"k2", 1}};
    std::vector<WriteSet> log = {{{"k1", 1}, {"k2", 1}}, {{"k1", 2}}};
    if (corrupt) {
      log[1]["k1"] = 3;
    }
    CheckCommitLog(log, {&store, &store}, f);
  });

  std::printf("oracle selftest: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace perfbench
