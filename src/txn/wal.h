// Simulated write-ahead log: append costs a fixed flush delay (500 µs)
// before the record is durable. This is what gives the transactional replication design its
// durability edge over CATOCS replication (§4.4): a committed update
// survives any crash, where a cbcast with write-safety level 0 does not.

#ifndef REPRO_SRC_TXN_WAL_H_
#define REPRO_SRC_TXN_WAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/simulator.h"

namespace txn {

struct LogRecord {
  uint64_t lsn = 0;
  std::string payload;
  sim::TimePoint durable_at;
};

class WriteAheadLog {
 public:
  static constexpr sim::Duration kFlushDelay = sim::Duration::Micros(500);

  explicit WriteAheadLog(sim::Simulator* simulator) : simulator_(simulator) {}

  // Appends a record; on_durable fires once the (simulated) flush completes.
  // Returns the assigned LSN.
  uint64_t Append(std::string payload, std::function<void()> on_durable);

  // Records that survive a crash at `when` (durable_at <= when).
  std::vector<LogRecord> DurableRecordsAt(sim::TimePoint when) const;

  const std::vector<LogRecord>& records() const { return records_; }
  uint64_t appended() const { return next_lsn_ - 1; }

 private:
  sim::Simulator* simulator_;
  std::vector<LogRecord> records_;
  uint64_t next_lsn_ = 1;
};

}  // namespace txn

#endif  // REPRO_SRC_TXN_WAL_H_
