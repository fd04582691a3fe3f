#include "src/txn/wal.h"

#include <utility>

namespace txn {

uint64_t WriteAheadLog::Append(std::string payload, std::function<void()> on_durable) {
  const uint64_t lsn = next_lsn_++;
  const sim::TimePoint durable_at = simulator_->now() + kFlushDelay;
  records_.push_back(LogRecord{lsn, std::move(payload), durable_at});
  simulator_->ScheduleAfter(kFlushDelay, [fn = std::move(on_durable)] {
    if (fn) {
      fn();
    }
  });
  return lsn;
}

std::vector<LogRecord> WriteAheadLog::DurableRecordsAt(sim::TimePoint when) const {
  std::vector<LogRecord> out;
  for (const auto& record : records_) {
    if (record.durable_at <= when) {
      out.push_back(record);
    }
  }
  return out;
}

}  // namespace txn
