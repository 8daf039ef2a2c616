// Additional EmitSink implementations for examples and tools.
//
// Every sink reports delivery failures as Status (kUnavailable for
// transient output-stream trouble) instead of silently swallowing badbit;
// the engine's per-sink isolation (retry / dead-letter / quarantine) is
// built on that contract. The stream-writing sinks also carry the
// "sink.emit" fault point so chaos runs (SERAPH_FAULT_POINTS) can fail
// deliveries without a broken consumer.
#ifndef SERAPH_SERAPH_SINKS_H_
#define SERAPH_SERAPH_SINKS_H_

#include <ostream>
#include <string>
#include <vector>

#include "seraph/continuous_engine.h"

namespace seraph {

// Prints each non-empty result as an aligned ASCII table (the shape of the
// paper's Tables 5/6), with win_start / win_end columns appended.
class PrintingSink final : public EmitSink {
 public:
  // `columns`: projection columns in display order (win_start / win_end
  // are appended automatically). `include_empty` also prints evaluations
  // with no rows.
  PrintingSink(std::ostream* os, std::vector<std::string> columns,
               bool include_empty = false)
      : os_(os), columns_(std::move(columns)), include_empty_(include_empty) {}

  Status OnResult(const std::string& query_name, Timestamp evaluation_time,
                  const TimeAnnotatedTable& table) override;

 private:
  std::ostream* os_;
  std::vector<std::string> columns_;
  bool include_empty_;
};

// Streams results as CSV rows:
//   query,evaluation_time,win_start,win_end,<projected columns...>
// A header line is written once before the first row. Values containing
// commas, quotes, or newlines are quoted with doubled inner quotes
// (RFC 4180).
class CsvSink final : public EmitSink {
 public:
  // `columns`: projected columns in output order.
  CsvSink(std::ostream* os, std::vector<std::string> columns)
      : os_(os), columns_(std::move(columns)) {}

  Status OnResult(const std::string& query_name, Timestamp evaluation_time,
                  const TimeAnnotatedTable& table) override;

 private:
  std::ostream* os_;
  std::vector<std::string> columns_;
  bool header_written_ = false;
};

// Streams results as JSON Lines: one object per evaluation —
//   {"query": ..., "at": ..., "win_start": ..., "win_end": ...,
//    "rows": [...]}
// Empty evaluations are emitted too (delta consumers need the heartbeat);
// pass include_empty = false to suppress them.
class JsonLinesSink final : public EmitSink {
 public:
  explicit JsonLinesSink(std::ostream* os, bool include_empty = true)
      : os_(os), include_empty_(include_empty) {}

  Status OnResult(const std::string& query_name, Timestamp evaluation_time,
                  const TimeAnnotatedTable& table) override;

 private:
  std::ostream* os_;
  bool include_empty_;
};

// Counts results and rows (benchmarks; avoids result retention).
class CountingSink final : public EmitSink {
 public:
  Status OnResult(const std::string&, Timestamp,
                  const TimeAnnotatedTable& table) override {
    ++evaluations_;
    rows_ += static_cast<int64_t>(table.table.size());
    return Status::OK();
  }

  int64_t evaluations() const { return evaluations_; }
  int64_t rows() const { return rows_; }
  void Reset() {
    evaluations_ = 0;
    rows_ = 0;
  }

 private:
  int64_t evaluations_ = 0;
  int64_t rows_ = 0;
};

}  // namespace seraph

#endif  // SERAPH_SERAPH_SINKS_H_
