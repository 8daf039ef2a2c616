// Deterministic fault-injecting test doubles for the transport and sink
// sides of the Fig. 1 loop. They complement the FaultInjector (which
// fails the library's own fault points): the doubles model a *component*
// failing — a broker that drops polls, a consumer that rejects results —
// with exact, countable schedules.
#ifndef SERAPH_TESTS_FAULT_DOUBLES_H_
#define SERAPH_TESTS_FAULT_DOUBLES_H_

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "seraph/continuous_engine.h"
#include "stream/event_queue.h"

namespace seraph {

// An EventQueue whose Poll transiently fails on a fixed cadence
// (every `fail_every`-th call), like a broker timing out.
class FlakyQueue final : public EventQueue {
 public:
  explicit FlakyQueue(int fail_every) : fail_every_(fail_every) {}

  Result<std::vector<StreamElement>> Poll(const std::string& consumer,
                                          size_t max_events) override {
    ++polls_;
    if (fail_every_ > 0 && polls_ % fail_every_ == 0) {
      ++failures_;
      return Status::Unavailable("flaky queue: poll #" +
                                 std::to_string(polls_) + " timed out");
    }
    return EventQueue::Poll(consumer, max_events);
  }

  int64_t polls() const { return polls_; }
  int64_t failures() const { return failures_; }

 private:
  int fail_every_;
  int64_t polls_ = 0;
  int64_t failures_ = 0;
};

// A sink that transiently rejects every `fail_every`-th delivery and
// forwards the rest to an optional inner sink.
class FlakySink final : public EmitSink {
 public:
  FlakySink(EmitSink* inner, int fail_every)
      : inner_(inner), fail_every_(fail_every) {}

  Status OnResult(const std::string& query_name, Timestamp evaluation_time,
                  const TimeAnnotatedTable& table) override {
    ++calls_;
    if (fail_every_ > 0 && calls_ % fail_every_ == 0) {
      ++failures_;
      return Status::Unavailable("flaky sink: delivery #" +
                                 std::to_string(calls_) + " rejected");
    }
    ++accepted_;
    return inner_ != nullptr
               ? inner_->OnResult(query_name, evaluation_time, table)
               : Status::OK();
  }

  int64_t calls() const { return calls_; }
  int64_t failures() const { return failures_; }
  int64_t accepted() const { return accepted_; }

 private:
  EmitSink* inner_;
  int fail_every_;
  int64_t calls_ = 0;
  int64_t failures_ = 0;
  int64_t accepted_ = 0;
};

// A sink that fails exactly the given 1-based delivery numbers (or, with
// `fail_from`, every delivery from that number on) with a configurable
// status — kUnavailable to model recoverable hiccups, any other code to
// model a permanently broken consumer.
class FailNthSink final : public EmitSink {
 public:
  FailNthSink(std::set<int64_t> fail_on, Status failure)
      : fail_on_(std::move(fail_on)), failure_(std::move(failure)) {}
  static FailNthSink AlwaysFailingFrom(int64_t fail_from, Status failure) {
    FailNthSink sink({}, std::move(failure));
    sink.fail_from_ = fail_from;
    return sink;
  }

  Status OnResult(const std::string&, Timestamp,
                  const TimeAnnotatedTable&) override {
    ++calls_;
    bool fail = fail_on_.count(calls_) > 0 ||
                (fail_from_ > 0 && calls_ >= fail_from_);
    if (fail) {
      ++failures_;
      return failure_;
    }
    ++accepted_;
    return Status::OK();
  }

  int64_t calls() const { return calls_; }
  int64_t failures() const { return failures_; }
  int64_t accepted() const { return accepted_; }

 private:
  std::set<int64_t> fail_on_;
  int64_t fail_from_ = 0;
  Status failure_;
  int64_t calls_ = 0;
  int64_t failures_ = 0;
  int64_t accepted_ = 0;
};

}  // namespace seraph

#endif  // SERAPH_TESTS_FAULT_DOUBLES_H_
