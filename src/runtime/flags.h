// The command-line parser shared by seraph_run, seraph_serve and
// latency_harness. A tool declares its flags as one table; the parser
// reads environment fallbacks, then the command line, and generates the
// --help text from the same table:
//
//   double rate = 2000;
//   int stats_interval = 0;
//   CommandLine cli("latency_harness", "[flags]", {
//       {"--rate=<events/sec>", &rate, "target production rate", 0},
//       {"--stats-interval=<sec>", &stats_interval, "status line period", 0,
//        kNoMax, "SERAPH_STATS_INTERVAL"},
//   });
//   if (auto exit_code = cli.Parse(argc, argv)) return *exit_code;
//
// A flag beats its environment variable, which beats the declared
// default. Values parse strictly: "2x", "" and out-of-range values are
// errors on the command line; in the environment they leave the default
// in place.
#ifndef SERAPH_RUNTIME_FLAGS_H_
#define SERAPH_RUNTIME_FLAGS_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "stream/overflow_policy.h"

namespace seraph {
namespace runtime {

inline constexpr double kNoMax = std::numeric_limits<double>::infinity();

// One row of a flag table.
struct Flag {
  using Destination =
      std::variant<bool*, int*, int64_t*, size_t*, double*, std::string*,
                   std::vector<std::string>*, OverflowPolicy*>;

  // "--name=<placeholder>" for a valued flag, "--name" for a switch (which
  // takes a bool destination). --help shows the name as written.
  std::string name;
  Destination destination;
  // One line for --help.
  std::string help;
  // Integers must lie in [min, max]; a double must exceed min and not
  // exceed max. Strings must be non-empty; a vector destination collects
  // every occurrence.
  double min = 0;
  double max = kNoMax;
  // Environment variable supplying the default, or null.
  const char* env = nullptr;
};

// The rows every serving tool declares alike, so one flag means one thing
// (and reads one environment variable) in all of them.
//   --threads=<n>            SERAPH_EVAL_THREADS   EngineOptions::eval_threads
//   --queue-capacity=<n>     SERAPH_QUEUE_CAPACITY the queue bound
//   --overflow-policy=<...>  SERAPH_OVERFLOW_POLICY what a full queue does
Flag ThreadsFlag(int* threads);
Flag QueueCapacityFlag(size_t* capacity);
Flag OverflowPolicyFlag(OverflowPolicy* policy);

class CommandLine {
 public:
  // `usage` follows "usage: <tool> " in --help.
  CommandLine(std::string tool, std::string usage, std::vector<Flag> flags);

  // Applies the environment fallbacks, then argv. Returns the exit code
  // when the tool should stop here: 0 after printing --help, 1 after
  // printing an error. Arguments not starting with "--" go to
  // `positional`; without it, they are errors.
  std::optional<int> Parse(int argc, char** argv,
                           std::vector<std::string>* positional = nullptr);

  // The generated usage text: every declared flag with its help line and
  // environment variable.
  std::string Help() const;

  // Prints "<tool>: <message>" to stderr and returns 1.
  int Fail(const std::string& message) const;

 private:
  std::string tool_;
  std::string usage_;
  std::vector<Flag> flags_;
};

}  // namespace runtime
}  // namespace seraph

#endif  // SERAPH_RUNTIME_FLAGS_H_
