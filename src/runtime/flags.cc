#include "runtime/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string_view>
#include <type_traits>

namespace seraph {
namespace runtime {

namespace {

template <typename... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <typename... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

template <typename T>
bool ParseNumber(std::string_view text, const Flag& flag, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  const double v = static_cast<double>(value);
  const bool in_range = std::is_floating_point_v<T>
                            ? v > flag.min && v <= flag.max
                            : v >= flag.min && v <= flag.max;
  if (!in_range) return false;
  *out = value;
  return true;
}

// Parses `text` into the flag's destination; false leaves it untouched.
bool Assign(const Flag& flag, std::string_view text) {
  return std::visit(
      Overloaded{
          [](bool* dest) {
            *dest = true;
            return true;
          },
          [&](std::string* dest) {
            if (text.empty()) return false;
            *dest = std::string(text);
            return true;
          },
          [&](std::vector<std::string>* dest) {
            if (text.empty()) return false;
            dest->emplace_back(text);
            return true;
          },
          [&](OverflowPolicy* dest) {
            return ParseOverflowPolicy(std::string(text), dest);
          },
          [&](auto* dest) { return ParseNumber(text, flag, dest); }},
      flag.destination);
}

std::string Bound(double value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

// What a rejected value should have been, for the error message.
std::string Expected(const Flag& flag) {
  return std::visit(
      Overloaded{
          [](bool*) -> std::string { return "no value"; },
          [](std::string*) -> std::string { return "a non-empty value"; },
          [](std::vector<std::string>*) -> std::string {
            return "a non-empty value";
          },
          [](OverflowPolicy*) -> std::string {
            return "reject or shed_oldest";
          },
          [&](double*) -> std::string {
            return "a number > " + Bound(flag.min);
          },
          [&](auto*) -> std::string {
            if (std::isinf(flag.max)) return "an integer >= " + Bound(flag.min);
            return "an integer in [" + Bound(flag.min) + ", " +
                   Bound(flag.max) + "]";
          }},
      flag.destination);
}

}  // namespace

Flag ThreadsFlag(int* threads) {
  return {"--threads=<n>", threads,
          "evaluation threads (0 = hardware concurrency)", 0, 4096,
          "SERAPH_EVAL_THREADS"};
}

Flag QueueCapacityFlag(size_t* capacity) {
  return {"--queue-capacity=<n>", capacity,
          "bound the event queue (default unbounded)", 1, kNoMax,
          "SERAPH_QUEUE_CAPACITY"};
}

Flag OverflowPolicyFlag(OverflowPolicy* policy) {
  return {"--overflow-policy=<reject|shed_oldest>", policy,
          "what a full queue does (default reject)", 0, kNoMax,
          "SERAPH_OVERFLOW_POLICY"};
}

CommandLine::CommandLine(std::string tool, std::string usage,
                         std::vector<Flag> flags)
    : tool_(std::move(tool)),
      usage_(std::move(usage)),
      flags_(std::move(flags)) {}

std::optional<int> CommandLine::Parse(int argc, char** argv,
                                      std::vector<std::string>* positional) {
  for (const Flag& flag : flags_) {
    const char* env = flag.env != nullptr ? std::getenv(flag.env) : nullptr;
    if (env != nullptr) Assign(flag, env);  // Malformed: the default stays.
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << Help();
      return 0;
    }
    if (!arg.starts_with("--")) {
      if (positional == nullptr) {
        return Fail("unexpected argument '" + arg + "' (see --help)");
      }
      positional->push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const Flag* flag = nullptr;
    for (const Flag& candidate : flags_) {
      if (candidate.name.substr(0, candidate.name.find('=')) == key) {
        flag = &candidate;
      }
    }
    if (flag == nullptr) {
      return Fail("unknown flag '" + key + "' (see --help)");
    }
    const bool is_switch = std::holds_alternative<bool*>(flag->destination);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (is_switch != (eq == std::string::npos) || !Assign(*flag, value)) {
      return Fail(key + " expects " + Expected(*flag) + ", got '" + arg +
                  "'");
    }
  }
  return std::nullopt;
}

std::string CommandLine::Help() const {
  size_t width = 0;
  for (const Flag& flag : flags_) width = std::max(width, flag.name.size());
  std::string out = "usage: " + tool_ + " " + usage_ + "\nflags:\n";
  for (const Flag& flag : flags_) {
    out += "  " + flag.name + std::string(width + 2 - flag.name.size(), ' ') +
           flag.help;
    if (flag.env != nullptr) out += " [env " + std::string(flag.env) + "]";
    out += "\n";
  }
  return out;
}

int CommandLine::Fail(const std::string& message) const {
  std::cerr << tool_ << ": " << message << "\n";
  return 1;
}

}  // namespace runtime
}  // namespace seraph
