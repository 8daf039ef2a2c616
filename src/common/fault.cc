#include "common/fault.h"

#include <cstdlib>

#include "common/logging.h"

namespace seraph {

FaultInjector& FaultInjector::Global() {
  static FaultInjector* kInstance = new FaultInjector();
  return *kInstance;
}

void FaultInjector::Seed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  rng_.seed(seed);
}

void FaultInjector::ArmProbability(const std::string& point,
                                   double probability) {
  Point p;
  p.mode = Point::Mode::kProbability;
  p.probability = probability < 0.0 ? 0.0 : (probability > 1.0 ? 1.0
                                                               : probability);
  std::lock_guard<std::mutex> lock(mu_);
  points_[point] = std::move(p);
  armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::ArmSchedule(const std::string& point,
                                std::vector<int64_t> hits) {
  Point p;
  p.mode = Point::Mode::kSchedule;
  p.schedule.insert(hits.begin(), hits.end());
  std::lock_guard<std::mutex> lock(mu_);
  points_[point] = std::move(p);
  armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::ArmNext(const std::string& point, int64_t n) {
  Point p;
  p.mode = Point::Mode::kNext;
  p.fail_next = n;
  std::lock_guard<std::mutex> lock(mu_);
  points_[point] = std::move(p);
  armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::Disarm(const std::string& point) {
  std::lock_guard<std::mutex> lock(mu_);
  points_.erase(point);
  armed_.store(!points_.empty(), std::memory_order_relaxed);
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
  hits_.clear();
  failures_.clear();
  armed_.store(false, std::memory_order_relaxed);
}

void FaultInjector::ConfigureFromEnv() {
  if (const char* seed = std::getenv("SERAPH_FAULT_SEED")) {
    Seed(std::strtoull(seed, nullptr, 10));
  }
  const char* spec = std::getenv("SERAPH_FAULT_POINTS");
  if (spec == nullptr) return;
  // "point=probability[,point=probability...]"
  std::string text(spec);
  size_t start = 0;
  while (start < text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    std::string item = text.substr(start, comma - start);
    start = comma + 1;
    size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      SERAPH_LOG(WARNING) << "SERAPH_FAULT_POINTS: ignoring malformed item '"
                          << item << "'";
      continue;
    }
    std::string point = item.substr(0, eq);
    double probability = std::strtod(item.c_str() + eq + 1, nullptr);
    ArmProbability(point, probability);
    SERAPH_LOG(INFO) << "fault injection armed: " << point << " p="
                     << probability;
  }
}

Status FaultInjector::Fire(const std::string& point) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  if (it == points_.end()) return Status::OK();
  int64_t hit = ++hits_[point];
  Point& p = it->second;
  bool fail = false;
  switch (p.mode) {
    case Point::Mode::kProbability: {
      std::uniform_real_distribution<double> dist(0.0, 1.0);
      fail = dist(rng_) < p.probability;
      break;
    }
    case Point::Mode::kSchedule:
      fail = p.schedule.count(hit) > 0;
      break;
    case Point::Mode::kNext:
      if (p.fail_next > 0) {
        --p.fail_next;
        fail = true;
      }
      break;
  }
  if (!fail) return Status::OK();
  ++failures_[point];
  return Status::Unavailable("injected fault at '" + point + "' (hit #" +
                             std::to_string(hit) + ")");
}

int64_t FaultInjector::hits(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hits_.find(point);
  return it == hits_.end() ? 0 : it->second;
}

int64_t FaultInjector::failures(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = failures_.find(point);
  return it == failures_.end() ? 0 : it->second;
}

}  // namespace seraph
