#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---- tracing -------------------------------------------------------------------

Tracer::Tracer() : t0_(Clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
}

Tracer::Scope::Scope(Tracer* tr, const char* name, int op) : tr_(tr) {
  if (tr_ == nullptr) return;
  idx_ = static_cast<int>(tr_->spans_.size());
  const int parent = tr_->stack_.empty() ? -1 : tr_->stack_.back();
  tr_->spans_.push_back(Span{name, tr_->now_us(), 0, parent, op});
  tr_->stack_.push_back(idx_);
}

Tracer::Scope::~Scope() {
  if (tr_ == nullptr) return;
  tr_->spans_[static_cast<std::size_t>(idx_)].end_us = tr_->now_us();
  tr_->stack_.pop_back();
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "  {\"name\": " << rannc::obs::json_string(s.name)
      << ", \"start_us\": " << rannc::obs::json_double(s.start_us)
      << ", \"end_us\": " << rannc::obs::json_double(s.end_us)
      << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}"
      << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

// ---- statistics ------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double gmean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double OpLog::gmean_of_medians() const {
  std::vector<double> meds;
  for (const auto& [kind, xs] : samples_) meds.push_back(median(xs));
  return gmean(meds);
}

std::vector<double> OpLog::mins() const {
  std::vector<double> out;
  for (const auto& [kind, xs] : samples_)
    out.push_back(*std::min_element(xs.begin(), xs.end()));
  return out;
}

std::string OpLog::describe() const {
  std::ostringstream os;
  char buf[256];
  for (const auto& [kind, xs] : samples_) {
    std::snprintf(buf, sizeof buf, "  %-28s n=%-3zu min %10.3f ms  median %10.3f ms",
                  kind.c_str(), xs.size(), *std::min_element(xs.begin(), xs.end()),
                  median(xs));
    os << buf;
    // The highest percentile with at least ten samples beyond it.
    std::vector<double> s = xs;
    std::sort(s.begin(), s.end());
    for (int p : {99, 90, 75}) {
      const double beyond = static_cast<double>(s.size()) * (100 - p) / 100.0;
      if (beyond >= 10) {
        const auto idx = static_cast<std::size_t>(
            std::ceil(static_cast<double>(s.size()) * p / 100.0)) - 1;
        std::snprintf(buf, sizeof buf, "  p%d %10.3f ms", p, s[idx]);
        os << buf;
        break;
      }
    }
    os << "\n";
  }
  return os.str();
}

double LayerSamples::gmean_median(const std::string& layer) const {
  const auto it = by_layer_.find(layer);
  if (it == by_layer_.end()) return 0;
  std::vector<double> meds;
  for (const auto& [kind, xs] : it->second) meds.push_back(median(xs));
  return gmean(meds);
}

double LayerSamples::median_of(const std::string& layer,
                               const std::string& kind) const {
  const auto it = by_layer_.find(layer);
  if (it == by_layer_.end()) return 0;
  const auto k = it->second.find(kind);
  return k == it->second.end() ? 0 : median(k->second);
}

std::vector<std::string> LayerSamples::kinds(const std::string& layer) const {
  std::vector<std::string> out;
  const auto it = by_layer_.find(layer);
  if (it != by_layer_.end())
    for (const auto& [kind, xs] : it->second) out.push_back(kind);
  return out;
}

// ---- reference checks ----------------------------------------------------------

namespace {
// Relative slack on a plan cost: plan_io writes est_iteration_time with six
// significant digits, so a served plan and the frozen value may differ in
// the last printed digit.
constexpr double kPlanSlack = 1e-5;
// bench_loss_parity's threshold.
constexpr double kLossTol = 1e-3;
}  // namespace

Checker::Checker(const std::string& path, bool corrupt) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read reference file " + path);
  std::stringstream ss;
  ss << f.rdbuf();
  const rannc::json::Value doc = rannc::json::parse(ss.str());
  if (const auto* plans = doc.find("plan_est_iteration_s"))
    for (const auto& [key, v] : plans->members)
      plan_ref_[key] = v.number * (corrupt ? 0.5 : 1.0);
  if (const auto* losses = doc.find("train_loss"))
    for (const auto& v : losses->items)
      losses_.push_back(v.number + (corrupt ? 0.01 : 0.0));
}

bool Checker::fail(const std::string& why) {
  // Enough detail to debug the first few failures without flooding stdout.
  if (reported_++ < 8) std::printf("check failed: %s\n", why.c_str());
  return false;
}

bool Checker::plan(const std::string& key, const PartitionResult& plan,
                   const SearchRequest& req) {
  if (!plan.feasible) return fail(key + ": infeasible: " + plan.infeasible_reason);
  const auto violations = validate_plan(plan, req);
  if (!violations.empty())
    return fail(key + ": validate_plan: " + violations.front().what);
  seen_plans_[key] = plan.est_iteration_time;
  const auto it = plan_ref_.find(key);
  if (it == plan_ref_.end()) return fail(key + ": no frozen reference");
  const double ratio = plan.est_iteration_time / it->second;
  ratios_.push_back(ratio);
  if (!(ratio <= 1 + kPlanSlack))
    return fail(key + ": est_iteration_time " +
                std::to_string(plan.est_iteration_time) + " s vs reference " +
                std::to_string(it->second) + " s");
  return true;
}

bool Checker::step_loss(std::size_t index, float value) {
  if (!std::isfinite(value)) return fail("loss is not finite");
  seen_losses_[index] = value;
  if (index >= losses_.size())
    return fail("step " + std::to_string(index) + ": no frozen reference");
  const double ref = losses_[index];
  if (std::fabs(static_cast<double>(value) - ref) > kLossTol)
    return fail("step " + std::to_string(index) + " loss " +
                std::to_string(value) + " vs reference " + std::to_string(ref));
  return true;
}

bool Checker::loss_parity(float pipeline, float single) {
  if (!std::isfinite(pipeline) || !std::isfinite(single))
    return fail("loss is not finite");
  if (std::fabs(static_cast<double>(pipeline) - single) > kLossTol)
    return fail("pipeline loss " + std::to_string(pipeline) +
                " vs single-device " + std::to_string(single));
  return true;
}

double Checker::plan_cost_ratio() const { return gmean(ratios_); }

std::string Checker::observed_json() const {
  std::ostringstream os;
  os << "{\"plan_est_iteration_s\": {";
  bool first = true;
  for (const auto& [k, v] : seen_plans_) {
    os << (first ? "" : ", ") << rannc::obs::json_string(k) << ": "
       << rannc::obs::json_double(v);
    first = false;
  }
  os << "}, \"train_loss\": [";
  first = true;
  for (const auto& [i, v] : seen_losses_) {
    os << (first ? "" : ", ") << rannc::obs::json_double(v);
    first = false;
  }
  os << "]}";
  return os.str();
}

}  // namespace perfbench
