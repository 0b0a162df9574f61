#include "resilience/fault_plan.h"

#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"
#include "util/json.h"

namespace rannc {
namespace resilience {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::RankFail: return "rank_fail";
    case FaultKind::LinkDegrade: return "link_degrade";
    case FaultKind::LinkOutage: return "link_outage";
    case FaultKind::MsgTimeout: return "msg_timeout";
  }
  return "?";
}

namespace {

FaultKind kind_from_name(const std::string& s) {
  if (s == "rank_fail") return FaultKind::RankFail;
  if (s == "link_degrade") return FaultKind::LinkDegrade;
  if (s == "link_outage") return FaultKind::LinkOutage;
  if (s == "msg_timeout") return FaultKind::MsgTimeout;
  throw std::invalid_argument("fault plan: unknown kind '" + s + "'");
}

void validate_event(const FaultEvent& e) {
  switch (e.kind) {
    case FaultKind::RankFail:
      if (e.rank < 0)
        throw std::invalid_argument("fault plan: rank_fail needs rank >= 0");
      if (!std::isfinite(e.time) || e.time < 0)
        throw std::invalid_argument(
            "fault plan: rank_fail needs a finite time >= 0");
      break;
    case FaultKind::LinkDegrade:
    case FaultKind::LinkOutage:
      if (e.link.empty())
        throw std::invalid_argument("fault plan: link event needs a link");
      if (!std::isfinite(e.start) || !std::isfinite(e.end) ||
          e.end <= e.start || e.start < 0)
        throw std::invalid_argument(
            "fault plan: link window needs finite 0 <= start < end");
      if (e.kind == FaultKind::LinkDegrade &&
          (!(e.factor >= 0) || e.factor >= 1))
        throw std::invalid_argument(
            "fault plan: link_degrade needs factor in [0, 1)");
      break;
    case FaultKind::MsgTimeout:
      if (e.channel.empty())
        throw std::invalid_argument("fault plan: msg_timeout needs a channel");
      if (e.seq < 0 || e.times < 1)
        throw std::invalid_argument(
            "fault plan: msg_timeout needs seq >= 0 and times >= 1");
      break;
  }
}

/// Injector backed by a snapshot of the plan's MsgTimeout events.
class PlanMessageFaults final : public comm::MessageFaultInjector {
 public:
  explicit PlanMessageFaults(const std::vector<FaultEvent>& events) {
    for (const FaultEvent& e : events)
      if (e.kind == FaultKind::MsgTimeout)
        times_[{e.channel, e.seq}] += e.times;
  }

  bool should_timeout(const std::string& channel, std::int64_t seq,
                      int attempt) const override {
    const auto it = times_.find({channel, seq});
    return it != times_.end() && attempt < it->second;
  }

 private:
  std::map<std::pair<std::string, std::int64_t>, std::int64_t> times_;
};

}  // namespace

std::string FaultPlan::to_json() const {
  std::ostringstream os;
  os << "{\n  \"version\": 1,\n  \"events\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    os << "    {\"kind\": \"" << fault_kind_name(e.kind) << "\"";
    switch (e.kind) {
      case FaultKind::RankFail:
        os << ", \"rank\": " << e.rank
           << ", \"time\": " << obs::json_double(e.time);
        break;
      case FaultKind::LinkDegrade:
      case FaultKind::LinkOutage:
        os << ", \"link\": " << obs::json_string(e.link)
           << ", \"start\": " << obs::json_double(e.start)
           << ", \"end\": " << obs::json_double(e.end);
        if (e.kind == FaultKind::LinkDegrade)
          os << ", \"factor\": " << obs::json_double(e.factor);
        break;
      case FaultKind::MsgTimeout:
        os << ", \"channel\": " << obs::json_string(e.channel)
           << ", \"seq\": " << e.seq << ", \"times\": " << e.times;
        break;
    }
    os << "}" << (i + 1 < events.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

FaultPlan FaultPlan::from_json(const std::string& text) {
  const json::Value doc = json::parse(text);
  doc.check_keys({"version", "events"}, "fault plan JSON");
  if (doc.geti("version", 1) != 1)
    throw std::invalid_argument("fault plan JSON: unsupported version");
  FaultPlan plan;
  const json::Value* events = doc.find("events");
  if (events == nullptr) return plan;
  if (!events->is_array())
    throw std::invalid_argument("fault plan JSON: 'events' is not an array");
  for (const json::Value& ev : events->items) {
    ev.check_keys({"kind", "rank", "time", "link", "start", "end", "factor",
                   "channel", "seq", "times"},
                  "fault plan JSON event");
    FaultEvent e;
    e.kind = kind_from_name(ev.gets("kind", fault_kind_name(e.kind)));
    e.rank = ev.geti32("rank", e.rank);
    e.time = ev.getd("time", e.time);
    e.link = ev.gets("link", e.link);
    e.start = ev.getd("start", e.start);
    e.end = ev.getd("end", e.end);
    e.factor = ev.getd("factor", e.factor);
    e.channel = ev.gets("channel", e.channel);
    e.seq = ev.geti("seq", e.seq);
    e.times = ev.geti32("times", e.times);
    if (e.kind == FaultKind::LinkOutage) e.factor = 0;
    validate_event(e);
    plan.events.push_back(std::move(e));
  }
  return plan;
}

FaultPlan FaultPlan::load(const std::string& path) {
  return from_json(json::read_file(path));
}

void FaultPlan::apply_to(comm::Fabric& fabric) const {
  for (const FaultEvent& e : events) {
    validate_event(e);
    switch (e.kind) {
      case FaultKind::RankFail:
        fabric.set_rank_fail(e.rank, e.time);
        break;
      case FaultKind::LinkDegrade:
      case FaultKind::LinkOutage:
        fabric.add_link_fault(e.link, e.start, e.end,
                              e.kind == FaultKind::LinkOutage ? 0.0
                                                              : e.factor);
        break;
      case FaultKind::MsgTimeout:
        break;  // runtime-level; delivered via message_faults()
    }
  }
}

std::shared_ptr<const comm::MessageFaultInjector> FaultPlan::message_faults()
    const {
  return std::make_shared<const PlanMessageFaults>(events);
}

}  // namespace resilience
}  // namespace rannc
