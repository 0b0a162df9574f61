// Fault schedules: the policy half of the fault-injection split.
//
// A FaultPlan is a JSON-loadable list of fault events stamped in *virtual*
// time (fail-stops, link degradations/outages) or in per-channel message
// sequence numbers (transient receive timeouts). Because every event is
// keyed on simulated time or message counts — never on wall clocks — a
// plan injects the exact same faults at the exact same points of a run
// regardless of host scheduling or RANNC_THREADS, which is what makes
// recovery behaviour reproducible and testable bit-for-bit.
//
// The mechanisms the plan drives live below this layer: bandwidth windows
// and fail-stop times on `comm::Fabric`, and the `MessageFaultInjector`
// hook on runtime endpoints. This header only decides *what* to inject.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/fabric.h"
#include "comm/fault.h"

namespace rannc {
namespace resilience {

enum class FaultKind : std::uint8_t {
  RankFail,     ///< fail-stop of one device rank at a virtual time
  LinkDegrade,  ///< bandwidth scaled by `factor` over [start, end)
  LinkOutage,   ///< bandwidth 0 over [start, end) (LinkDegrade, factor 0)
  MsgTimeout,   ///< `times` consecutive delivery timeouts of one message
};

const char* fault_kind_name(FaultKind k);

/// One scheduled fault. Only the fields of the event's kind are meaningful
/// (the rest keep their defaults and round-trip as absent).
struct FaultEvent {
  FaultKind kind = FaultKind::RankFail;
  // RankFail
  int rank = -1;
  double time = 0;  ///< fail-stop instant, virtual seconds
  // LinkDegrade / LinkOutage
  std::string link;  ///< fabric link name, e.g. "nic-out:0"
  double start = 0;
  double end = 0;
  double factor = 1;  ///< LinkDegrade only; LinkOutage forces 0
  // MsgTimeout
  std::string channel;   ///< runtime channel name, e.g. "fwd 0->1"
  std::int64_t seq = 0;  ///< per-channel message sequence number
  int times = 1;         ///< delivery attempts that time out
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  /// Serializes the plan; from_json(to_json()) is an exact round-trip.
  [[nodiscard]] std::string to_json() const;
  /// Parses (through util/json) and validates a plan. Throws
  /// std::invalid_argument on malformed JSON, unknown keys or kinds,
  /// mistyped or non-integral fields, or out-of-range fields (negative
  /// rank, empty window, factor outside [0, 1), times < 1).
  static FaultPlan from_json(const std::string& text);
  /// from_json over a file's contents; throws on an unreadable path.
  static FaultPlan load(const std::string& path);

  /// Registers every RankFail / LinkDegrade / LinkOutage on the fabric
  /// (MsgTimeout events are runtime-level and not applied here). Throws
  /// std::invalid_argument when a link name or rank does not exist in the
  /// fabric's cluster.
  void apply_to(comm::Fabric& fabric) const;

  /// Injector view of the MsgTimeout events, for attaching to runtime
  /// endpoints (PipelineOptions::fault_injector). Delivery attempt `a` of
  /// message (channel, seq) times out while `a` is below the summed
  /// `times` of matching events. The returned object snapshots the plan;
  /// later edits to `events` do not affect it.
  [[nodiscard]] std::shared_ptr<const comm::MessageFaultInjector>
  message_faults() const;
};

}  // namespace resilience
}  // namespace rannc
