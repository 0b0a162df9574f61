// Unified tracing layer: Chrome trace-event timelines for the partition
// search and the simulated cluster.
//
// One `TraceRecorder` captures two clock domains at once:
//
//  * `Domain::Search` — *wall-clock* spans of the partition search
//    (verify gate, Phase 1 atomic, Phase 2 block, Phase 3 per-(S, MB)
//    stage-DP jobs) laid out on one chrome `tid` row per host thread, so
//    the `ThreadPool` worker lanes of the parallel sweep render as a
//    flame view. Cumulative sweep progress (DP cells, profile queries,
//    jobs done) rides along as `sweep_progress` counter events.
//
//  * `Domain::SimSchedule` — *virtual-time* spans of the simulated
//    pipeline: every scheduled op of the pipeline simulators on a
//    per-stage track. These timestamps are simulated seconds, not host
//    time, and their serialization is canonically ordered so the emitted
//    JSON is bit-identical across runs and thread counts (the simulations
//    themselves are deterministic).
//
// The emitted file loads directly in chrome://tracing / Perfetto
// (catapult trace-event JSON, `ph` X/C/i/M, `ts`/`dur` in microseconds).
//
// Recording is gated: library code traces through the process-global
// recorder pointer (`obs::set_recorder` / `obs::recorder`), and every
// probe — including `Scope` — collapses to a single relaxed atomic load
// when no recorder is attached. Tools enable it from `--trace` flags or
// the `RANNC_TRACE` environment variable; with the gate off, partition
// plans are bit-identical to the untraced path (tracing never feeds back
// into any decision).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/json.h"

namespace rannc {
namespace obs {

/// Clock domain of an event; doubles as the chrome `pid` so the two
/// timelines render as separate processes.
enum class Domain : int {
  Search = 1,       ///< wall-clock partition-search events
  SimSchedule = 2,  ///< virtual-time pipeline-schedule events
};

struct TraceEvent {
  Domain domain = Domain::Search;
  char ph = 'X';      ///< X = complete span, C = counter, i = instant
  int tid = 0;        ///< thread lane (Search) or stage track (SimSchedule)
  double ts_us = 0;   ///< microseconds (wall since recorder start, or sim)
  double dur_us = 0;  ///< span length; meaningful for ph == 'X' only
  std::string name;
  std::string cat;
  /// Args object from a Compact json::Writer, e.g. `{"S":4,"MB":8}`.
  /// Empty = no args.
  std::string args;
};

/// Thread-safe trace-event sink. `add` appends to a per-calling-thread
/// buffer (registered once per thread under a mutex, then guarded only by
/// that buffer's own uncontended lock), so concurrent recording from the
/// stage-DP sweep's worker lanes stays cheap.
class TraceRecorder {
 public:
  TraceRecorder();
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Wall-clock microseconds since this recorder was created.
  [[nodiscard]] double now_us() const;

  /// Chrome `tid` of the calling thread's wall-clock lane (registers the
  /// thread on first use; lanes number in registration order).
  int lane();

  void add(TraceEvent ev);

  /// Complete span ('X').
  void complete(Domain d, int tid, std::string name, const char* cat,
                double ts_us, double dur_us, std::string args = {});
  /// Counter sample ('C'); `args` carries the series values, e.g.
  /// `{"hits":12,"misses":3}`.
  void counter(Domain d, int tid, std::string name, double ts_us,
               std::string args);
  /// Instant event ('i').
  void instant(Domain d, int tid, std::string name, const char* cat,
               double ts_us);

  /// Labels a virtual-time track (chrome thread_name metadata).
  void set_track_name(Domain d, int tid, std::string name);

  /// All events so far, canonically sorted (pid, tid, ts, ph, name, ...).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  [[nodiscard]] std::size_t event_count() const;

  /// Full trace document: {"traceEvents": [...], "displayTimeUnit": "ms"}.
  [[nodiscard]] std::string json() const;
  /// Returns false when the file cannot be opened.
  bool write_json_file(const std::string& path) const;

  /// The events of one domain (plus its track-name metadata) as a Compact
  /// JSON array, canonically sorted — the unit tests compare these strings
  /// to pin down bit-identical virtual-time traces across thread counts.
  [[nodiscard]] std::string events_json(Domain d) const;

 private:
  struct Buffer {
    mutable std::mutex mu;
    std::vector<TraceEvent> events;
    int tid = 0;
    std::string thread_name;
  };

  Buffer* buffer_for_this_thread();
  void gather(std::vector<TraceEvent>& events,
              std::vector<std::pair<int, std::string>>& lanes) const;

  const std::uint64_t id_;  ///< process-unique, keys the thread-local cache
  const std::chrono::steady_clock::time_point t0_;

  mutable std::mutex reg_mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  int next_tid_ = 0;
  std::map<std::pair<int, int>, std::string> track_names_;  // (pid, tid)
};

/// Attaches/detaches the process-global recorder probes record through.
/// Passing nullptr disables tracing; the previously attached recorder (if
/// any) is returned so callers can restore it.
TraceRecorder* set_recorder(TraceRecorder* rec);
/// The attached recorder, or nullptr. One relaxed atomic load.
TraceRecorder* recorder();
/// recorder() != nullptr.
bool enabled();
/// True when the RANNC_TRACE environment variable is set to anything but
/// "" or "0" — how tools decide to attach a recorder by default.
bool trace_env_enabled();

/// Names the calling thread's wall-clock lane (e.g. "pool-worker-3").
/// Cheap; safe to call before any recorder exists.
void set_thread_name(std::string name);

/// RAII wall-clock span on the calling thread's lane of the global
/// recorder. When no recorder is attached, construction is one relaxed
/// atomic load and everything else is a no-op.
class Scope {
 public:
  explicit Scope(const char* name, const char* cat = "search")
      : rec_(recorder()) {
    if (rec_ == nullptr) return;
    name_ = name;
    begin(cat);
  }
  /// Lazy-name variant: the (possibly costly) name string is only built
  /// when a recorder is attached.
  template <typename NameFn,
            std::enable_if_t<std::is_invocable_r_v<std::string, NameFn>,
                             int> = 0>
  explicit Scope(NameFn&& name_fn, const char* cat = "search")
      : rec_(recorder()) {
    if (rec_ == nullptr) return;
    name_ = name_fn();
    begin(cat);
  }
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] bool active() const { return rec_ != nullptr; }

  /// Appends an args member (a number, bool or string); no-op when
  /// inactive.
  template <typename T>
  void arg(const char* key, const T& v) {
    if (rec_ == nullptr) return;
    if (args_.str().empty()) args_.begin_object();
    args_.field(key, v);
  }

 private:
  void begin(const char* cat);

  TraceRecorder* rec_;
  std::string name_;
  const char* cat_ = "";
  double ts_us_ = 0;
  json::Writer args_{json::Layout::Compact};
};

// ---- shared timeline representation ---------------------------------------

/// One box of a generic timeline: the common currency between the ASCII
/// Gantt renderer and the trace recorder, so schedule results are walked
/// exactly once (src/pipeline converts its intervals into these).
struct TimelineSpan {
  int track = 0;       ///< row (e.g. pipeline stage)
  char glyph = 'X';    ///< cell character for the ASCII renderer
  std::string name;    ///< trace event name
  double start = 0;    ///< domain time, seconds
  double end = 0;
  std::string args;    ///< trace event args (TraceEvent::args)
};

/// ASCII Gantt: one `<track_label><track> |....XX..|` row per track,
/// `total_time` scaled to `width` columns. Empty when there is nothing
/// to draw.
std::string render_ascii_timeline(const std::vector<TimelineSpan>& spans,
                                  int num_tracks, const char* track_label,
                                  double total_time, int width);

/// Records spans into a virtual-time domain (`ts = start * 1e6` us).
void record_spans(TraceRecorder& rec, Domain d, const char* cat,
                  const std::vector<TimelineSpan>& spans);

// ---- JSON spelling forwards ------------------------------------------------

/// json::number; kept for callers outside the library.
std::string json_double(double v);
/// json::quote; kept for callers outside the library.
std::string json_string(const std::string& s);

}  // namespace obs
}  // namespace rannc
