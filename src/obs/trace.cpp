#include "obs/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <tuple>

namespace rannc {
namespace obs {

namespace {

std::atomic<TraceRecorder*> g_recorder{nullptr};
std::atomic<std::uint64_t> g_next_recorder_id{1};

thread_local std::string t_thread_name;

/// Per-thread cache of (recorder id -> buffer). Recorder ids are
/// process-unique and never reused, so a stale entry for a destroyed
/// recorder can never match a live one (its buffer pointer is dangling
/// but unreachable). Bounded: oldest entries are dropped past a small cap.
struct BufferSlot {
  std::uint64_t rec_id = 0;
  void* buffer = nullptr;
};
thread_local std::vector<BufferSlot> t_slots;

bool ev_less(const TraceEvent& a, const TraceEvent& b) {
  return std::tie(a.domain, a.tid, a.ts_us, a.ph, a.name, a.dur_us, a.cat,
                  a.args) < std::tie(b.domain, b.tid, b.ts_us, b.ph, b.name,
                                     b.dur_us, b.cat, b.args);
}

const char* domain_label(Domain d) {
  switch (d) {
    case Domain::Search:
      return "search (wall clock)";
    case Domain::SimSchedule:
      return "pipeline schedule (virtual time)";
  }
  return "unknown";
}

void write_event(json::Writer& w, const TraceEvent& e) {
  w.begin_object().field("name", e.name);
  w.field("ph", std::string_view(&e.ph, 1));
  w.field("pid", static_cast<int>(e.domain)).field("tid", e.tid);
  w.field("ts", e.ts_us);
  if (e.ph == 'X') w.field("dur", e.dur_us);
  if (!e.cat.empty()) w.field("cat", e.cat);
  if (e.ph == 'i') w.field("s", "t");
  if (!e.args.empty()) w.key("args").raw(e.args);
  w.end_object();
}

void write_metadata(json::Writer& w, int pid, int tid, const char* kind,
                    const std::string& name) {
  w.begin_object().field("name", kind).field("ph", "M").field("pid", pid);
  w.field("tid", tid).field("ts", 0).key("args").begin_object();
  w.field("name", name).end_object().end_object();
}

}  // namespace

std::string json_double(double v) { return json::number(v); }

std::string json_string(const std::string& s) { return json::quote(s); }

TraceRecorder::TraceRecorder()
    : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      t0_(std::chrono::steady_clock::now()) {}

TraceRecorder::~TraceRecorder() {
  // Detach if still the global recorder, so later probes cannot touch a
  // destroyed object.
  TraceRecorder* self = this;
  g_recorder.compare_exchange_strong(self, nullptr,
                                     std::memory_order_acq_rel);
}

double TraceRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

TraceRecorder::Buffer* TraceRecorder::buffer_for_this_thread() {
  for (const BufferSlot& s : t_slots)
    if (s.rec_id == id_) return static_cast<Buffer*>(s.buffer);
  auto buf = std::make_unique<Buffer>();
  Buffer* raw = buf.get();
  {
    std::lock_guard<std::mutex> lk(reg_mu_);
    raw->tid = next_tid_++;
    raw->thread_name = t_thread_name;
    buffers_.push_back(std::move(buf));
  }
  if (t_slots.size() >= 8) t_slots.erase(t_slots.begin());
  t_slots.push_back({id_, raw});
  return raw;
}

int TraceRecorder::lane() { return buffer_for_this_thread()->tid; }

void TraceRecorder::add(TraceEvent ev) {
  Buffer* buf = buffer_for_this_thread();
  std::lock_guard<std::mutex> lk(buf->mu);
  buf->events.push_back(std::move(ev));
}

void TraceRecorder::complete(Domain d, int tid, std::string name,
                             const char* cat, double ts_us, double dur_us,
                             std::string args) {
  TraceEvent e;
  e.domain = d;
  e.ph = 'X';
  e.tid = tid;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.name = std::move(name);
  e.cat = cat;
  e.args = std::move(args);
  add(std::move(e));
}

void TraceRecorder::counter(Domain d, int tid, std::string name, double ts_us,
                            std::string args) {
  TraceEvent e;
  e.domain = d;
  e.ph = 'C';
  e.tid = tid;
  e.ts_us = ts_us;
  e.name = std::move(name);
  e.args = std::move(args);
  add(std::move(e));
}

void TraceRecorder::instant(Domain d, int tid, std::string name,
                            const char* cat, double ts_us) {
  TraceEvent e;
  e.domain = d;
  e.ph = 'i';
  e.tid = tid;
  e.ts_us = ts_us;
  e.name = std::move(name);
  e.cat = cat;
  add(std::move(e));
}

void TraceRecorder::set_track_name(Domain d, int tid, std::string name) {
  std::lock_guard<std::mutex> lk(reg_mu_);
  track_names_[{static_cast<int>(d), tid}] = std::move(name);
}

void TraceRecorder::gather(
    std::vector<TraceEvent>& events,
    std::vector<std::pair<int, std::string>>& lanes) const {
  std::vector<Buffer*> bufs;
  {
    std::lock_guard<std::mutex> lk(reg_mu_);
    bufs.reserve(buffers_.size());
    for (const auto& b : buffers_) bufs.push_back(b.get());
  }
  for (Buffer* b : bufs) {
    std::lock_guard<std::mutex> lk(b->mu);
    events.insert(events.end(), b->events.begin(), b->events.end());
    lanes.emplace_back(b->tid,
                       b->thread_name.empty()
                           ? "thread-" + std::to_string(b->tid)
                           : b->thread_name);
  }
  std::sort(events.begin(), events.end(), ev_less);
  std::sort(lanes.begin(), lanes.end());
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<TraceEvent> events;
  std::vector<std::pair<int, std::string>> lanes;
  gather(events, lanes);
  return events;
}

std::size_t TraceRecorder::event_count() const {
  std::size_t n = 0;
  std::vector<Buffer*> bufs;
  {
    std::lock_guard<std::mutex> lk(reg_mu_);
    for (const auto& b : buffers_) bufs.push_back(b.get());
  }
  for (Buffer* b : bufs) {
    std::lock_guard<std::mutex> lk(b->mu);
    n += b->events.size();
  }
  return n;
}

std::string TraceRecorder::json() const {
  std::vector<TraceEvent> events;
  std::vector<std::pair<int, std::string>> lanes;
  gather(events, lanes);
  std::map<std::pair<int, int>, std::string> tracks;
  {
    std::lock_guard<std::mutex> lk(reg_mu_);
    tracks = track_names_;
  }

  json::Writer w;
  w.begin_object().key("traceEvents").begin_array();
  for (Domain d : {Domain::Search, Domain::SimSchedule})
    write_metadata(w, static_cast<int>(d), 0, "process_name",
                   domain_label(d));
  for (const auto& [tid, name] : lanes)
    write_metadata(w, static_cast<int>(Domain::Search), tid, "thread_name",
                   name);
  for (const auto& [key, name] : tracks)
    write_metadata(w, key.first, key.second, "thread_name", name);
  for (const TraceEvent& e : events) write_event(w, e);
  w.end_array().field("displayTimeUnit", "ms").end_object();
  return w.str();
}

bool TraceRecorder::write_json_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << json();
  return static_cast<bool>(os);
}

std::string TraceRecorder::events_json(Domain d) const {
  std::vector<TraceEvent> events = snapshot();
  std::map<std::pair<int, int>, std::string> tracks;
  {
    std::lock_guard<std::mutex> lk(reg_mu_);
    tracks = track_names_;
  }
  json::Writer w(json::Layout::Compact);
  w.begin_array();
  for (const auto& [key, name] : tracks)
    if (key.first == static_cast<int>(d))
      write_metadata(w, key.first, key.second, "thread_name", name);
  for (const TraceEvent& e : events)
    if (e.domain == d) write_event(w, e);
  w.end_array();
  return w.str();
}

TraceRecorder* set_recorder(TraceRecorder* rec) {
  return g_recorder.exchange(rec, std::memory_order_acq_rel);
}

TraceRecorder* recorder() {
  return g_recorder.load(std::memory_order_relaxed);
}

bool enabled() { return recorder() != nullptr; }

bool trace_env_enabled() {
  const char* e = std::getenv("RANNC_TRACE");
  return e != nullptr && e[0] != '\0' &&
         !(e[0] == '0' && e[1] == '\0');
}

void set_thread_name(std::string name) { t_thread_name = std::move(name); }

// ---- Scope ----------------------------------------------------------------

void Scope::begin(const char* cat) {
  cat_ = cat;
  ts_us_ = rec_->now_us();
}

Scope::~Scope() {
  if (rec_ == nullptr) return;
  if (!args_.str().empty()) args_.end_object();
  rec_->complete(Domain::Search, rec_->lane(), std::move(name_), cat_, ts_us_,
                 rec_->now_us() - ts_us_, args_.str());
}

// ---- timeline spans -------------------------------------------------------

std::string render_ascii_timeline(const std::vector<TimelineSpan>& spans,
                                  int num_tracks, const char* track_label,
                                  double total_time, int width) {
  std::ostringstream os;
  if (spans.empty() || total_time <= 0 || num_tracks <= 0 || width <= 0)
    return "";
  const double scale = static_cast<double>(width) / total_time;
  for (int t = 0; t < num_tracks; ++t) {
    std::string row(static_cast<std::size_t>(width), '.');
    for (const TimelineSpan& sp : spans) {
      if (sp.track != t) continue;
      int a = static_cast<int>(std::floor(sp.start * scale));
      int b = static_cast<int>(std::ceil(sp.end * scale));
      a = std::clamp(a, 0, width - 1);
      b = std::clamp(b, a + 1, width);
      for (int i = a; i < b; ++i)
        row[static_cast<std::size_t>(i)] = sp.glyph;
    }
    os << track_label << t << " |" << row << "|\n";
  }
  return os.str();
}

void record_spans(TraceRecorder& rec, Domain d, const char* cat,
                  const std::vector<TimelineSpan>& spans) {
  for (const TimelineSpan& sp : spans)
    rec.complete(d, sp.track, sp.name, cat, sp.start * 1e6,
                 (sp.end - sp.start) * 1e6, sp.args);
}

}  // namespace obs
}  // namespace rannc
