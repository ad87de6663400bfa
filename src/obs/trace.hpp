// Virtual-time event tracing.
//
// A Machine's observer (sim/fanout.hpp) turns the simulator's events into
// typed TraceEvents for the TraceSink named by MachineConfig::trace. Sinks
// observe, never steer: virtual-time results are byte-identical with
// tracing on or off.
//
// ChromeTraceWriter serializes events to Chrome trace-event JSON (loadable
// in Perfetto / chrome://tracing): one track per simulated task, one per
// core for line accesses, and one resource track per memory channel. Events
// are streamed to disk as they arrive, so trace memory stays O(1).
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

namespace capmem::obs {

/// Typed events of the simulator's virtual-time taxonomy.
enum class EventKind : std::uint8_t {
  kTaskResume,   ///< scheduler resumed task `tid` at t
  kTaskPark,     ///< task parked on a wait key (spin-wait)
  kTaskUnpark,   ///< task woken; t = park time, dur = parked interval
  kTaskFinish,   ///< task coroutine completed
  kSyncRelease,  ///< engine barrier released (a = arrivals)
  kLineAccess,   ///< timed line access; dur = latency, label = serving level
  kCoherence,    ///< directory state transition; a = from, b = to TileState
  kDirLookup,    ///< home-CHA request; a = home tile, queue_ns = CHA queue
  kNocHops,      ///< mesh traversal; a = hop count of the request path
  kChannelXfer,  ///< channel reservation; a = channel, dur = service,
                 ///<   queue_ns = controller queue delay, label = pool name
  kCheckViolation,  ///< capmem::check divergence; label = checker message
  kFaultRetry,   ///< fault-injection retry; label = fault site, a = retries
  kAbort,        ///< engine SimAbort; tid = stuck task, label = abort kind
  kCritEdge,     ///< critical-path dependency; tid = waiter, a = predecessor,
                 ///<   b = link ordinal (flow id), label = "wake" / "sync"
};

const char* to_string(EventKind k);

/// Category bits for trace filtering (--trace-events).
enum : unsigned {
  kCatTask = 1u << 0,
  kCatAccess = 1u << 1,
  kCatCoherence = 1u << 2,
  kCatDirectory = 1u << 3,
  kCatNoc = 1u << 4,
  kCatChannel = 1u << 5,
  kCatCheck = 1u << 6,
  kCatFault = 1u << 7,
  kCatAll = (1u << 8) - 1,
};
unsigned category_of(EventKind k);
/// Parses a comma list of {task,access,coherence,directory,noc,channel,all};
/// throws CheckError on unknown names.
unsigned parse_categories(const std::string& csv);

/// One event. Fields beyond (kind, t) are kind-specific; unused ones stay at
/// their defaults. `label` must point at a string with static storage
/// duration (level names, state names, pool names) — sinks may keep it.
struct TraceEvent {
  EventKind kind = EventKind::kTaskResume;
  double t = 0;                  ///< virtual nanoseconds (start)
  double dur = 0;                ///< duration in virtual ns (0 = instant)
  int tid = -1;                  ///< simulated thread id
  int core = -1;
  int tile = -1;
  std::uint64_t line = 0;        ///< cache-line index, when line-related
  int a = -1;                    ///< kind-specific (state, channel, hops...)
  int b = -1;
  double queue_ns = 0;           ///< queueing delay component, when known
  const char* label = nullptr;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// Called from simulator hot paths (and, under --jobs N, from concurrent
  /// host threads): implementations must be thread-safe and must not
  /// interact with simulation state.
  virtual void on_event(const TraceEvent& e) = 0;
};

/// Discards every event. An *enabled* sink with zero effect — used by tests
/// to assert that observation never perturbs virtual time.
class NullSink final : public TraceSink {
 public:
  void on_event(const TraceEvent&) override {}
};

/// Streams events to a Chrome trace-event JSON file. Thread-safe; events
/// from concurrently running Machines interleave in arrival order (each
/// event carries its own virtual timestamp, so viewers re-sort).
class ChromeTraceWriter final : public TraceSink {
 public:
  /// Opens `path` for writing and emits the JSON preamble plus track
  /// metadata. Throws CheckError when the file cannot be opened.
  explicit ChromeTraceWriter(std::string path, unsigned categories = kCatAll);
  ~ChromeTraceWriter() override;

  void on_event(const TraceEvent& e) override;

  /// Closes the JSON document and the file. Idempotent; the destructor
  /// calls it too.
  void flush();

  std::uint64_t events_written() const { return written_; }
  const std::string& path() const { return path_; }

 private:
  void write_raw(const std::string& json);  // one event object, unlocked

  std::mutex mu_;
  std::string path_;
  std::FILE* f_ = nullptr;
  unsigned categories_ = kCatAll;
  std::uint64_t written_ = 0;
  bool closed_ = false;
};

}  // namespace capmem::obs
