// In-memory span tracer for the traced benchmark run.
//
// The benchmark records a span around each call it makes into a public
// function of a layer (ParseSelect, Aggify::RewriteFunction,
// Froid::RewriteQuery, QueryEngine::Explain/Execute, UDF invocations,
// Interpreter::ExecuteBlock, Server::Handle, ...). A span has a layer, a
// name, start and end, the span that was open on the same thread when it
// started (its parent), and the id of the operation it belongs to: the
// root span opened by an OpScope. Spans opened on a thread with no
// operation in progress (parallel workers) are not recorded, so a layer's
// self time never counts work twice.
//
// Spans also carry the I/O counter deltas over their interval when the
// operation names a counter set (single-threaded workloads only: the
// shared Database counters are not atomic).
//
// Recording is off unless Tracer::SetEnabled(true); a disabled span costs
// one relaxed atomic load. Spans stay in per-thread buffers and are merged
// by Collect() once the recording threads are quiescent.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/io_stats.h"

namespace perfbench {

enum class Layer : uint8_t {
  kBench,  ///< benchmark glue: the root of every operation
  kParser,
  kAggify,
  kFroid,
  kPlan,
  kExec,
  kProcedural,
  kServer,
  kCount,
};

const char* LayerName(Layer layer);

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for an operation's root span
  uint64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Layer layer = Layer::kBench;
  const char* name = "";  ///< static string
  uint32_t thread = 0;
  // Counter deltas over the span (zero when no counter set was attached).
  int64_t logical_reads = 0;
  int64_t worktable_pages_written = 0;
  int64_t worktable_pages_read = 0;
  int64_t queries_executed = 0;
  int64_t rows_produced = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Moves every recorded span out of the thread buffers. Call only when no
  /// thread is recording.
  std::vector<SpanRecord> Collect();
  /// Spans not recorded because a thread buffer was full.
  int64_t dropped() const { return dropped_.load(); }

 private:
  friend class Span;
  friend class OpScope;
  struct ThreadBuffer {
    uint32_t thread = 0;
    uint64_t next_id = 0;
    uint64_t op = 0;       ///< operation in progress on this thread
    uint64_t current = 0;  ///< innermost open span
    const aggify::IoStats* stats = nullptr;
    std::vector<SpanRecord> spans;
  };
  static constexpr size_t kMaxSpansPerThread = 1'000'000;

  ThreadBuffer& Local();

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> dropped_{0};
  std::mutex mu_;  // guards buffers_
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/// \brief RAII span inside an operation. Inactive when tracing is off or
/// the thread has no operation in progress.
class Span {
 public:
  Span(Layer layer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 protected:
  Span() = default;
  void Begin(Tracer::ThreadBuffer* buffer, Layer layer, const char* name);

 private:
  Tracer::ThreadBuffer* buffer_ = nullptr;
  SpanRecord record_;
  uint64_t saved_current_ = 0;
  const aggify::IoStats* stats_ = nullptr;
  aggify::IoStats start_stats_;
};

/// \brief The root span of one operation: allocates the operation id that
/// every span opened beneath it on this thread shares. `stats` (may be
/// null) is the counter set spans of this operation snapshot.
class OpScope : public Span {
 public:
  explicit OpScope(const char* name, const aggify::IoStats* stats = nullptr);
  ~OpScope();

 private:
  Tracer::ThreadBuffer* root_buffer_ = nullptr;
};

/// Self time of each layer (a span's duration minus the part its children
/// cover), summed over `spans`, in nanoseconds; indexed by Layer.
std::vector<int64_t> SelfTimeByLayer(const std::vector<SpanRecord>& spans);

/// Writes the spans (the first 200,000) as tab-separated lines to `path`.
/// Returns false when the file cannot be written.
bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path);

}  // namespace perfbench
