#include "trace.h"

#include <cstdio>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kParser: return "parser";
    case Layer::kAggify: return "aggify";
    case Layer::kFroid: return "froid";
    case Layer::kPlan: return "plan";
    case Layer::kExec: return "exec";
    case Layer::kProcedural: return "procedural";
    case Layer::kServer: return "server";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer& Tracer::Local() {
  thread_local std::shared_ptr<ThreadBuffer> local;
  if (!local) {
    local = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(mu_);
    local->thread = static_cast<uint32_t>(buffers_.size() + 1);
    buffers_.push_back(local);
  }
  return *local;
}

std::vector<SpanRecord> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  for (auto& buffer : buffers_) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  return out;
}

Span::Span(Layer layer, const char* name) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  Tracer::ThreadBuffer& buffer = tracer.Local();
  if (buffer.op == 0) return;
  Begin(&buffer, layer, name);
}

void Span::Begin(Tracer::ThreadBuffer* buffer, Layer layer, const char* name) {
  buffer_ = buffer;
  record_.id =
      (static_cast<uint64_t>(buffer->thread) << 40) | ++buffer->next_id;
  record_.parent = buffer->current;
  record_.op = buffer->op;
  record_.layer = layer;
  record_.name = name;
  record_.thread = buffer->thread;
  saved_current_ = buffer->current;
  buffer->current = record_.id;
  stats_ = buffer->stats;
  if (stats_ != nullptr) start_stats_ = *stats_;
  record_.start_ns = NowNs();
}

Span::~Span() {
  if (buffer_ == nullptr) return;
  record_.end_ns = NowNs();
  if (stats_ != nullptr) {
    record_.logical_reads = stats_->logical_reads - start_stats_.logical_reads;
    record_.worktable_pages_written =
        stats_->worktable_pages_written - start_stats_.worktable_pages_written;
    record_.worktable_pages_read =
        stats_->worktable_pages_read - start_stats_.worktable_pages_read;
    record_.queries_executed =
        stats_->queries_executed - start_stats_.queries_executed;
    record_.rows_produced = stats_->rows_produced - start_stats_.rows_produced;
  }
  buffer_->current = saved_current_;
  if (buffer_->spans.size() < Tracer::kMaxSpansPerThread) {
    buffer_->spans.push_back(record_);
  } else {
    Tracer::Get().dropped_.fetch_add(1);
  }
}

OpScope::OpScope(const char* name, const aggify::IoStats* stats) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  Tracer::ThreadBuffer& buffer = tracer.Local();
  if (buffer.op != 0) {  // nested operation: an ordinary span of the outer one
    Begin(&buffer, Layer::kBench, name);
    return;
  }
  root_buffer_ = &buffer;
  buffer.op =
      (static_cast<uint64_t>(buffer.thread) << 40) | (buffer.next_id + 1);
  buffer.stats = stats;
  Begin(&buffer, Layer::kBench, name);
}

OpScope::~OpScope() {
  if (root_buffer_ == nullptr) return;
  root_buffer_->op = 0;
  root_buffer_->stats = nullptr;
}

std::vector<int64_t> SelfTimeByLayer(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, int64_t> child_ns;
  child_ns.reserve(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<int64_t> self(static_cast<size_t>(Layer::kCount), 0);
  for (const SpanRecord& s : spans) {
    int64_t own = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    if (it != child_ns.end()) own -= it->second;
    if (own < 0) own = 0;
    self[static_cast<size_t>(s.layer)] += own;
  }
  return self;
}

bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path) {
  constexpr size_t kMaxWritten = 200'000;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "id\tparent\top\tthread\tlayer\tname\tstart_ns\tend_ns\t"
               "logical_reads\tworktable_pages_written\tworktable_pages_read\t"
               "queries_executed\trows_produced\n");
  for (size_t i = 0; i < spans.size() && i < kMaxWritten; ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%llu\t%llu\t%llu\t%u\t%s\t%s\t%lld\t%lld\t%lld\t%lld\t"
                 "%lld\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.thread,
                 LayerName(s.layer), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.logical_reads),
                 static_cast<long long>(s.worktable_pages_written),
                 static_cast<long long>(s.worktable_pages_read),
                 static_cast<long long>(s.queries_executed),
                 static_cast<long long>(s.rows_produced));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
