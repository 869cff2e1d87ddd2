#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <utility>

#include "util/string_util.h"

namespace jimbench {

namespace serve = jim::serve;
namespace storage = jim::storage;
namespace util = jim::util;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Span store.
// ---------------------------------------------------------------------------

SpanRecorder& SpanRecorder::Instance() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

uint64_t SpanRecorder::NextId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void SpanRecorder::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::Collect() {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    all.swap(spans_);
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

util::Status SpanRecorder::DumpJsonl(const std::vector<Span>& spans,
                                     const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans) {
    out << util::StrFormat(
        "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,\"name\":\"%s\","
        "\"start_ns\":%lld,\"end_ns\":%lld,\"bytes\":%llu}\n",
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.request), s.name,
        static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
        static_cast<unsigned long long>(s.bytes));
  }
  out.flush();
  if (!out.good()) {
    return util::InternalError("cannot write span dump " + path);
  }
  return util::OkStatus();
}

RequestContext& CurrentRequest() {
  thread_local RequestContext context;
  return context;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t bytes) {
  const RequestContext& context = CurrentRequest();
  span_.id = SpanRecorder::Instance().NextId();
  span_.parent = context.span;
  span_.request = context.request;
  span_.name = name;
  span_.bytes = bytes;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = NowNs();
  SpanRecorder::Instance().Record(span_);
}

// ---------------------------------------------------------------------------
// Transport decorator.
// ---------------------------------------------------------------------------

void RequestLog::Append(std::vector<ServerRequest> requests) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (ServerRequest& r : requests) requests_.push_back(std::move(r));
}

std::vector<ServerRequest> RequestLog::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ServerRequest> out = std::move(requests_);
  requests_.clear();
  std::sort(out.begin(), out.end(),
            [](const ServerRequest& a, const ServerRequest& b) {
              return a.connection != b.connection ? a.connection < b.connection
                                                  : a.seq < b.seq;
            });
  return out;
}

namespace {

class TracingConnection final : public serve::Connection {
 public:
  TracingConnection(std::unique_ptr<serve::Connection> inner, size_t index,
                    std::shared_ptr<RequestLog> log)
      : inner_(std::move(inner)), index_(index), log_(std::move(log)) {}

  ~TracingConnection() override { log_->Append(std::move(requests_)); }

  util::StatusOr<std::string> ReadLine() override {
    util::StatusOr<std::string> line = inner_->ReadLine();
    if (!line.ok()) return line;
    ServerRequest record;
    record.start_ns = NowNs();
    record.connection = index_;
    record.seq = requests_.size();
    record.request = SpanRecorder::Instance().NextId();
    record.bytes_in = line->size() + 1;
    record.line = *line;
    requests_.push_back(std::move(record));
    CurrentRequest() = {requests_.back().request, requests_.back().request};
    return line;
  }

  util::Status WriteLine(std::string_view line) override {
    if (!requests_.empty() && requests_.back().end_ns == 0) {
      ServerRequest& record = requests_.back();
      record.end_ns = NowNs();
      record.bytes_out = line.size() + 1;
      Span span;
      span.id = record.request;
      span.request = record.request;
      span.name = "server.request";
      span.start_ns = record.start_ns;
      span.end_ns = record.end_ns;
      span.bytes = record.bytes_in + record.bytes_out;
      SpanRecorder::Instance().Record(span);
    }
    CurrentRequest() = {};
    return inner_->WriteLine(line);
  }

  void ShutdownNow() override { inner_->ShutdownNow(); }

 private:
  std::unique_ptr<serve::Connection> inner_;
  size_t index_;
  std::shared_ptr<RequestLog> log_;
  std::vector<ServerRequest> requests_;
};

class TracingTransport final : public serve::Transport {
 public:
  TracingTransport(std::unique_ptr<serve::Transport> inner,
                   std::shared_ptr<RequestLog> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}

  util::StatusOr<std::unique_ptr<serve::Connection>> Accept() override {
    auto accepted = inner_->Accept();
    if (!accepted.ok()) return accepted;
    return std::unique_ptr<serve::Connection>(new TracingConnection(
        std::move(accepted).value(), accepted_++, log_));
  }
  void ShutdownNow() override { inner_->ShutdownNow(); }
  const std::string& address() const override { return inner_->address(); }

 private:
  std::unique_ptr<serve::Transport> inner_;
  std::shared_ptr<RequestLog> log_;
  size_t accepted_ = 0;  ///< only the server's accept thread calls Accept
};

// ---------------------------------------------------------------------------
// storage::Env decorator.
// ---------------------------------------------------------------------------

class TracingWritableFile final : public storage::WritableFile {
 public:
  explicit TracingWritableFile(std::unique_ptr<storage::WritableFile> inner)
      : inner_(std::move(inner)) {}

  util::Status Append(const void* data, size_t size) override {
    ScopedSpan span("storage.append", size);
    return inner_->Append(data, size);
  }
  util::Status Sync() override {
    ScopedSpan span("storage.sync");
    return inner_->Sync();
  }
  util::Status Close() override {
    ScopedSpan span("storage.close");
    return inner_->Close();
  }
  const std::string& path() const override { return inner_->path(); }

 private:
  std::unique_ptr<storage::WritableFile> inner_;
};

class TracingEnv final : public storage::Env {
 public:
  explicit TracingEnv(storage::Env* base) : base_(base) {}

  util::StatusOr<std::unique_ptr<storage::WritableFile>> NewWritableFile(
      const std::string& path) override {
    ScopedSpan span("storage.create");
    auto file = base_->NewWritableFile(path);
    if (!file.ok()) return file;
    return std::unique_ptr<storage::WritableFile>(
        new TracingWritableFile(std::move(file).value()));
  }
  util::StatusOr<std::string> ReadFileToString(
      const std::string& path) override {
    ScopedSpan span("storage.read");
    return base_->ReadFileToString(path);
  }
  util::StatusOr<std::unique_ptr<storage::ReadRegion>> MapReadOnly(
      const std::string& path) override {
    ScopedSpan span("storage.mmap");
    return base_->MapReadOnly(path);
  }
  util::StatusOr<uint64_t> FileSize(const std::string& path) override {
    ScopedSpan span("storage.stat");
    return base_->FileSize(path);
  }
  util::Status RenameReplacing(const std::string& from,
                               const std::string& to) override {
    ScopedSpan span("storage.rename");
    return base_->RenameReplacing(from, to);
  }
  util::Status SyncDirectory(const std::string& dir) override {
    ScopedSpan span("storage.dir_sync");
    return base_->SyncDirectory(dir);
  }
  util::StatusOr<std::vector<std::string>> ListDirectory(
      const std::string& dir) override {
    ScopedSpan span("storage.list");
    return base_->ListDirectory(dir);
  }
  util::Status RemoveFile(const std::string& path) override {
    ScopedSpan span("storage.remove");
    return base_->RemoveFile(path);
  }
  util::Status CreateDirectories(const std::string& dir) override {
    ScopedSpan span("storage.mkdir");
    return base_->CreateDirectories(dir);
  }
  void SleepForMicros(uint64_t micros) override {
    ScopedSpan span("storage.backoff");
    base_->SleepForMicros(micros);
  }

 private:
  storage::Env* base_;
};

}  // namespace

std::unique_ptr<serve::Transport> TraceTransport(
    std::unique_ptr<serve::Transport> inner, std::shared_ptr<RequestLog> log) {
  return std::make_unique<TracingTransport>(std::move(inner), std::move(log));
}

std::unique_ptr<storage::Env> TraceEnv(storage::Env* base) {
  return std::make_unique<TracingEnv>(base);
}

}  // namespace jimbench
