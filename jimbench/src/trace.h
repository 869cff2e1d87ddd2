#ifndef JIMBENCH_TRACE_H_
#define JIMBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/transport.h"
#include "storage/env.h"
#include "util/status.h"

namespace jimbench {

/// steady_clock nanoseconds; every span and client timing uses this clock.
int64_t NowNs();

/// One timed interval at a layer boundary. Spans of one daemon request share
/// `request`; a storage span's `parent` is the request span it ran under.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = no enclosing span
  uint64_t request = 0;  ///< 0 = outside any request (e.g. recovery)
  const char* name = "";  ///< static string, e.g. "storage.sync"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t bytes = 0;  ///< payload size where the layer has one

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Process-wide in-memory span store. A span is recorded once per storage
/// call or request, so one uncontended lock per record is cheap next to the
/// syscalls and socket reads being timed.
class SpanRecorder {
 public:
  static SpanRecorder& Instance();

  uint64_t NextId();
  void Record(const Span& span);
  /// Every span recorded so far, ordered by id; the store is emptied.
  std::vector<Span> Collect();
  /// Writes `spans` as one JSON object per line.
  static jim::util::Status DumpJsonl(const std::vector<Span>& spans,
                                     const std::string& path);

 private:
  SpanRecorder() = default;

  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// The request a thread is serving. The Connection decorator sets it between
/// a request line's arrival and its response; the Env decorator parents its
/// spans to it.
struct RequestContext {
  uint64_t request = 0;
  uint64_t span = 0;
};
RequestContext& CurrentRequest();

/// Records one span from construction to destruction under the thread's
/// current request.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t bytes = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
};

/// What the Connection decorator saw of one request: receive→respond time,
/// wire bytes, and the raw line (for the protocol-parse replay and for
/// matching against the client's own record of the request).
struct ServerRequest {
  size_t connection = 0;  ///< accept order on the transport
  size_t seq = 0;         ///< position on its connection
  uint64_t request = 0;   ///< id of its "server.request" span
  int64_t start_ns = 0;   ///< line returned by ReadLine
  int64_t end_ns = 0;     ///< response handed to WriteLine
  size_t bytes_in = 0;    ///< line plus its '\n'
  size_t bytes_out = 0;
  std::string line;
};

/// Shared sink the decorated connections flush into when they close.
class RequestLog {
 public:
  void Append(std::vector<ServerRequest> requests);
  /// All requests, grouped by connection then seq.
  std::vector<ServerRequest> Take();

 private:
  std::mutex mutex_;
  std::vector<ServerRequest> requests_;
};

/// Transport decorator: every accepted connection records its requests into
/// `log` and sets CurrentRequest() while the server handles each one.
std::unique_ptr<jim::serve::Transport> TraceTransport(
    std::unique_ptr<jim::serve::Transport> inner,
    std::shared_ptr<RequestLog> log);

/// storage::Env decorator: each call becomes a "storage.*" span under the
/// current request. `base` is not owned.
std::unique_ptr<jim::storage::Env> TraceEnv(jim::storage::Env* base);

}  // namespace jimbench

#endif  // JIMBENCH_TRACE_H_
