#ifndef JIM_EXEC_PARALLEL_H_
#define JIM_EXEC_PARALLEL_H_

#include <cstddef>

#include "exec/thread_pool.h"

namespace jim::exec {

/// std::thread::hardware_concurrency with a floor of 1 (the standard allows
/// it to report 0 when unknown).
size_t HardwareThreads();

/// The process-wide default parallelism, resolved in priority order:
///   1. the last SetDefaultThreads(n) call with n > 0 (e.g. a --threads
///      flag),
///   2. the JIM_THREADS environment variable (positive integers only;
///      anything else is ignored),
///   3. HardwareThreads().
/// Always ≥ 1. Thread-count choices never change results — every parallel
/// path in JIM is bitwise-deterministic — so this only trades latency.
size_t DefaultThreads();

/// Overrides DefaultThreads() for the rest of the process (n = 0 clears the
/// override). Call before the first SharedPool() use: the shared pool is
/// sized once, at creation.
void SetDefaultThreads(size_t n);

/// The lazily created process-wide pool, sized to DefaultThreads() at first
/// use. It serves class building (InferenceEngine's constructor) and ingest
/// (RelationTupleStore and Catalog encoding of large relations); lookahead
/// scoring is serial. Never destroyed before exit; safe to use from any thread. Callers that
/// need a specific thread count (benches, parity tests) construct their own
/// ThreadPool instead.
ThreadPool& SharedPool();

}  // namespace jim::exec

#endif  // JIM_EXEC_PARALLEL_H_
