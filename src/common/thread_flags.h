// Thread-role flags used to debug-assert threading contracts.
//
// The exec worker pool marks its threads at startup; code that must only
// run on a coordinator (e.g. Telemetry::publish/subscribe) asserts
// !on_exec_worker_thread().
#pragma once

namespace rb {

namespace detail {
inline thread_local bool t_exec_worker = false;
inline thread_local int t_shard_coordinator = 0;
}  // namespace detail

/// True on threads owned by exec::WorkerPool, false on the coordinator
/// (and any other) thread. A pool worker running a city cell job is NOT
/// an exec worker for contract purposes — it is the coordinator of that
/// cell's engine and owns the cell's entire state for the job.
inline bool on_exec_worker_thread() {
  return detail::t_exec_worker && detail::t_shard_coordinator == 0;
}

/// Called once by each pool worker as it starts. Not for general use.
inline void mark_exec_worker_thread() { detail::t_exec_worker = true; }

/// RAII: marks the current thread as the coordinator of one cell's
/// engine while in scope. The city conductor wraps each cell
/// shard job in this so coordinator-only contracts (Telemetry
/// publish/subscribe) hold for the cell-local state the worker owns.
class ShardCoordinatorScope {
 public:
  ShardCoordinatorScope() { ++detail::t_shard_coordinator; }
  ~ShardCoordinatorScope() { --detail::t_shard_coordinator; }
  ShardCoordinatorScope(const ShardCoordinatorScope&) = delete;
  ShardCoordinatorScope& operator=(const ShardCoordinatorScope&) = delete;
};

}  // namespace rb
