// CPU affinity portability shim for the native runtime's optional core
// pinning (EngineConfig::native.pinning). Linux: pthread_setaffinity_np on
// the std::thread native handle, with package topology read from sysfs for
// NUMA-aware placement. Elsewhere: every call degrades to a documented
// no-op (pinning is a performance hint, never a correctness dependency).
#pragma once

#include <thread>
#include <vector>

namespace elasticutor {
namespace exec {

/// The machine's online CPUs, with their physical package (socket) ids.
struct CpuTopology {
  struct Cpu {
    int cpu = 0;      // OS CPU id.
    int package = 0;  // Physical package (0 when unknown).
  };
  std::vector<Cpu> cpus;

  /// Enumerates online CPUs. With `numa_aware` the list is sorted
  /// package-major (fill one socket before spilling to the next) so
  /// consecutive pin assignments share a memory domain; otherwise it is in
  /// plain CPU-id order. Never empty: falls back to {0..hw_concurrency-1}
  /// on a single package when sysfs is unavailable.
  static CpuTopology Detect(bool numa_aware);
};

/// CPUs the calling thread may run on (its sched_getaffinity mask, which
/// threads it creates inherit); the online CPU count where no mask exists.
int AllowedCpuCount();

/// True when this build can actually pin (Linux + pthreads).
bool PinningSupported();

/// Pins `t` to `cpu`. Returns false when unsupported or the syscall failed
/// (e.g. the CPU is excluded by the process's cgroup mask) — callers treat
/// failure as "run unpinned", never as an error.
bool PinThreadToCpu(std::thread* t, int cpu);

}  // namespace exec
}  // namespace elasticutor
