#include "exec/cpu_affinity.h"

#include <algorithm>
#include <cstdio>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace elasticutor {
namespace exec {

namespace {

int OnlineCpuCount() {
#if defined(__linux__)
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  if (n > 0) return static_cast<int>(n);
#endif
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

int PackageOf(int cpu) {
#if defined(__linux__)
  char path[128];
  std::snprintf(path, sizeof(path),
                "/sys/devices/system/cpu/cpu%d/topology/physical_package_id",
                cpu);
  if (FILE* f = std::fopen(path, "r")) {
    int package = 0;
    const bool ok = std::fscanf(f, "%d", &package) == 1;
    std::fclose(f);
    if (ok && package >= 0) return package;
  }
#endif
  (void)cpu;
  return 0;
}

}  // namespace

int AllowedCpuCount() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
#endif
  return OnlineCpuCount();
}

CpuTopology CpuTopology::Detect(bool numa_aware) {
  CpuTopology topo;
  const int n = OnlineCpuCount();
  topo.cpus.reserve(n);
  for (int c = 0; c < n; ++c) {
    topo.cpus.push_back({c, numa_aware ? PackageOf(c) : 0});
  }
  if (numa_aware) {
    std::stable_sort(topo.cpus.begin(), topo.cpus.end(),
                     [](const Cpu& a, const Cpu& b) {
                       return a.package != b.package ? a.package < b.package
                                                     : a.cpu < b.cpu;
                     });
  }
  return topo;
}

bool PinningSupported() {
#if defined(__linux__)
  return true;
#else
  return false;
#endif
}

bool PinThreadToCpu(std::thread* t, int cpu) {
#if defined(__linux__)
  if (t == nullptr || !t->joinable() || cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(t->native_handle(), sizeof(set), &set) == 0;
#else
  (void)t;
  (void)cpu;
  return false;
#endif
}

}  // namespace exec
}  // namespace elasticutor
