#include "common/cpu.hpp"

#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace nvc {

namespace {

CpuFeatures detect() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0) {
    f.clflush = (edx & (1u << 19)) != 0;  // CLFSH
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    f.clflushopt = (ebx & (1u << 23)) != 0;
    f.clwb = (ebx & (1u << 24)) != 0;
  }
#endif
  return f;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = detect();
  return features;
}

bool can_spin() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (pthread_getaffinity_np(pthread_self(), sizeof set, &set) == 0) {
    return CPU_COUNT(&set) > 1;
  }
#endif
  return std::thread::hardware_concurrency() > 1;
}

bool pin_thread_to_cpu(int cpu) {
#if defined(__linux__)
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

}  // namespace nvc
