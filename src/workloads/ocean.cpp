// ocean — red-black relaxation over the coupled stream-function (psi) and
// vorticity grids, the locality core of SPLASH2's ocean simulation.
//
// Write-locality shape (the structural reason for the paper's Table III
// numbers on ocean): every interior point updates *two* same-shaped grids
// plus a per-row residual accumulator. The grids are laid out contiguously
// with strides that are multiples of 512 B — the natural layout for
// power-of-two ocean grids — so the same-index lines of psi and vort map to
// the SAME slot of a direct-mapped table and evict each other on every
// point, while a tiny fully-associative LRU (the paper selects size 2 for
// ocean) holds both streams and combines the 8 writes per line.
#include <cmath>
#include <string>

#include "common/barrier.hpp"
#include "common/types.hpp"
#include "workloads/workload.hpp"

namespace nvc::workloads {

namespace {

class OceanWorkload final : public Workload {
 public:
  std::string name() const override { return "ocean"; }
  std::string problem_size(const WorkloadParams& p) const override {
    return std::to_string(grid_dim(p));
  }

  void run(PersistApi& api, const WorkloadParams& p) override {
    const std::size_t n = grid_dim(p);
    const std::size_t steps = p.full ? 5 : 3;

    // One contiguous block of two grids; the stride is 512B-aligned so
    // psi[i][j] and vort[i][j] always share a direct-mapped slot.
    const std::size_t stride =
        align_up(n * n * sizeof(double), 8 * kCacheLineSize) /
        sizeof(double);
    auto* block = static_cast<double*>(api.alloc(0, 2 * stride *
                                                 sizeof(double)));
    double* psi = block;
    double* vort = block + stride;
    auto* row_err = static_cast<double*>(api.alloc(0, n * sizeof(double)));

    SpinBarrier barrier(p.threads);
    ThreadTeam::run(p.threads, [&](std::size_t tid) {
      const auto [row_begin, row_end] = partition(n, p.threads, tid);
      {
        ApiFase fase(api, tid);
        for (std::size_t i = row_begin; i < row_end; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            const double boundary =
                (i == 0 || j == 0 || i == n - 1 || j == n - 1)
                    ? std::sin(static_cast<double>(i + j) * 0.01)
                    : 0.0;
            api.store(tid, psi[i * n + j], boundary);
            api.store(tid, vort[i * n + j], boundary * 0.5);
            api.compute(tid, 6);
          }
        }
      }
      barrier.arrive_and_wait();

      // Red-black coupled relaxation: per (step, color, thread) one FASE.
      for (std::size_t step = 0; step < steps; ++step) {
        for (int color = 0; color < 2; ++color) {
          ApiFase fase(api, tid);
          const std::size_t lo = std::max<std::size_t>(row_begin, 1);
          const std::size_t hi = std::min(row_end, n - 1);
          for (std::size_t i = lo; i < hi; ++i) {
            double err = 0.0;
            for (std::size_t j = 1 + ((i + static_cast<std::size_t>(color)) &
                                      1u);
                 j < n - 1; j += 2) {
              const std::size_t at = i * n + j;
              api.read(tid, &psi[at - n], sizeof(double));
              api.read(tid, &psi[at + n], sizeof(double));
              api.read(tid, &vort[at - n], sizeof(double));
              const double relaxed =
                  0.25 * (psi[at - n] + psi[at + n] + psi[at - 1] +
                          psi[at + 1]) -
                  0.125 * vort[at];
              err += std::abs(relaxed - psi[at]);
              api.store(tid, psi[at], relaxed);
              // Vorticity follows the curl of the updated stream function.
              const double curled =
                  0.25 * (vort[at - n] + vort[at + n] + vort[at - 1] +
                          vort[at + 1]) +
                  0.02 * relaxed;
              api.store(tid, vort[at], curled);
              // Residual checkpointing every few points: a third, hot line
              // visiting the rotation occasionally.
              if ((j & 7u) == 1u) api.store(tid, row_err[i], err);
              api.compute(tid, 22);
            }
          }
          barrier.arrive_and_wait();
        }
      }
    });
  }

 private:
  static std::size_t grid_dim(const WorkloadParams& p) {
    return p.full ? 1026 : 258;
  }
  static std::pair<std::size_t, std::size_t> partition(std::size_t n,
                                                       std::size_t threads,
                                                       std::size_t tid) {
    const std::size_t chunk = (n + threads - 1) / threads;
    const std::size_t begin = std::min(tid * chunk, n);
    return {begin, std::min(begin + chunk, n)};
  }
};

}  // namespace

std::unique_ptr<Workload> make_ocean() {
  return std::make_unique<OceanWorkload>();
}

}  // namespace nvc::workloads
