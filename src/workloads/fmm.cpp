// fmm — a uniform-grid fast-multipole-style N-body solver capturing the
// write-locality of SPLASH2's fmm: per-cell multipole expansion blocks are
// the persistent hot data.
//
// Phases per step (each thread owns a slab of cells):
//   P2M  — accumulate each body into its cell's multipole coefficients; the
//          coefficient block (K complex terms ~ a few cache lines) is
//          revisited per body in the cell;
//   M2L  — translate neighbor-cell multipoles into each cell's local
//          expansion; the local block is revisited per interaction partner;
//   L2P  — evaluate local expansions at the bodies and rewrite body state.
//
// The hot write set is a handful of coefficient blocks — the paper selects
// cache size 10 for fmm.
#include <cmath>
#include <string>

#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "workloads/workload.hpp"

namespace nvc::workloads {

namespace {

constexpr std::size_t kTerms = 16;  // expansion terms (complex doubles)

struct Complex {
  double re = 0, im = 0;
};

struct CellExp {
  Complex multipole[kTerms];
  Complex local[kTerms];
};

struct FmmBody {
  double x = 0, y = 0;
  double charge = 1.0;
  double potential = 0;
};

class FmmWorkload final : public Workload {
 public:
  std::string name() const override { return "fmm"; }
  std::string problem_size(const WorkloadParams& p) const override {
    return std::to_string(bodies(p));
  }

  void run(PersistApi& api, const WorkloadParams& p) override {
    const std::size_t n = bodies(p);
    const std::size_t steps = p.full ? 3 : 2;
    const std::size_t dim = 8;  // cells per side
    const std::size_t num_cells = dim * dim;

    auto* body = static_cast<FmmBody*>(api.alloc(0, n * sizeof(FmmBody)));
    auto* cells =
        static_cast<CellExp*>(api.alloc(0, num_cells * sizeof(CellExp)));

    // Transient binning scaffolding (DRAM in the original as well).
    std::vector<std::vector<std::uint32_t>> members(num_cells);

    {
      Rng rng(p.seed);
      ApiFase fase(api, 0);
      for (std::size_t i = 0; i < n; ++i) {
        FmmBody b;
        b.x = rng.uniform();
        b.y = rng.uniform();
        b.charge = rng.uniform() * 2 - 1;
        api.store(0, body[i], b);
        api.compute(0, 14);
      }
    }

    SpinBarrier barrier(p.threads);
    ThreadTeam::run(p.threads, [&](std::size_t tid) {
      const std::size_t cell_chunk = (num_cells + p.threads - 1) / p.threads;
      const std::size_t c_begin = std::min(tid * cell_chunk, num_cells);
      const std::size_t c_end = std::min(c_begin + cell_chunk, num_cells);

      for (std::size_t step = 0; step < steps; ++step) {
        if (tid == 0) {
          for (auto& m : members) m.clear();
          for (std::uint32_t i = 0; i < n; ++i) {
            const auto cx = std::min<std::size_t>(
                static_cast<std::size_t>(body[i].x * dim), dim - 1);
            const auto cy = std::min<std::size_t>(
                static_cast<std::size_t>(body[i].y * dim), dim - 1);
            members[cy * dim + cx].push_back(i);
          }
        }
        barrier.arrive_and_wait();

        // P2M: FASE per cell pair so two coefficient blocks stay hot.
        for (std::size_t c = c_begin; c < c_end; c += 2) {
          ApiFase fase(api, tid);
          for (std::size_t cc = c; cc < std::min(c + 2, c_end); ++cc) {
            p2m(api, tid, cells[cc], members[cc], body, cc, dim);
          }
        }
        barrier.arrive_and_wait();

        // M2L: FASE per *pair* of cells, sweeping the interaction offsets
        // outermost and alternating between the two cells' local blocks.
        // sizeof(CellExp) is exactly 8 cache lines, so any two cells' local
        // blocks occupy the same direct-mapped slots — Atlas' table evicts
        // one block while SC's associative LRU (the paper selects 10 for
        // fmm) keeps both resident across the whole sweep.
        for (std::size_t c = c_begin; c < c_end; c += 2) {
          const std::size_t pair_end = std::min(c + 2, c_end);
          ApiFase fase(api, tid);
          for (std::size_t cc = c; cc < pair_end; ++cc) {
            for (std::size_t t = 0; t < kTerms; ++t) {
              api.store(tid, cells[cc].local[t], Complex{});
            }
          }
          for (std::int64_t dy = -3; dy <= 3; ++dy) {
            for (std::int64_t dx = -3; dx <= 3; ++dx) {
              if (std::max(std::llabs(dx), std::llabs(dy)) < 2) continue;
              for (std::size_t cc = c; cc < pair_end; ++cc) {
                m2l_accumulate(api, tid, cells, cc, dim, dx, dy);
              }
            }
          }
        }
        barrier.arrive_and_wait();

        // L2P: rewrite body potentials (sequential over the cell members).
        for (std::size_t c = c_begin; c < c_end; ++c) {
          ApiFase fase(api, tid);
          for (const std::uint32_t i : members[c]) {
            FmmBody b = body[i];
            double pot = 0;
            for (std::size_t t = 0; t < kTerms; ++t) {
              pot += cells[c].local[t].re * std::pow(0.5, double(t));
            }
            b.potential = pot;
            api.store(tid, body[i], b);
            api.compute(tid, 6 * kTerms);
          }
        }
        barrier.arrive_and_wait();
      }
    });
  }

 private:
  static std::size_t bodies(const WorkloadParams& p) {
    return p.full ? 16384 : 4096;
  }

  static void p2m(PersistApi& api, std::size_t tid, CellExp& cell,
                  const std::vector<std::uint32_t>& mem, const FmmBody* body,
                  std::size_t c, std::size_t dim) {
    const double cx = (static_cast<double>(c % dim) + 0.5) /
                      static_cast<double>(dim);
    const double cy = (static_cast<double>(c / dim) + 0.5) /
                      static_cast<double>(dim);
    // Zero the block, then fold each member body in term by term; every
    // body rewrites the whole coefficient block (the hot lines).
    for (std::size_t t = 0; t < kTerms; ++t) {
      api.store(tid, cell.multipole[t], Complex{});
    }
    for (const std::uint32_t i : mem) {
      const double dx = body[i].x - cx;
      const double dy = body[i].y - cy;
      Complex z{dx, dy};
      Complex zk{1, 0};
      for (std::size_t t = 0; t < kTerms; ++t) {
        Complex m = cell.multipole[t];
        m.re += body[i].charge * zk.re;
        m.im += body[i].charge * zk.im;
        api.store(tid, cell.multipole[t], m);
        const Complex nz{zk.re * z.re - zk.im * z.im,
                         zk.re * z.im + zk.im * z.re};
        zk = nz;
      }
      api.compute(tid, 10 * kTerms);
    }
  }

  /// Fold one well-separated interaction partner (offset dx, dy) into cell
  /// c's local expansion.
  static void m2l_accumulate(PersistApi& api, std::size_t tid,
                             CellExp* cells, std::size_t c, std::size_t dim,
                             std::int64_t dx, std::int64_t dy) {
    const std::int64_t nx = static_cast<std::int64_t>(c % dim) + dx;
    const std::int64_t ny = static_cast<std::int64_t>(c / dim) + dy;
    if (nx < 0 || ny < 0 || nx >= static_cast<std::int64_t>(dim) ||
        ny >= static_cast<std::int64_t>(dim)) {
      return;
    }
    const CellExp& src = cells[static_cast<std::size_t>(ny) * dim +
                               static_cast<std::size_t>(nx)];
    api.read(tid, src.multipole, sizeof(src.multipole));
    const double sep = 1.0 / (std::sqrt(double(dx * dx + dy * dy)) + 0.1);
    for (std::size_t t = 0; t < kTerms; ++t) {
      Complex l = cells[c].local[t];
      l.re += src.multipole[t].re * sep;
      l.im += src.multipole[t].im * sep;
      api.store(tid, cells[c].local[t], l);
    }
    api.compute(tid, 8 * kTerms);
  }
};

}  // namespace

std::unique_ptr<Workload> make_fmm() {
  return std::make_unique<FmmWorkload>();
}

}  // namespace nvc::workloads
