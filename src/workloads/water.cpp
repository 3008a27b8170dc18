// water-nsquared and water-spatial — molecular dynamics with Lennard-Jones
// style pair forces, the two water codes of SPLASH2.
//
//   water-nsquared: every molecule interacts with every other (O(N^2));
//     the force phase processes molecules in blocks, sweeping all partners
//     per block, so a block's force accumulators (a few dozen cache lines)
//     are revisited once per partner chunk — a wide write working set whose
//     MRC knee sits around the block footprint (the paper selects 28).
//
//   water-spatial: molecules are binned into a uniform cell grid and only
//     neighbor cells interact; a FASE covers one cell neighborhood, whose
//     resident molecules' accumulators form a mid-sized working set (the
//     paper selects 23).
//
// Both are strong-scaling: fixed total molecules, partitioned over threads,
// so the FASE count grows with the thread count while total stores stay put
// (the effect analyzed in the paper's Table IV).
#include <cmath>
#include <string>
#include <vector>

#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "workloads/workload.hpp"

namespace nvc::workloads {

namespace {

struct Vec3 {
  double x = 0, y = 0, z = 0;
};

struct Molecule {
  Vec3 pos;
  Vec3 vel;
};

/// Pair force with an inlined inverse-square falloff (a stand-in for the
/// water potential's dominant term); returns the force on `a` from `b`.
inline Vec3 pair_force(const Vec3& a, const Vec3& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  const double dz = a.z - b.z;
  const double r2 = dx * dx + dy * dy + dz * dz + 1e-6;
  const double inv = 1.0 / r2;
  const double mag = inv * inv - 0.5 * inv;  // LJ-like: repulsion - cohesion
  return Vec3{dx * mag, dy * mag, dz * mag};
}

void init_molecules(PersistApi& api, std::size_t tid, Molecule* mol,
                    Vec3* force, std::size_t n, std::uint64_t seed,
                    double box) {
  Rng rng(seed);
  ApiFase fase(api, tid);
  for (std::size_t i = 0; i < n; ++i) {
    Molecule m;
    m.pos = Vec3{rng.uniform() * box, rng.uniform() * box,
                 rng.uniform() * box};
    m.vel = Vec3{rng.uniform() - 0.5, rng.uniform() - 0.5,
                 rng.uniform() - 0.5};
    api.store(tid, mol[i], m);
    api.store(tid, force[i], Vec3{});
    api.compute(tid, 20);
  }
}

void integrate_partition(PersistApi& api, std::size_t tid, Molecule* mol,
                         Vec3* force, std::size_t begin, std::size_t end,
                         double dt, double box) {
  ApiFase fase(api, tid);
  for (std::size_t i = begin; i < end; ++i) {
    Molecule m = mol[i];
    m.vel.x += force[i].x * dt;
    m.vel.y += force[i].y * dt;
    m.vel.z += force[i].z * dt;
    m.pos.x = std::fmod(m.pos.x + m.vel.x * dt + box, box);
    m.pos.y = std::fmod(m.pos.y + m.vel.y * dt + box, box);
    m.pos.z = std::fmod(m.pos.z + m.vel.z * dt + box, box);
    api.store(tid, mol[i], m);
    api.compute(tid, 28);
  }
}

std::pair<std::size_t, std::size_t> partition(std::size_t n,
                                              std::size_t threads,
                                              std::size_t tid) {
  const std::size_t chunk = (n + threads - 1) / threads;
  const std::size_t begin = std::min(tid * chunk, n);
  return {begin, std::min(begin + chunk, n)};
}

// --- water-nsquared -----------------------------------------------------------

class WaterNsquaredWorkload final : public Workload {
 public:
  std::string name() const override { return "water-nsquared"; }
  std::string problem_size(const WorkloadParams& p) const override {
    return std::to_string(molecules(p));
  }

  void run(PersistApi& api, const WorkloadParams& p) override {
    const std::size_t n = molecules(p);
    const std::size_t steps = p.full ? 4 : 3;
    const double box = 10.0;
    const double dt = 1e-3;
    // Block of molecules whose accumulators one FASE keeps hot: 64
    // molecules x sizeof(Vec3) = 24 cache lines.
    const std::size_t block = 64;
    // Partner chunk: accumulate this many partners in registers before
    // writing the force line back (one persistent write per chunk).
    const std::size_t chunk = 16;

    auto* mol = static_cast<Molecule*>(api.alloc(0, n * sizeof(Molecule)));
    auto* force = static_cast<Vec3*>(api.alloc(0, n * sizeof(Vec3)));

    SpinBarrier barrier(p.threads);
    ThreadTeam::run(p.threads, [&](std::size_t tid) {
      const auto [begin, end] = partition(n, p.threads, tid);
      if (tid == 0) init_molecules(api, tid, mol, force, n, p.seed, box);
      barrier.arrive_and_wait();

      for (std::size_t step = 0; step < steps; ++step) {
        // Force phase: blocks of i, all partners j, chunked accumulation.
        for (std::size_t b = begin; b < end; b += block) {
          const std::size_t b_end = std::min(b + block, end);
          ApiFase fase(api, tid);
          for (std::size_t jc = 0; jc < n; jc += chunk) {
            const std::size_t jc_end = std::min(jc + chunk, n);
            api.read(tid, &mol[jc], (jc_end - jc) * sizeof(Molecule));
            for (std::size_t i = b; i < b_end; ++i) {
              Vec3 acc{};
              api.read(tid, &mol[i], sizeof(Molecule));
              for (std::size_t j = jc; j < jc_end; ++j) {
                if (j == i) continue;
                const Vec3 f = pair_force(mol[i].pos, mol[j].pos);
                acc.x += f.x;
                acc.y += f.y;
                acc.z += f.z;
              }
              Vec3 total = force[i];
              total.x += acc.x;
              total.y += acc.y;
              total.z += acc.z;
              api.store(tid, force[i], total);
              api.compute(tid, 14 * (jc_end - jc));
            }
          }
        }
        barrier.arrive_and_wait();

        integrate_partition(api, tid, mol, force, begin, end, dt, box);
        // Reset accumulators for the next step.
        {
          ApiFase fase(api, tid);
          for (std::size_t i = begin; i < end; ++i) {
            api.store(tid, force[i], Vec3{});
            api.compute(tid, 4);
          }
        }
        barrier.arrive_and_wait();
      }
    });
  }

 private:
  static std::size_t molecules(const WorkloadParams& p) {
    return p.full ? 512 : 448;
  }
};

// --- water-spatial --------------------------------------------------------------

class WaterSpatialWorkload final : public Workload {
 public:
  std::string name() const override { return "water-spatial"; }
  std::string problem_size(const WorkloadParams& p) const override {
    return std::to_string(molecules(p));
  }

  void run(PersistApi& api, const WorkloadParams& p) override {
    const std::size_t n = molecules(p);
    const std::size_t steps = p.full ? 8 : 6;
    const double box = 10.0;
    const double dt = 1e-3;
    const std::size_t cells = 4;  // cells per dimension (3D grid)
    const double cell_w = box / static_cast<double>(cells);

    auto* mol = static_cast<Molecule*>(api.alloc(0, n * sizeof(Molecule)));
    auto* force = static_cast<Vec3*>(api.alloc(0, n * sizeof(Vec3)));

    SpinBarrier barrier(p.threads);
    // Cell lists are transient (rebuilt each step, stack/heap data — the
    // paper persists only non-stack program data; index scaffolding lives in
    // DRAM in the original too).
    std::vector<std::vector<std::uint32_t>> cell_of(cells * cells * cells);

    ThreadTeam::run(p.threads, [&](std::size_t tid) {
      const auto [begin, end] = partition(n, p.threads, tid);
      if (tid == 0) init_molecules(api, tid, mol, force, n, p.seed, box);
      barrier.arrive_and_wait();

      for (std::size_t step = 0; step < steps; ++step) {
        // Bin molecules (thread 0; cheap relative to the force phase).
        if (tid == 0) {
          for (auto& c : cell_of) c.clear();
          for (std::uint32_t i = 0; i < n; ++i) {
            const auto cx = static_cast<std::size_t>(mol[i].pos.x / cell_w) %
                            cells;
            const auto cy = static_cast<std::size_t>(mol[i].pos.y / cell_w) %
                            cells;
            const auto cz = static_cast<std::size_t>(mol[i].pos.z / cell_w) %
                            cells;
            cell_of[(cx * cells + cy) * cells + cz].push_back(i);
          }
        }
        barrier.arrive_and_wait();

        // Force phase: one FASE per *block* of home cells. The neighbor
        // offset loop is outermost and the block's cells are interleaved
        // inside it, so consecutive writes to a molecule's accumulator line
        // are separated by the whole block footprint (~a few hundred bytes)
        // — the write working set whose knee the MRC analysis finds.
        const std::size_t total_cells = cells * cells * cells;
        // 4 cells x ~5 molecules x 24B accumulators ~= 20 cache lines of
        // block footprint: the MRC knee the paper reports at 23.
        const std::size_t cell_block = 4;
        const auto [cell_begin, cell_end] =
            partition(total_cells, p.threads, tid);
        for (std::size_t cb = cell_begin; cb < cell_end; cb += cell_block) {
          const std::size_t cb_end = std::min(cb + cell_block, cell_end);
          ApiFase fase(api, tid);
          for (std::size_t dxi = 0; dxi < 3; ++dxi) {
            for (std::size_t dyi = 0; dyi < 3; ++dyi) {
              for (std::size_t dzi = 0; dzi < 3; ++dzi) {
                for (std::size_t c = cb; c < cb_end; ++c) {
                  const std::size_t cx = c / (cells * cells);
                  const std::size_t cy = (c / cells) % cells;
                  const std::size_t cz = c % cells;
                  const auto& home = cell_of[c];
                  if (home.empty()) continue;
                  const std::size_t nx = (cx + dxi + cells - 1) % cells;
                  const std::size_t ny = (cy + dyi + cells - 1) % cells;
                  const std::size_t nz = (cz + dzi + cells - 1) % cells;
                  const auto& nbr = cell_of[(nx * cells + ny) * cells + nz];
                  for (const std::uint32_t j : nbr) {
                    api.read(tid, &mol[j], sizeof(Molecule));
                  }
                  for (const std::uint32_t i : home) {
                    Vec3 acc{};
                    for (const std::uint32_t j : nbr) {
                      if (j == i) continue;
                      const Vec3 f = pair_force(mol[i].pos, mol[j].pos);
                      acc.x += f.x;
                      acc.y += f.y;
                      acc.z += f.z;
                    }
                    Vec3 total = force[i];
                    total.x += acc.x;
                    total.y += acc.y;
                    total.z += acc.z;
                    api.store(tid, force[i], total);
                    api.compute(tid, 14 * nbr.size());
                  }
                }
              }
            }
          }
        }
        barrier.arrive_and_wait();

        integrate_partition(api, tid, mol, force, begin, end, dt, box);
        {
          ApiFase fase(api, tid);
          for (std::size_t i = begin; i < end; ++i) {
            api.store(tid, force[i], Vec3{});
            api.compute(tid, 4);
          }
        }
        barrier.arrive_and_wait();
      }
    });
  }

 private:
  static std::size_t molecules(const WorkloadParams& p) {
    return p.full ? 512 : 343;
  }
};

}  // namespace

std::unique_ptr<Workload> make_water_nsquared() {
  return std::make_unique<WaterNsquaredWorkload>();
}
std::unique_ptr<Workload> make_water_spatial() {
  return std::make_unique<WaterSpatialWorkload>();
}

}  // namespace nvc::workloads
