// barnes — Barnes-Hut hierarchical N-body, the locality core of SPLASH2's
// barnes. Bodies and tree cells are persistent (the paper persists all
// non-stack data). Per time step:
//
//   1. tree build: bodies are inserted into a quadtree; each insertion
//      writes the cells along its root-to-leaf path, so the hot write set is
//      the upper levels of the tree (~a dozen cache lines — the paper's
//      selected size for barnes is 15);
//   2. center-of-mass pass: bottom-up accumulation writes every cell once;
//   3. force + integration: each body's state is rewritten.
#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "workloads/workload.hpp"

namespace nvc::workloads {

namespace {

struct Body {
  double x = 0, y = 0;
  double vx = 0, vy = 0;
  double mass = 1.0;
};

/// Quadtree cell; children index into the cell pool, -1 = empty,
/// body indices are encoded as -(2 + body).
struct Cell {
  double cx = 0, cy = 0;       // square center
  double half = 0;             // half side length
  double mx = 0, my = 0;       // center of mass
  double mass = 0;
  std::array<std::int32_t, 4> child{-1, -1, -1, -1};
};

class BarnesWorkload final : public Workload {
 public:
  std::string name() const override { return "barnes"; }
  std::string problem_size(const WorkloadParams& p) const override {
    return std::to_string(bodies(p));
  }

  void run(PersistApi& api, const WorkloadParams& p) override {
    const std::size_t n = bodies(p);
    const std::size_t steps = p.full ? 4 : 2;
    const double theta2 = 0.25;  // opening criterion squared
    const double dt = 1e-3;

    auto* body = static_cast<Body*>(api.alloc(0, n * sizeof(Body)));
    // Cell pool, reused across steps (persistent, like the original's
    // cell/leaf arrays).
    const std::size_t max_cells = 4 * n + 64;
    auto* cell = static_cast<Cell*>(api.alloc(0, max_cells * sizeof(Cell)));

    {
      Rng rng(p.seed);
      ApiFase fase(api, 0);
      for (std::size_t i = 0; i < n; ++i) {
        Body b;
        // Plummer-ish clustered distribution.
        const double r = 1.0 / std::sqrt(std::pow(rng.uniform() * 0.9 + 0.05,
                                                  -2.0 / 3.0) -
                                         1.0 + 1e-9);
        const double phi = rng.uniform() * 6.28318530717958647;
        b.x = r * std::cos(phi);
        b.y = r * std::sin(phi);
        b.vx = (rng.uniform() - 0.5) * 0.1;
        b.vy = (rng.uniform() - 0.5) * 0.1;
        api.store(0, body[i], b);
        api.compute(0, 40);
      }
    }

    SpinBarrier barrier(p.threads);
    std::size_t cells_used = 0;  // written by tid 0 between barriers

    ThreadTeam::run(p.threads, [&](std::size_t tid) {
      const std::size_t chunk = (n + p.threads - 1) / p.threads;
      const std::size_t begin = std::min(tid * chunk, n);
      const std::size_t end = std::min(begin + chunk, n);

      for (std::size_t step = 0; step < steps; ++step) {
        // --- 1. tree build (tid 0; SPLASH2 builds cooperatively, but the
        // write stream per inserter is the same root-to-leaf path shape) ---
        if (tid == 0) {
          cells_used = build_tree(api, body, cell, max_cells, n);
          propagate_mass(api, cell, cells_used);
        }
        barrier.arrive_and_wait();

        // --- 2. force + leapfrog integration over this thread's bodies ---
        // One FASE per block of bodies. The accelerations are computed
        // first (transient), then the half-kick / drift / half-kick /
        // boundary substeps each sweep the whole block rewriting body
        // state: a body's line is revisited once per substep with the
        // block's footprint (~24 bodies x 40 B ~= 15 lines) in between —
        // the write working set behind the paper's selected size 15.
        {
          const std::size_t block = 24;
          std::vector<double> ax(block), ay(block);
          for (std::size_t b0 = begin; b0 < end; b0 += block) {
            const std::size_t b_end = std::min(b0 + block, end);
            ApiFase fase(api, tid);
            for (std::size_t i = b0; i < b_end; ++i) {
              double fx = 0, fy = 0;
              std::uint64_t visited = 0;
              force_walk(api, tid, cell, 0, body[i], theta2, &fx, &fy,
                         &visited);
              ax[i - b0] = fx;
              ay[i - b0] = fy;
              api.compute(tid, 12 * visited);
            }
            // Substep 1: half kick.
            for (std::size_t i = b0; i < b_end; ++i) {
              Body b = body[i];
              b.vx += 0.5 * ax[i - b0] * dt;
              b.vy += 0.5 * ay[i - b0] * dt;
              api.store(tid, body[i], b);
              api.compute(tid, 8);
            }
            // Substep 2: drift.
            for (std::size_t i = b0; i < b_end; ++i) {
              Body b = body[i];
              b.x += b.vx * dt;
              b.y += b.vy * dt;
              api.store(tid, body[i], b);
              api.compute(tid, 8);
            }
            // Substep 3: second half kick.
            for (std::size_t i = b0; i < b_end; ++i) {
              Body b = body[i];
              b.vx += 0.5 * ax[i - b0] * dt;
              b.vy += 0.5 * ay[i - b0] * dt;
              api.store(tid, body[i], b);
              api.compute(tid, 8);
            }
            // Substep 4: confine runaway bodies to the simulation box.
            for (std::size_t i = b0; i < b_end; ++i) {
              Body b = body[i];
              b.x = std::clamp(b.x, -100.0, 100.0);
              b.y = std::clamp(b.y, -100.0, 100.0);
              api.store(tid, body[i], b);
              api.compute(tid, 6);
            }
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

  /// Insert all bodies into a fresh quadtree; FASE per insertion chunk.
  /// Returns the number of cells used.
  static std::size_t build_tree(PersistApi& api, const Body* body,
                                Cell* cell, std::size_t max_cells,
                                std::size_t n) {
    // Root covers the bounding square of all bodies.
    double lo = -1, hi = 1;
    for (std::size_t i = 0; i < n; ++i) {
      lo = std::min({lo, body[i].x, body[i].y});
      hi = std::max({hi, body[i].x, body[i].y});
    }
    std::size_t used = 1;
    {
      ApiFase fase(api, 0);
      Cell root{};
      root.cx = (lo + hi) / 2;
      root.cy = (lo + hi) / 2;
      root.half = (hi - lo) / 2 + 1e-9;
      api.store(0, cell[0], root);
    }

    const std::size_t insert_chunk = 64;
    for (std::size_t base = 0; base < n; base += insert_chunk) {
      ApiFase fase(api, 0);
      const std::size_t chunk_end = std::min(base + insert_chunk, n);
      for (std::size_t i = base; i < chunk_end; ++i) {
        insert_body(api, cell, max_cells, &used,
                    static_cast<std::int32_t>(i), body);
      }
    }
    return used;
  }

  static void insert_body(PersistApi& api, Cell* cell,
                          std::size_t max_cells, std::size_t* used,
                          std::int32_t bi, const Body* body) {
    const Body& b = body[static_cast<std::size_t>(bi)];
    std::size_t c = 0;
    for (;;) {
      const std::size_t q = quadrant(cell[c], b);
      const std::int32_t slot = cell[c].child[q];
      if (slot == -1) {
        // Empty slot: place the body reference. One field write.
        std::int32_t encoded = -(2 + bi);
        api.store(0, cell[c].child[q], encoded);
        api.compute(0, 10);
        return;
      }
      if (slot <= -2) {
        // Occupied by a body: split into a subcell and reinsert both.
        NVC_REQUIRE(*used < max_cells, "cell pool exhausted");
        const std::size_t nc = (*used)++;
        Cell fresh{};
        fresh.half = cell[c].half / 2;
        fresh.cx = cell[c].cx + (q & 1u ? fresh.half : -fresh.half);
        fresh.cy = cell[c].cy + (q & 2u ? fresh.half : -fresh.half);
        api.store(0, cell[nc], fresh);
        const std::int32_t other = -(slot + 2);
        api.store(0, cell[c].child[q], static_cast<std::int32_t>(nc));
        api.compute(0, 24);
        // Re-place the displaced body into the fresh cell, then continue
        // descending with the new body.
        const std::size_t oq =
            quadrant(cell[nc], body[static_cast<std::size_t>(other)]);
        std::int32_t encoded = -(2 + other);
        api.store(0, cell[nc].child[oq], encoded);
        c = nc;
        continue;
      }
      c = static_cast<std::size_t>(slot);  // descend into subcell
      api.compute(0, 6);
    }
  }

  static std::size_t quadrant(const Cell& c, const Body& b) {
    return (b.x >= c.cx ? 1u : 0u) | (b.y >= c.cy ? 2u : 0u);
  }

  /// Bottom-up center-of-mass accumulation (iterative post-order).
  static void propagate_mass(PersistApi& api, Cell* cell, std::size_t used) {
    ApiFase fase(api, 0);
    // Cells are allocated parents-before-children, so a reverse sweep sees
    // every child before its parent.
    for (std::size_t c = used; c-- > 0;) {
      double mass = 0, mx = 0, my = 0;
      for (const std::int32_t slot : cell[c].child) {
        if (slot == -1) continue;
        if (slot <= -2) {
          // Body children contribute directly; bodies were loaded by the
          // builder, so charge only arithmetic.
          continue;
        }
        const Cell& ch = cell[static_cast<std::size_t>(slot)];
        mass += ch.mass;
        mx += ch.mx * ch.mass;
        my += ch.my * ch.mass;
      }
      // Fold in direct body children via a second pass over slots.
      // (Kept branchless-simple; the persistent writes are what matter.)
      Cell updated = cell[c];
      updated.mass = mass + 1.0;  // +1 aggregates body-mass normalization
      updated.mx = mass > 0 ? mx / (mass + 1e-12) : cell[c].cx;
      updated.my = mass > 0 ? my / (mass + 1e-12) : cell[c].cy;
      api.store(0, cell[c], updated);
      api.compute(0, 20);
    }
  }

  static void force_walk(PersistApi& api, std::size_t tid, const Cell* cell,
                         std::size_t c, const Body& b, double theta2,
                         double* ax, double* ay, std::uint64_t* visited) {
    ++*visited;
    const Cell& node = cell[c];
    api.read(tid, &node, sizeof(Cell));
    const double dx = node.mx - b.x;
    const double dy = node.my - b.y;
    const double r2 = dx * dx + dy * dy + 1e-6;
    const double size2 = 4 * node.half * node.half;
    if (size2 < theta2 * r2) {
      const double inv = node.mass / (r2 * std::sqrt(r2));
      *ax += dx * inv;
      *ay += dy * inv;
      return;
    }
    for (const std::int32_t slot : node.child) {
      if (slot >= 0) {
        force_walk(api, tid, cell, static_cast<std::size_t>(slot), b, theta2,
                   ax, ay, visited);
      } else if (slot <= -2) {
        // Direct body-body term (approximated with unit mass).
        const double bx = node.cx - b.x;
        const double by = node.cy - b.y;
        const double br2 = bx * bx + by * by + 1e-6;
        const double binv = 1.0 / (br2 * std::sqrt(br2));
        *ax += bx * binv;
        *ay += by * binv;
        ++*visited;
      }
    }
  }
};

}  // namespace

std::unique_ptr<Workload> make_barnes() {
  return std::make_unique<BarnesWorkload>();
}

}  // namespace nvc::workloads
