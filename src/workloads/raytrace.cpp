// raytrace — a sphere-scene ray caster standing in for SPLASH2's raytrace.
// Persistent data: the framebuffer (written once per pixel, mostly
// sequentially within a tile) and per-object hit statistics (small, very hot
// — rewritten on every intersection test that hits). The mix of streaming
// pixel writes and a compact hot counter set gives a mid-small MRC knee
// (the paper selects 8 for raytrace).
#include <cmath>
#include <string>

#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "workloads/workload.hpp"

namespace nvc::workloads {

namespace {

struct Sphere {
  double x, y, z, r;
  double shade;
};

struct HitStats {
  std::uint64_t tests = 0;
  std::uint64_t hits = 0;
};

class RaytraceWorkload final : public Workload {
 public:
  std::string name() const override { return "raytrace"; }
  std::string problem_size(const WorkloadParams& p) const override {
    return p.full ? "car(512px)" : "teapot(192px)";
  }

  void run(PersistApi& api, const WorkloadParams& p) override {
    const std::size_t res = p.full ? 512 : 192;  // image is res x res
    const std::size_t num_spheres = 24;
    const std::size_t tile = 16;

    auto* image = static_cast<float*>(api.alloc(0, res * res * sizeof(float)));
    // Per-thread hit statistics: the hot persistent counters, cache-line
    // separated so threads never share a software-cache line.
    std::vector<HitStats*> stats(p.threads);
    for (std::size_t t = 0; t < p.threads; ++t) {
      stats[t] = static_cast<HitStats*>(
          api.alloc(t, num_spheres * sizeof(HitStats)));
    }

    // Scene setup (transient array of spheres; read-only during tracing).
    std::vector<Sphere> scene(num_spheres);
    {
      Rng rng(p.seed);
      for (auto& s : scene) {
        s = Sphere{rng.uniform() * 4 - 2, rng.uniform() * 4 - 2,
                   rng.uniform() * 4 + 2, rng.uniform() * 0.5 + 0.2,
                   rng.uniform()};
      }
      ApiFase fase(api, 0);
      for (std::size_t t = 0; t < p.threads; ++t) {
        for (std::size_t i = 0; i < num_spheres; ++i) {
          api.store(0, stats[t][i], HitStats{});
        }
      }
    }

    // Tiles are distributed round-robin over threads; one FASE per tile.
    const std::size_t tiles_per_side = res / tile;
    const std::size_t num_tiles = tiles_per_side * tiles_per_side;

    ThreadTeam::run(p.threads, [&](std::size_t tid) {
      for (std::size_t t = tid; t < num_tiles; t += p.threads) {
        const std::size_t tx = (t % tiles_per_side) * tile;
        const std::size_t ty = (t / tiles_per_side) * tile;
        ApiFase fase(api, tid);
        for (std::size_t py = ty; py < ty + tile; ++py) {
          for (std::size_t px = tx; px < tx + tile; ++px) {
            const double dx =
                (static_cast<double>(px) / static_cast<double>(res)) * 2 - 1;
            const double dy =
                (static_cast<double>(py) / static_cast<double>(res)) * 2 - 1;
            float shade = 0.05f;  // background
            double best_t = 1e30;
            for (std::size_t s = 0; s < num_spheres; ++s) {
              double hit_t;
              const bool hit = intersect(scene[s], dx, dy, &hit_t);
              // Per-object statistics: hot persistent counters. Recording
              // every 4th test keeps counter traffic from dwarfing pixels.
              if ((px & 3u) == 0) {
                HitStats st = stats[tid][s];
                ++st.tests;
                st.hits += hit ? 1 : 0;
                api.store(tid, stats[tid][s], st);
              }
              if (hit && hit_t < best_t) {
                best_t = hit_t;
                shade = static_cast<float>(scene[s].shade /
                                           (1.0 + 0.1 * hit_t));
              }
              api.compute(tid, 18);
            }
            api.store(tid, image[py * res + px], shade);
          }
        }
      }
    });
  }

 private:
  /// Ray from origin through (dx, dy, 1): solve |o + t*d - c|^2 = r^2.
  static bool intersect(const Sphere& s, double dx, double dy, double* t) {
    const double dz = 1.0;
    const double a = dx * dx + dy * dy + dz * dz;
    const double b = -2 * (dx * s.x + dy * s.y + dz * s.z);
    const double c = s.x * s.x + s.y * s.y + s.z * s.z - s.r * s.r;
    const double disc = b * b - 4 * a * c;
    if (disc < 0) return false;
    const double root = (-b - std::sqrt(disc)) / (2 * a);
    if (root <= 1e-9) return false;
    *t = root;
    return true;
  }
};

}  // namespace

std::unique_ptr<Workload> make_raytrace() {
  return std::make_unique<RaytraceWorkload>();
}

}  // namespace nvc::workloads
