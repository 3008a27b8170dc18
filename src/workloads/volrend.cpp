// volrend — orthographic volume rendering by ray casting, standing in for
// SPLASH2's volrend (which renders a CT "head" dataset). The volume itself
// is read-only; the persistent writes are the output image (one sequential
// write per pixel) and a tiny opacity histogram that nearly every sample
// updates — a very small, very hot write set. The paper selects cache size 3
// for volrend, and SC reaches the lazy lower bound on it.
#include <cmath>
#include <string>

#include "common/barrier.hpp"
#include "workloads/workload.hpp"

namespace nvc::workloads {

namespace {

constexpr std::size_t kHistBins = 8;

class VolrendWorkload final : public Workload {
 public:
  std::string name() const override { return "volrend"; }
  std::string problem_size(const WorkloadParams& p) const override {
    return p.full ? "head(256px)" : "head(96px)";
  }

  void run(PersistApi& api, const WorkloadParams& p) override {
    const std::size_t res = p.full ? 256 : 128;   // image res x res
    const std::size_t vol = 48;                  // volume vol^3 voxels
    const std::size_t frames = p.full ? 4 : 2;   // rotated re-renders

    auto* image = static_cast<float*>(api.alloc(0, res * res * sizeof(float)));
    // Per-thread opacity histograms (cache-line separated): the hot little
    // write set, with no cross-thread sharing (paper Section II-B).
    std::vector<std::uint32_t*> hists(p.threads);
    for (std::size_t t = 0; t < p.threads; ++t) {
      hists[t] = static_cast<std::uint32_t*>(
          api.alloc(t, kHistBins * sizeof(std::uint32_t)));
    }

    // Procedural "head": a dense ellipsoid with an off-center cavity.
    std::vector<std::uint8_t> volume(vol * vol * vol);
    for (std::size_t z = 0; z < vol; ++z) {
      for (std::size_t y = 0; y < vol; ++y) {
        for (std::size_t x = 0; x < vol; ++x) {
          const double nx = (double(x) / vol - 0.5) * 2;
          const double ny = (double(y) / vol - 0.5) * 2.2;
          const double nz = (double(z) / vol - 0.5) * 2;
          const double head = 1.0 - (nx * nx + ny * ny + nz * nz);
          const double cavity =
              0.3 - ((nx - 0.2) * (nx - 0.2) + ny * ny + nz * nz);
          const double d = std::max(0.0, head - std::max(0.0, cavity));
          volume[(z * vol + y) * vol + x] =
              static_cast<std::uint8_t>(std::min(255.0, d * 300));
        }
      }
    }

    ThreadTeam::run(p.threads, [&](std::size_t tid) {
      for (std::size_t frame = 0; frame < frames; ++frame) {
        const double angle = 0.3 * static_cast<double>(frame);
        const double ca = std::cos(angle);
        const double sa = std::sin(angle);
        // Scanline groups are distributed over threads; FASE per group.
        const std::size_t group = 8;
        for (std::size_t gy = tid * group; gy < res;
             gy += p.threads * group) {
          ApiFase fase(api, tid);
          for (std::size_t py = gy; py < std::min(gy + group, res); ++py) {
            for (std::size_t px = 0; px < res; ++px) {
              double opacity = 0.0;
              double lum = 0.0;
              // March along +z through the rotated volume.
              for (std::size_t step = 0; step < vol && opacity < 0.98;
                   ++step) {
                const double u = (double(px) / res - 0.5);
                const double v = (double(py) / res - 0.5);
                const double w = (double(step) / vol - 0.5);
                const double rx = ca * u - sa * w + 0.5;
                const double rz = sa * u + ca * w + 0.5;
                const double ry = v + 0.5;
                const std::uint8_t d = sample(volume, vol, rx, ry, rz);
                const double a = d / 1024.0;
                lum += (1.0 - opacity) * a * (0.4 + 0.6 * w + 0.5);
                opacity += (1.0 - opacity) * a;
              }
              api.compute(tid, 9 * vol);
              api.store(tid, image[py * res + px],
                        static_cast<float>(lum));
              // Opacity histogram: one line, updated per pixel.
              const std::size_t bin = std::min<std::size_t>(
                  static_cast<std::size_t>(opacity * kHistBins),
                  kHistBins - 1);
              std::uint32_t count = hists[tid][bin] + 1;
              api.store(tid, hists[tid][bin], count);
            }
          }
        }
      }
    });
  }

 private:
  static std::uint8_t sample(const std::vector<std::uint8_t>& volume,
                             std::size_t vol, double x, double y, double z) {
    if (x < 0 || y < 0 || z < 0 || x >= 1 || y >= 1 || z >= 1) return 0;
    const auto xi = static_cast<std::size_t>(x * vol);
    const auto yi = static_cast<std::size_t>(y * vol);
    const auto zi = static_cast<std::size_t>(z * vol);
    return volume[(zi * vol + yi) * vol + xi];
  }
};

}  // namespace

std::unique_ptr<Workload> make_volrend() {
  return std::make_unique<VolrendWorkload>();
}

}  // namespace nvc::workloads
