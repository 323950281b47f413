// Ablation (paper §I/§III-B, Fig. 1): Near-Data Processing vs the
// classical host path.
//
// "[1] ... were able to demonstrate speedups of up-to factor 2.7x for
// real-world data analysis" — the comparison the paper builds on (and
// therefore omits from its own evaluation). We reproduce it: a SCAN that
// ships every block through the intermediate layers and the NVMe link to
// the host vs software NDP on the device ARM vs hardware NDP on a
// generated PE.
#include "bench_common.hpp"

#include "core/testbed.hpp"

using namespace ndpgen;

namespace {

double run(ndp::ExecMode mode, std::uint64_t scale) {
  core::TestbedConfig config;
  config.scale_divisor = scale;
  config.executor.mode = mode;
  core::Testbed testbed(std::move(config));
  const auto stats = testbed.executor().scan({{"year", "lt", 1990}});
  return bench::to_seconds(stats.elapsed) * static_cast<double>(scale);
}

}  // namespace

int main() {
  const std::uint64_t scale = bench::scale_divisor(256);
  bench::print_header(
      "Ablation — classical host path vs Near-Data Processing (SCAN)",
      "motivation of Weber et al. IPPS'21 / Vincon et al. [1], Fig. 1");
  std::printf("dataset: papers at 1/%llu scale; full-scale seconds\n\n",
              static_cast<unsigned long long>(scale));

  const double host = run(ndp::ExecMode::kHostClassic, scale);
  const double sw = run(ndp::ExecMode::kSoftware, scale);
  const double hw = run(ndp::ExecMode::kHardware, scale);

  std::printf("%-34s %10s %10s\n", "path", "scan [s]", "vs host");
  std::printf("%-34s %10.3f %10s\n", "classical host (no NDP)", host, "1.00x");
  std::printf("%-34s %10.3f %9.2fx\n", "software NDP (device ARM)", sw,
              host / sw);
  std::printf("%-34s %10.3f %9.2fx\n", "hardware NDP (generated PE)", hw,
              host / hw);
  bench::JsonResult json("ablation_host_vs_ndp");
  json.add("classical host", "scan", host, "s");
  json.add("software NDP", "scan", sw, "s");
  json.add("hardware NDP", "scan", hw, "s");
  json.write();

  std::printf("\nshape checks:\n");
  std::printf("  [%c] NDP beats the classical host path\n",
              hw < host && sw < host ? 'x' : ' ');
  std::printf("  [%c] hardware NDP speedup in the 'up to 2.7x' regime "
              "reported by [1] (measured %.2fx)\n",
              host / hw > 1.5 && host / hw < 4.0 ? 'x' : ' ', host / hw);
  return (hw < host && sw < host) ? 0 : 1;
}
