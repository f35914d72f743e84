/// Figure 5.1 — homogeneous networks (r = 1): average forwarding-set size
/// of the source vs average number of 1-hop neighbors, for blind flooding,
/// the skyline (MLDCS) algorithm, the selecting-forwarding-set algorithm of
/// [6], the greedy algorithm, and the brute-force optimal.
///
/// Paper shape to reproduce: five curves ordered (top to bottom) flooding >
/// skyline > selecting-forwarding-set > greedy > optimal; flooding grows
/// linearly with density while the 2-hop schemes saturate.

#include <iostream>

#include "../bench/common.hpp"
#include "sim/chart.hpp"

int main() {
  using namespace mldcs;
  bench::banner("Figure 5.1",
                "homogeneous networks: avg #forward nodes vs avg #1-hop "
                "neighbors");

  sim::ThreadPool pool;
  const std::vector<bcast::Scheme> schemes{
      bcast::Scheme::kFlooding, bcast::Scheme::kSkyline,
      bcast::Scheme::kSelectingForwardingSet, bcast::Scheme::kGreedy,
      bcast::Scheme::kOptimal};

  std::vector<double> degrees;
  for (int n = 4; n <= 20; n += 2) degrees.push_back(n);

  sim::Table table({"avg_1hop", "flooding", "skyline", "sel-fwd-set",
                    "greedy", "optimal"});
  std::vector<sim::Series> series(schemes.size());
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    series[s].name = std::string(bcast::scheme_name(schemes[s]));
  }

  for (double n : degrees) {
    net::DeploymentParams p;  // homogeneous, r = 1, 12.5 x 12.5
    p.target_avg_degree = n;
    const auto sizes = bench::run_sweep_point(
        p, schemes, bench::kTrials,
        sim::derive_seed(bench::kMasterSeed, static_cast<std::uint64_t>(n)),
        pool);
    std::vector<double> row{n};
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      const double avg = bench::mean_size(sizes[s]);
      row.push_back(avg);
      series[s].xs.push_back(n);
      series[s].ys.push_back(avg);
    }
    table.add_numeric_row(row);
  }

  table.print(std::cout);
  std::cout << '\n';
  sim::render_line_chart(std::cout, series, "Figure 5.1 (reproduced)",
                         "average number of 1-hop neighbors",
                         "average number of forward nodes");
  std::cout << '\n';
  table.print_csv(std::cout);

  // Sanity: the paper's curve ordering must hold at every sweep point.
  bool ordered = true;
  for (std::size_t k = 0; k < degrees.size(); ++k) {
    ordered = ordered && series[0].ys[k] >= series[1].ys[k] &&  // flood >= sky
              series[3].ys[k] >= series[4].ys[k];               // greedy >= opt
  }
  std::cout << (ordered ? "\n[OK] curve ordering matches the paper\n"
                        : "\n[WARN] curve ordering deviates from the paper\n");
  return ordered ? 0 : 1;
}
