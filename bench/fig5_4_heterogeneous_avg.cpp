/// Figure 5.4 — heterogeneous networks (r ~ U[1,2], including the source):
/// average forwarding-set size vs average number of 1-hop neighbors, for
/// blind flooding, skyline, greedy, and optimal.  The selecting-forwarding-
/// set algorithm of [6] is homogeneous-only and is excluded, as in the
/// paper (Section 5.1.2).

#include <iostream>

#include "../bench/common.hpp"
#include "sim/chart.hpp"

int main() {
  using namespace mldcs;
  bench::banner("Figure 5.4",
                "heterogeneous networks (r ~ U[1,2]): avg #forward nodes vs "
                "avg #1-hop neighbors");

  sim::ThreadPool pool;
  const std::vector<bcast::Scheme> schemes{
      bcast::Scheme::kFlooding, bcast::Scheme::kSkyline,
      bcast::Scheme::kGreedy, bcast::Scheme::kOptimal};

  std::vector<double> degrees;
  for (int n = 4; n <= 20; n += 2) degrees.push_back(n);

  sim::Table table({"avg_1hop", "flooding", "skyline", "greedy", "optimal"});
  std::vector<sim::Series> series(schemes.size());
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    series[s].name = std::string(bcast::scheme_name(schemes[s]));
  }

  for (double n : degrees) {
    net::DeploymentParams p;
    p.model = net::RadiusModel::kUniform;  // r ~ U[1,2], incl. source
    p.target_avg_degree = n;
    const auto sizes = bench::run_sweep_point(
        p, schemes, bench::kTrials,
        sim::derive_seed(bench::kMasterSeed,
                         1000 + static_cast<std::uint64_t>(n)),
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
  sim::render_line_chart(std::cout, series, "Figure 5.4 (reproduced)",
                         "average number of 1-hop neighbors",
                         "average number of forward nodes");
  std::cout << '\n';
  table.print_csv(std::cout);

  bool ordered = true;
  for (std::size_t k = 0; k < degrees.size(); ++k) {
    ordered = ordered && series[0].ys[k] >= series[1].ys[k] &&
              series[1].ys[k] >= series[3].ys[k] &&  // skyline >= optimal
              series[2].ys[k] >= series[3].ys[k];    // greedy >= optimal
  }
  std::cout << (ordered ? "\n[OK] curve ordering matches the paper\n"
                        : "\n[WARN] curve ordering deviates from the paper\n");
  return ordered ? 0 : 1;
}
