/// Figure 5.2 — homogeneous networks, average degree 10: distribution of
/// the number of forward nodes over 200 random point sets (x = forwarding-
/// set size, y = number of point sets), for all five algorithms.

#include <iostream>

#include "../bench/common.hpp"
#include "sim/chart.hpp"

int main() {
  using namespace mldcs;
  bench::banner("Figure 5.2",
                "homogeneous, avg degree 10: distribution of #forward nodes");

  sim::ThreadPool pool;
  const std::vector<bcast::Scheme> schemes{
      bcast::Scheme::kFlooding, bcast::Scheme::kSkyline,
      bcast::Scheme::kSelectingForwardingSet, bcast::Scheme::kGreedy,
      bcast::Scheme::kOptimal};

  net::DeploymentParams p;
  p.target_avg_degree = 10;
  const auto sizes = bench::run_sweep_point(
      p, schemes, bench::kTrials, sim::derive_seed(bench::kMasterSeed, 52),
      pool);

  std::vector<std::string> names;
  std::vector<sim::IntHistogram> hists(schemes.size());
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    names.emplace_back(bcast::scheme_name(schemes[s]));
    hists[s].add_all(sizes[s]);
  }

  sim::render_histogram_table(std::cout, names, hists,
                              "Figure 5.2 (reproduced): counts per size bin");
  std::cout << '\n';
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    sim::render_histogram(std::cout, hists[s],
                          "distribution: " + names[s]);
    std::cout << "  mean=" << sim::format_double(hists[s].mean(), 2)
              << " mode=" << hists[s].mode() << "\n\n";
  }

  // CSV block.
  sim::Table csv({"size", "flooding", "skyline", "sel-fwd-set", "greedy",
                  "optimal"});
  std::uint64_t hi = 0;
  for (const auto& h : hists) hi = std::max(hi, h.max_value());
  for (std::uint64_t v = 0; v <= hi; ++v) {
    std::vector<std::string> row{std::to_string(v)};
    for (const auto& h : hists) row.push_back(std::to_string(h.count(v)));
    csv.add_row(std::move(row));
  }
  csv.print_csv(std::cout);

  // Shape check: better algorithms concentrate left (smaller mean).
  const bool shape = hists[4].mean() <= hists[3].mean() + 1e-9 &&
                     hists[3].mean() <= hists[1].mean() + 1e-9 &&
                     hists[1].mean() <= hists[0].mean() + 1e-9;
  std::cout << (shape ? "\n[OK] distribution ordering matches the paper\n"
                      : "\n[WARN] distribution ordering deviates\n");
  return shape ? 0 : 1;
}
