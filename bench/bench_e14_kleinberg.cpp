// E14 — §2 / [24]: the Kleinberg small-world connection (extension).
//
// The paper situates its "exactly one exponent is optimal" phenomenon next
// to Kleinberg's: an n×n torus with one long-range contact per node drawn
// with P ∝ dist^{-β} routes greedily in O(log² n) hops only at β = 2
// (= the lattice dimension), and polynomially slower at any other β —
// footnote 4 maps β = α + d − 1 onto the Lévy-walk exponent. We sweep β and
// report the mean greedy-routing time; the valley must sit at β = 2.

#include <cmath>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/monte_carlo.h"
#include "src/smallworld/greedy_routing.h"
#include "src/stats/summary.h"

namespace {

using namespace levy;

constexpr unsigned kFlags = sim::group::monte_carlo | sim::group::checkpoint;

void run(const sim::run_options& opts) {
    bench::banner("E14", "Kleinberg routing (related work, §2): one optimal exponent",
                  "greedy routing is fastest at beta = 2 (dimension of the lattice); "
                  "any other beta is polynomially slower as n grows");

    // Small tori favor beta slightly below 2 (the n^{(2-beta)/3} separation
    // grows slowly); the argmin drifts to 2 as n grows — run big tori, the
    // routing itself is cheap.
    const std::vector<double> betas = {1.0, 1.5, 1.8, 2.0, 2.2, 2.5, 3.0};
    std::vector<std::int64_t> ns = {256, 1024, 4096};
    for (auto& n : ns) n = bench::scaled(n, opts.scale);

    stats::text_table table({"n", "beta", "routes", "mean hops", "hops/log^2 n"});
    for (const std::int64_t n : ns) {
        double best_mean = 1e300;
        double best_beta = 0.0;
        const double log2n = std::log(static_cast<double>(n)) *
                             std::log(static_cast<double>(n));
        for (const double beta : betas) {
            const smallworld::kleinberg_grid graph(n, beta,
                                                   opts.seed + static_cast<std::uint64_t>(n));
            const auto mc = opts.mc(/*default_trials=*/400,
                                    /*salt=*/static_cast<std::uint64_t>(beta * 100) +
                                        static_cast<std::uint64_t>(n));
            const auto hops = sim::monte_carlo_collect(mc, [&](std::size_t, rng& g) {
                const point s = graph.random_node(g);
                const point t = graph.random_node(g);
                return static_cast<double>(
                    smallworld::greedy_route(graph, s, t, static_cast<std::uint64_t>(4 * n))
                        .hops);
            });
            const double mean = stats::summarize(hops).mean();
            if (mean < best_mean) {
                best_mean = mean;
                best_beta = beta;
            }
            table.add_row({stats::fmt(n), stats::fmt(beta, 1), stats::fmt(mc.trials),
                           stats::fmt(mean, 1), stats::fmt(mean / log2n, 2)});
        }
        table.add_row({stats::fmt(n), "argmin", "-", stats::fmt(best_beta, 1) + " (paper: 2.0)",
                       "-"});
        table.add_separator();
    }
    table.print(std::cout);
    std::cout << "\nReading: mean hops is V-shaped in beta; away-from-2 exponents degrade\n"
                 "polynomially as n grows (watch beta = 1.0 and 3.0 blow up across rows)\n"
                 "while the valley tightens around 2 — the classic finite-size picture of\n"
                 "Kleinberg's theorem, and the structural sibling of E6's unique optimal\n"
                 "alpha. (At any finite n the empirical argmin sits slightly below 2,\n"
                 "drifting upward with n; the asymptotic optimum is exactly 2.)\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E14", argc, argv, kFlags, run); }
