// E22 — the advice/time tradeoff of [14] (paper §2), and where the Lévy
// strategy sits on it.
//
// Feinerman–Korman prove matching bounds on search time as a function of
// the advice size b an oracle may hand each agent before the search. We
// instrument the FK searcher with a distance-scale hint: b bits quantize
// log₂ ℓ into 2^b buckets over the scales [2, 2^12], and the agent starts
// its epoch schedule at the bucket's lower edge (b = 0: no advice, start at
// radius 2). Because epochs double, the total cost is dominated by the
// final epoch: advice can only shave the geometric warm-up (a constant
// fraction), and an overshooting hint actively hurts — the [14] tradeoff
// is about log-factor refinements, which is exactly what the table shows.
// The paper's randomized Lévy strategy needs zero advice and no knowledge
// of k; we print it alongside for calibration.

#include <cmath>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/baselines/fk_ants.h"
#include "src/core/strategy.h"
#include "src/core/parallel_search.h"
#include "src/core/theory.h"
#include "src/sim/monte_carlo.h"
#include "src/sim/trial.h"
#include "src/stats/summary.h"
#include "src/stats/table.h"

namespace {

using namespace levy;

/// Starting radius encoded by b advice bits for true distance ell: quantize
/// log2(ell) over [1, 12] into 2^b buckets, take the bucket's lower edge.
std::int64_t advice_radius(std::int64_t ell, int bits) {
    if (bits <= 0) return 2;
    const double log_ell = std::log2(static_cast<double>(ell));
    const double buckets = std::exp2(bits);
    const double width = 12.0 / buckets;
    const double lower = std::floor(log_ell / width) * width;
    const double radius = std::exp2(std::max(1.0, lower));
    return static_cast<std::int64_t>(radius);
}

constexpr unsigned kFlags = sim::group::monte_carlo | sim::group::checkpoint;

void run(const sim::run_options& opts) {
    bench::banner("E22", "the [14] advice/time tradeoff, with the Levy strategy alongside",
                  "more advice bits -> shorter FK search (skipped warm-up epochs); the "
                  "randomized Levy strategy needs zero advice");

    const std::size_t k = 64;
    const std::int64_t ell = bench::scaled(192, opts.scale);
    const point target = sim::target_at(ell);
    const double lb = theory::universal_lower_bound(static_cast<double>(k),
                                                    static_cast<double>(ell));
    const auto budget = static_cast<std::uint64_t>(48.0 * lb);

    std::cout << "k = " << k << ", ell = " << ell << ", budget = 48*(ell^2/k + ell) = "
              << budget << "\n";
    stats::text_table table({"strategy", "advice bits", "start radius", "hit rate",
                             "median tau^k", "p50/LB"});

    for (const int bits : {0, 1, 2, 3, 4}) {
        const std::int64_t start_radius = advice_radius(ell, bits);
        const auto mc = opts.mc(/*default_trials=*/80, /*salt=*/static_cast<std::uint64_t>(bits));
        const auto results = sim::monte_carlo_collect(mc, [&](std::size_t, rng& g) {
            const auto r = bench::parallel_hit_generic(
                k, target, budget, g, [&](std::size_t, rng s) {
                    return baselines::fk_ants_searcher(k, s, origin, 2.0, start_radius);
                });
            return r;
        });
        std::vector<double> times;
        std::uint64_t hits = 0;
        for (const auto& r : results) {
            times.push_back(static_cast<double>(r.time));
            hits += r.hit;
        }
        const double med = stats::median(times);
        table.add_row({"FK ball+spiral", stats::fmt(bits), stats::fmt(start_radius),
                       stats::fmt(static_cast<double>(hits) / static_cast<double>(results.size()), 2),
                       stats::fmt(med, 0), stats::fmt(med / lb, 1)});
    }

    {
        const auto mc = opts.mc(/*default_trials=*/80, /*salt=*/99);
        const auto results = sim::monte_carlo_collect(mc, [&](std::size_t, rng& g) {
            return parallel_hit(k, uniform_exponent(), target, budget, g);
        });
        std::vector<double> times;
        std::uint64_t hits = 0;
        for (const auto& r : results) {
            times.push_back(static_cast<double>(r.time));
            hits += r.hit;
        }
        table.add_separator();
        table.add_row({"Levy U(2,3)", "0 (and k unknown)", "-",
                       stats::fmt(static_cast<double>(hits) / static_cast<double>(results.size()), 2),
                       stats::fmt(stats::median(times), 0),
                       stats::fmt(stats::median(times) / lb, 1)});
    }
    table.print(std::cout);
    std::cout << "\nReading: the doubling-epoch schedule makes FK remarkably advice-robust:\n"
                 "its cost is dominated by the final (covering) epoch, so hints shave only\n"
                 "the geometric warm-up and an overshooting bucket edge (high b rows where\n"
                 "the start radius lands just under ell) wastes a near-ell epoch — the\n"
                 "advice tradeoff of [14] lives in the log factors, as their theorem says.\n"
                 "The Levy row uses no advice AND no knowledge of k; it trails informed FK\n"
                 "by the polylog factor the paper concedes (Thm 1.6 vs the [14] optimum).\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E22", argc, argv, kFlags, run); }
