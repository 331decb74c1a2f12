// E11 — Lemma 4.13: expected visits to the origin of the capped Lévy flight.
//
// a_t(α) = E[Z₀(t) | E_t] is O(1/(3−α)²) for α ∈ (2,3) — *bounded in t* —
// and O(log² t) at the threshold α = 3. This constant is the denominator in
// the proof's conversion from expected visits to hitting probability
// (Lemma 4.14(iii)). Two checks, both honest about the bound being an O():
//   (1) across α at fixed t, measured a_t(α) stays below C/(3−α)²
//       (the full divergence needs t ≈ e^{(α-1)/(3-α)}, far beyond reach);
//   (2) across t at fixed α: bounded growth for α = 2.5 (visits saturate)
//       vs unbounded log-like growth at α = 3.

#include <cmath>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/levy_flight.h"
#include "src/sim/monte_carlo.h"
#include "src/sim/trajectory.h"
#include "src/stats/summary.h"

namespace {

using namespace levy;

double mean_origin_visits(double alpha, std::uint64_t t, const sim::mc_options& mc) {
    const double cap_real = std::pow(static_cast<double>(t) * std::log(static_cast<double>(t)),
                                     1.0 / (alpha - 1.0));
    const auto cap = static_cast<std::uint64_t>(cap_real) + 1;
    const auto counts = sim::monte_carlo_collect(mc, [&](std::size_t, rng& g) {
        levy_flight f(alpha, g, origin, cap);
        return static_cast<double>(sim::count_visits(f, origin, t));
    });
    return stats::summarize(counts).mean();
}

void across_alpha(const sim::run_options& opts) {
    std::cout << "--- (1) upper bound across alpha at fixed t ---\n";
    const auto t = static_cast<std::uint64_t>(bench::scaled(16384, opts.scale));
    const std::vector<double> alphas = {2.1, 2.3, 2.5, 2.7, 2.9, 3.0};
    stats::text_table table({"alpha", "t", "E[Z0(t)]", "paper bound shape", "meas/bound"});
    for (const double alpha : alphas) {
        const auto mc = opts.mc(/*default_trials=*/400,
                                /*salt=*/static_cast<std::uint64_t>(alpha * 1000));
        const double visits = mean_origin_visits(alpha, t, mc);
        const double shape = alpha < 3.0
                                 ? 1.0 / ((3.0 - alpha) * (3.0 - alpha))
                                 : std::pow(std::log(static_cast<double>(t)), 2.0);
        const std::string desc = alpha < 3.0 ? "O(1/(3-a)^2) = O(" + stats::fmt(shape, 1) + ")"
                                             : "O(log^2 t) = O(" + stats::fmt(shape, 1) + ")";
        table.add_row({stats::fmt(alpha, 2), stats::fmt(t), stats::fmt(visits, 2), desc,
                       stats::fmt(visits / shape, 3)});
    }
    table.print(std::cout);
    std::cout << "Reading: the lemma is an upper bound — meas/bound must stay below an\n"
                 "O(1) constant for every alpha, which it does with room to spare (the\n"
                 "(3-a)^-2 divergence saturates only at t ~ e^((a-1)/(3-a)), far beyond\n"
                 "any reachable horizon).\n\n";
}

void across_t(const sim::run_options& opts) {
    std::cout << "--- (2) growth in t: bounded (alpha<3) vs logarithmic (alpha=3) ---\n";
    std::vector<std::uint64_t> ts;
    for (std::uint64_t t = 4096; t <= 262144; t *= 4) {
        ts.push_back(static_cast<std::uint64_t>(
            bench::scaled(static_cast<std::int64_t>(t), opts.scale)));
    }
    stats::text_table table({"t", "E[Z0(t)] alpha=2.5", "E[Z0(t)] alpha=3.0"});
    std::vector<double> growth25, growth30;
    for (const std::uint64_t t : ts) {
        const auto mc25 = opts.mc(/*default_trials=*/300, /*salt=*/t * 2);
        const auto mc30 = opts.mc(/*default_trials=*/300, /*salt=*/t * 2 + 1);
        const double v25 = mean_origin_visits(2.5, t, mc25);
        const double v30 = mean_origin_visits(3.0, t, mc30);
        growth25.push_back(v25);
        growth30.push_back(v30);
        table.add_row({stats::fmt(t), stats::fmt(v25, 3), stats::fmt(v30, 3)});
    }
    table.print(std::cout);
    const double rel25 = growth25.back() / growth25.front();
    const double rel30 = growth30.back() / growth30.front();
    std::cout << "growth factor over a 64x longer run: alpha=2.5 -> " << stats::fmt(rel25, 2)
              << " (paper: O(1), bounded), alpha=3.0 -> " << stats::fmt(rel30, 2)
              << " (paper: grows like log^2 t)\n";
}

constexpr unsigned kFlags = sim::group::monte_carlo | sim::group::checkpoint;

void run(const sim::run_options& opts) {
    bench::banner("E11", "Lemma 4.13: visits to the origin, capped flight",
                  "a_t(alpha) = O(1/(3-alpha)^2) for alpha in (2,3), bounded in t; "
                  "O(log^2 t) at alpha = 3");
    across_alpha(opts);
    across_t(opts);
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E11", argc, argv, kFlags, run); }
