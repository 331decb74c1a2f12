// E18 — ablation: how much of Theorem 1.6 is the *randomness*, how much the
// *diversity*?
//
// The paper's strategy draws each walk's α iid from U(2,3). Candidate
// mechanisms: (a) iid continuous randomness, (b) deterministic round-robin
// over an even grid in (2,3), (c) a coarse random menu of few exponents,
// (d) no diversity at all (fixed α = 2.5). If diversity is what matters,
// (a)–(c) should track each other and beat (d) at distances where 2.5 is
// mistuned; the theorem's proof (a Θ(1/log ℓ) fraction of walks lands near
// α*) suggests exactly that.

#include <cmath>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/strategy.h"
#include "src/core/theory.h"
#include "src/sim/trial.h"
#include "src/stats/summary.h"

namespace {

using namespace levy;

constexpr unsigned kFlags = sim::group::monte_carlo | sim::group::checkpoint |
                            sim::group::watchdog | sim::group::sharding;

void run(const sim::run_options& opts) {
    bench::banner("E18", "ablation: randomized vs derandomized exponent diversity (Thm 1.6)",
                  "any assignment placing Theta(1/log ell) of the walks near alpha*(k,ell) "
                  "achieves the theorem's bound; iid U(2,3) is one such assignment");

    const std::size_t k = 64;
    struct named_strategy {
        const char* name;
        exponent_strategy strategy;
    };
    const std::vector<named_strategy> strategies = {
        {"iid U(2,3) (paper)", uniform_exponent()},
        {"round-robin 8 levels", round_robin_exponent(2.0, 3.0, 8)},
        {"round-robin 4 levels", round_robin_exponent(2.0, 3.0, 4)},
        {"random menu {2.2,2.5,2.8}", discrete_exponent({2.2, 2.5, 2.8})},
        {"fixed 2.5 (no diversity)", fixed_exponent(2.5)},
    };

    std::vector<std::int64_t> ells;
    for (const std::int64_t e : {48L, 192L}) ells.push_back(bench::scaled(e, opts.scale));

    stats::text_table table({"ell", "strategy", "hit rate", "cens", "median tau^k", "p50/LB"});
    for (const std::int64_t ell : ells) {
        const double lb = theory::universal_lower_bound(static_cast<double>(k),
                                                        static_cast<double>(ell));
        std::size_t idx = 0;
        for (const auto& s : strategies) {
            sim::parallel_walk_config cfg;
            cfg.k = k;
            cfg.strategy = s.strategy;
            cfg.ell = ell;
            cfg.budget = static_cast<std::uint64_t>(48.0 * lb);
            cfg.max_steps = opts.max_trial_steps;
            cfg.sharding = opts.sharding;
            const auto mc = opts.mc(/*default_trials=*/60,
                                    /*salt=*/static_cast<std::uint64_t>(ell) * 8 + idx);
            const auto sample = sim::parallel_hitting_times(cfg, mc);
            table.add_row({stats::fmt(ell), s.name, stats::fmt(sample.hit_fraction(), 2),
                           stats::fmt(sample.censored_fraction(), 2),
                           stats::fmt(stats::median(sample.times), 0),
                           stats::fmt(stats::median(sample.times) / lb, 1)});
            ++idx;
        }
        table.add_separator();
    }
    table.print(std::cout);
    std::cout << "\nReading: the three diversity mechanisms perform alike (iid randomness\n"
                 "is not magic — coverage of the exponent range is what counts), and a\n"
                 "round-robin assignment is a legitimate derandomization whenever agents\n"
                 "have ids. The fixed exponent is competitive only near the ell its value\n"
                 "happens to match.\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E18", argc, argv, kFlags, run); }
