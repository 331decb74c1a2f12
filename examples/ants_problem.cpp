// ANTS problem demo: one instance, several search strategies, side by side.
//
// The Ants-Nearby-Treasure-Search setting of Feinerman & Korman [14]:
// k agents, no communication, no advice (b = 0). The paper's contribution
// is that "every agent runs a Lévy walk with a random exponent" solves this
// uniformly. This example runs one concrete instance so you can watch the
// outcome per strategy; bench_e9 does the statistically careful version.
//
//   $ ./examples/ants_problem [--seed=X]

#include <iostream>

#include "src/baselines/ballistic_walk.h"
#include "src/baselines/fk_ants.h"
#include "src/baselines/simple_random_walk.h"
#include "src/core/parallel_search.h"
#include "src/core/strategy.h"
#include "src/sim/experiment.h"
#include "src/stats/table.h"

namespace {

using namespace levy;

template <class Factory>
hit_result fleet_search(std::size_t k, point target, std::uint64_t budget, rng stream,
                        Factory&& make) {
    hit_result best{false, budget};
    for (std::size_t i = 0; i < k; ++i) {
        rng walk_stream = stream.substream(i);
        auto agent = make(i, walk_stream);
        const auto r = hit_within(agent, point_target{target}, best.hit ? best.time - 1 : budget);
        if (r.hit) best = r;
    }
    return best;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const auto opts = sim::parse_run_options(argc, argv, sim::group::monte_carlo);
        const std::size_t k = 32;
        const point treasure{-70, 35};  // ell = 105; nobody is told this
        const std::uint64_t budget = 300000;
        const rng master = rng::seeded(opts.seed);

        std::cout << "ANTS instance: k = " << k << " agents, treasure at " << treasure
                  << " (ell = " << l1_norm(treasure) << "), budget " << budget << " steps.\n\n";

        stats::text_table table({"strategy", "found?", "parallel time"});
        const auto report = [&](const char* name, hit_result r) {
            table.add_row({name, r.hit ? "yes" : "no",
                           r.hit ? stats::fmt(r.time) : std::string("-")});
        };

        {
            const auto r =
                parallel_hit(k, uniform_exponent(), treasure, budget, master.substream(1));
            report("Levy walks, alpha ~ U(2,3)", {r.hit, r.time});
        }
        {
            const auto r = parallel_hit(k, fixed_exponent(2.0), treasure, budget,
                                        master.substream(2));
            report("Levy walks, all alpha = 2 (Cauchy)", {r.hit, r.time});
        }
        {
            const auto r = parallel_hit(k, fixed_exponent(3.0), treasure, budget,
                                        master.substream(3));
            report("Levy walks, all alpha = 3", {r.hit, r.time});
        }
        report("k simple random walks",
               fleet_search(k, treasure, budget, master.substream(4),
                            [](std::size_t, rng s) { return baselines::simple_random_walk(s); }));
        report("k ballistic walks",
               fleet_search(k, treasure, budget, master.substream(5),
                            [](std::size_t, rng s) { return baselines::ballistic_walk(s); }));
        report("Feinerman-Korman (knows k)",
               fleet_search(k, treasure, budget, master.substream(6),
                            [&](std::size_t, rng s) { return baselines::fk_ants_searcher(k, s); }));
        table.print(std::cout);
        std::cout << "\nRe-run with --seed=<n> for another instance; aggregate behavior is\n"
                     "measured by bench_e9_ants_baselines.\n";
        return 0;
    } catch (const std::exception& e) {
        return cli::exit_status("ants_problem", e);
    }
}
