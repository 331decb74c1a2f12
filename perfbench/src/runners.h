#pragma once

#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

/// Each runner performs set-up, the timed phase and the correctness checks
/// of its workload. Untraced runs report the end-to-end metrics; traced runs
/// report the per-layer metrics of the layers the workload exercises (the
/// rest are filled with 0 by the caller: that layer did no work).
[[nodiscard]] run_report run_mc(const mc_workload& w, const run_args& args);
[[nodiscard]] run_report run_shard(const shard_workload& w, const run_args& args);
[[nodiscard]] run_report run_serve(const run_args& args);

/// Every per-layer metric a traced run prints, with its unit.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Time `fn` over `reps` calls and return nanoseconds per call, keeping
/// the best of `rounds` rounds (the least-disturbed one).
template <class F>
double ns_per_call(std::size_t reps, int rounds, F&& fn) {
    double best = 0.0;
    for (int r = 0; r < rounds; ++r) {
        const auto t0 = clock_type::now();
        for (std::size_t i = 0; i < reps; ++i) fn(i);
        const double ns = seconds_between(t0, clock_type::now()) * 1e9 / static_cast<double>(reps);
        if (r == 0 || ns < best) best = ns;
    }
    return best;
}

/// Keep `value` alive through the optimiser (its computation cannot be
/// dropped as unused).
template <class T>
inline void keep(const T& value) noexcept {
    asm volatile("" : : "g"(&value) : "memory");
}

/// Write the collected spans as a Chrome trace next to the build outputs.
void write_trace(const run_args& args, run_report& report);

}  // namespace perfbench
