// mc_uncapped and mc_random_capped: parallel-search trials through
// sim::monte_carlo_collect + sim::parallel_walk_trial (untraced), and the
// same trials through a benchmark-side replica of walk_engine::run_parallel
// that drives walker_block::spawn/epoch directly (traced), so spawn and
// epoch costs can be timed from outside the engine.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/runners.h"
#include "src/obs/trace.h"
#include "src/rng/jump_distribution.h"
#include "src/rng/splitmix64.h"
#include "src/sim/monte_carlo.h"
#include "src/sim/trial.h"
#include "src/sim/walk_engine.h"

namespace perfbench {

namespace {

using levy::parallel_result;
using levy::rng;

/// Warm-up trials use this fixed seed, so set-up does the same work under
/// every workload seed and setup_s compares across seeds.
constexpr std::uint64_t kWarmupSeed = 0x5e7a9;
constexpr int kSetupReps = 5;
/// Trial latencies are heavy-tailed and each of the 10 windows holds 100-400
/// of them: a window's p99 would rest on 1-4 samples. The tail stops at p90.
constexpr int kTailPercentile = 90;
/// Trials re-run on the scalar oracle per run, chosen by the seed.
constexpr std::size_t kOracleSamples = 4;

struct timed_trial {
    parallel_result result;
    op_sample op;
    bool ran = false;
};

struct mc_context {
    const mc_workload& w;
    std::vector<levy::sim::parallel_walk_config> cfgs;

    explicit mc_context(const mc_workload& workload) : w(workload) {
        for (const search_point& p : w.points) {
            levy::sim::parallel_walk_config cfg;
            cfg.k = p.k;
            cfg.strategy = w.strategy(p);
            cfg.ell = p.ell;
            cfg.budget = p.budget;
            cfg.cap = p.cap;
            cfgs.push_back(std::move(cfg));
        }
    }
    [[nodiscard]] const levy::sim::parallel_walk_config& cfg(std::uint64_t trial) const {
        return cfgs[trial % cfgs.size()];
    }
};

/// Run the first `count` trials of the seed's sequence through
/// monte_carlo_collect in kBatch-sized batches; once `deadline` has passed
/// and `min_ops` trials have run, stop claiming new ones. Returns the
/// trials that ran, in index order.
std::vector<std::pair<std::uint64_t, timed_trial>> run_trials(
    const mc_context& ctx, std::uint64_t seed, std::uint64_t count,
    clock_type::time_point deadline, std::size_t min_ops = 0) {
    std::vector<std::pair<std::uint64_t, timed_trial>> done;
    const auto start = clock_type::now();
    for (std::uint64_t b = 0; b * kBatch < count; ++b) {
        levy::sim::mc_options opts;
        opts.trials = static_cast<std::size_t>(std::min<std::uint64_t>(kBatch, count - b * kBatch));
        opts.threads = ctx.w.workers;
        opts.chunk = 1;
        opts.seed = levy::mix64(seed, b);
        const std::size_t done_before = done.size();
        const auto batch = levy::sim::monte_carlo_collect(opts, [&](std::size_t i, rng& g) {
            timed_trial t;
            const auto t0 = clock_type::now();
            if (t0 >= deadline && done_before >= min_ops) return t;
            t.result = levy::sim::parallel_walk_trial(ctx.cfg(b * kBatch + i), g);
            const auto t1 = clock_type::now();
            t.op = {static_cast<float>(seconds_between(start, t1)),
                    static_cast<float>(seconds_between(t0, t1) * 1e3)};
            t.ran = true;
            return t;
        });
        bool stopped = false;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (batch[i].ran) {
                done.emplace_back(b * kBatch + i, batch[i]);
            } else {
                stopped = true;
            }
        }
        if (stopped || (clock_type::now() >= deadline && done.size() >= min_ops)) break;
    }
    return done;
}

/// Re-run a seed-chosen sample of the trials on the scalar oracle.
void check_oracle(const mc_context& ctx, std::uint64_t seed,
                  const std::vector<std::pair<std::uint64_t, timed_trial>>& done,
                  const run_args& args, run_report& report) {
    rng pick = rng::seeded(levy::mix64(seed, 0x6f7261636c65));
    for (std::size_t s = 0; s < std::min(kOracleSamples, done.size()); ++s) {
        const auto& [j, t] = done[pick.below(done.size())];
        levy::sim::parallel_walk_config cfg = ctx.cfg(j);
        cfg.engine = levy::sim::engine_kind::scalar;
        parallel_result want = levy::sim::parallel_walk_trial(cfg, trial_stream(seed, j));
        if (args.corrupt_expected && s == 0) want.time += 1;
        const std::string diff = diff_results(t.result, want);
        if (!diff.empty()) {
            ++report.failed;
            report.fail(ctx.w.name + " trial " + std::to_string(j) +
                        " differs from the scalar oracle: " + diff);
        }
    }
}

/// Exact per-trial counts and span times of the walker_block driver.
struct driver_stats {
    double trial_s = 0.0;
    double spawn_s = 0.0;
    double epoch_s = 0.0;
    std::uint64_t walkers = 0;
    std::uint64_t epochs = 0;
    std::uint64_t walker_phases = 0;  ///< Σ live walkers over epochs
    std::uint64_t retired = 0;
};

/// Benchmark-side replica of walk_engine::run_parallel: one pooled
/// dist_cache + walker_block per worker thread, reset per trial exactly as
/// the engine does, with each stage timed and counted from outside.
parallel_result drive_trial(const levy::sim::parallel_walk_config& cfg, const rng& stream,
                            driver_stats& st) {
    thread_local levy::sim::dist_cache dists;
    thread_local levy::sim::walker_block block;
    LEVY_SPAN("engine.trial");
    const auto t0 = clock_type::now();
    parallel_result result;
    result.time = cfg.budget;
    {
        LEVY_SPAN("engine.spawn");
        dists.reset(cfg.cap);
        block.clear();
        for (std::size_t i = 0; i < cfg.k; ++i) {
            rng walker = stream.substream(i);
            const double alpha = cfg.strategy(i, walker);
            block.spawn(i, alpha, walker, dists);
        }
    }
    const auto t1 = clock_type::now();
    levy::sim::best_state best;
    {
        LEVY_SPAN("engine.drive");
        const levy::sim::engine_options opts;
        const levy::point target = levy::sim::target_at(cfg.ell);
        while (block.live() > 0) {
            const std::size_t live = block.live();
            const auto e0 = clock_type::now();
            block.epoch(opts, dists, target, cfg.budget, best);
            st.epoch_s += seconds_between(e0, clock_type::now());
            ++st.epochs;
            st.walker_phases += live;
            st.retired += live - block.live();
        }
    }
    if (best.hit) {
        result.hit = true;
        result.time = best.time;
        result.winner = best.winner;
        rng walker = stream.substream(best.winner);
        result.winner_alpha = cfg.strategy(best.winner, walker);
    }
    st.spawn_s += seconds_between(t0, t1);
    st.trial_s += seconds_between(t0, clock_type::now());
    st.walkers += cfg.k;
    return result;
}

/// dist_cache growth per trial, counted on a cache that starts cold for
/// each trial (so the count is exact and schedule-independent): a new
/// entry's index is always the cache's previous size.
double dist_cache_misses_per_trial(const mc_context& ctx, std::uint64_t seed, std::uint64_t n) {
    std::uint64_t misses = 0;
    for (std::uint64_t j = 0; j < n; ++j) {
        const auto& cfg = ctx.cfg(j);
        levy::sim::dist_cache cache;
        cache.reset(cfg.cap);
        std::uint32_t size = 0;
        const rng stream = trial_stream(seed, j);
        for (std::size_t i = 0; i < cfg.k; ++i) {
            rng walker = stream.substream(i);
            if (cache.index_for(cfg.strategy(i, walker)) == size) ++size;
        }
        misses += size;
    }
    return static_cast<double>(misses) / static_cast<double>(n);
}

/// RNG-layer micro-measurements on the workload's own (α, cap) mix.
void rng_layer(const mc_context& ctx, std::uint64_t seed, run_report& report) {
    // The distributions the workload's walkers draw from: the points' α*
    // for fixed exponents, a seed-drawn sample of U(2, 3) otherwise.
    std::vector<std::pair<double, std::uint64_t>> mix;
    rng g = rng::seeded(levy::mix64(seed, 0x6d6978));
    for (std::size_t i = 0; i < (ctx.w.random_exponent ? 64u : ctx.w.points.size()); ++i) {
        const search_point& p = ctx.w.points[i % ctx.w.points.size()];
        mix.emplace_back(ctx.w.random_exponent ? g.uniform(2.0, 3.0) : p.alpha, p.cap);
    }

    const rng base = trial_stream(seed, 0);
    report.add("rng.substream_ns", ns_per_call(1 << 20, 3, [&](std::size_t i) {
                   rng s = base.substream(i);
                   keep(s);
               }),
               "ns");

    std::vector<levy::jump_distribution> dists;
    std::size_t alias = 0;
    for (const auto& [alpha, cap] : mix) {
        alias += dists.emplace_back(alpha, cap).uses_alias(cap);
    }
    report.add("rng.dist_build_us", ns_per_call(mix.size() * 16, 3, [&](std::size_t i) {
                   const levy::jump_distribution d(mix[i % mix.size()].first,
                                                   mix[i % mix.size()].second);
                   keep(d);
               }) / 1e3,
               "us");

    rng draw = rng::seeded(seed);
    constexpr std::size_t kDraws = 1 << 16;
    std::uint64_t sink = 0;
    const double draw_ns = ns_per_call(kDraws * dists.size(), 3, [&](std::size_t i) {
        const std::size_t d = i / kDraws;
        sink += dists[d].sample_capped(draw, mix[d].second);
    });
    keep(sink);
    report.add("rng.jump_draw_ns", draw_ns, "ns");
    report.add("rng.jump_uses_alias",
               static_cast<double>(alias) / static_cast<double>(mix.size()), "fraction");
}

void traced_run(const mc_context& ctx, const run_args& args, run_report& report) {
    const std::uint64_t n = ctx.w.traced_trials;
    const auto never = clock_type::time_point::max();

    // Phase A: the program's own path, untraced, for the reference digest,
    // the pool's utilisation and the untraced throughput.
    levy::sim::reset_metrics();
    const auto a0 = clock_type::now();
    const auto done = run_trials(ctx, args.seed, n, never);
    const double a_s = seconds_between(a0, clock_type::now());
    const levy::sim::run_metrics pool = levy::sim::metrics_snapshot();
    report.attempted += done.size();

    // Phase B: the same trials through the traced walker_block driver.
    std::vector<parallel_result> replay(n);
    std::vector<driver_stats> stats(n);
    levy::obs::start_span_collection();
    const auto b0 = clock_type::now();
    levy::sim::parallel_for(
        n, ctx.w.workers,
        [&](std::size_t j) { replay[j] = drive_trial(ctx.cfg(j), trial_stream(args.seed, j), stats[j]); },
        1);
    const double b_s = seconds_between(b0, clock_type::now());
    levy::obs::stop_span_collection();

    trial_digest program;
    trial_digest driver;
    for (std::uint64_t j = 0; j < n; ++j) {
        program.add(j, done[j].second.result);
        parallel_result want = replay[j];
        if (args.corrupt_expected && j == 0) want.winner ^= 1;
        driver.add(j, want);
        if (const std::string diff = diff_results(done[j].second.result, want); !diff.empty()) {
            ++report.failed;
            report.fail(ctx.w.name + " trial " + std::to_string(j) +
                        " differs from the walker_block driver: " + diff);
        }
    }
    if (program.value() != driver.value()) {
        report.fail(ctx.w.name + ": digest " + std::to_string(program.value()) +
                    " != walker_block driver digest " + std::to_string(driver.value()));
    }
    check_oracle(ctx, args.seed, done, args, report);

    driver_stats sum;
    for (const driver_stats& s : stats) {
        sum.trial_s += s.trial_s;
        sum.spawn_s += s.spawn_s;
        sum.epoch_s += s.epoch_s;
        sum.walkers += s.walkers;
        sum.epochs += s.epochs;
        sum.walker_phases += s.walker_phases;
        sum.retired += s.retired;
    }
    const auto per_trial = [n](double v) { return v / static_cast<double>(n); };
    report.add("engine.spawn_ns_per_walker", sum.spawn_s * 1e9 / static_cast<double>(sum.walkers), "ns");
    report.add("engine.spawn_share", sum.spawn_s / sum.trial_s, "fraction");
    report.add("engine.dist_cache_misses_per_trial", dist_cache_misses_per_trial(ctx, args.seed, n),
               "count");
    report.add("engine.epochs_per_trial", per_trial(static_cast<double>(sum.epochs)), "count");
    report.add("engine.walker_phases_per_trial", per_trial(static_cast<double>(sum.walker_phases)),
               "count");
    report.add("engine.retired_per_epoch",
               static_cast<double>(sum.retired) / static_cast<double>(sum.epochs), "count");
    report.add("engine.ns_per_walker_phase",
               sum.epoch_s * 1e9 / static_cast<double>(sum.walker_phases), "ns");
    report.add("engine.epoch_share", sum.epoch_s / sum.trial_s, "fraction");
    report.add("pool.utilization", pool.utilization(), "fraction");
    report.add("trace.overhead_ratio", a_s / b_s, "ratio");
    rng_layer(ctx, args.seed, report);
    write_trace(args, report);
}

}  // namespace

run_report run_mc(const mc_workload& w, const run_args& args) {
    const mc_context ctx(w);
    run_report report;
    const auto never = clock_type::time_point::max();

    // Set-up: start the pool, build each worker's jump distributions and
    // grow its SoA buffers by running a fixed batch of warm-up trials over
    // every parameter point. Repeated; the median is reported.
    std::vector<double> setup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto s0 = clock_type::now();
        const auto warm = run_trials(ctx, kWarmupSeed, w.warmup_trials, never);
        keep(warm);
        setup.push_back(seconds_between(s0, clock_type::now()));
    }

    if (args.trace) {
        traced_run(ctx, args, report);
        return report;
    }

    const auto done = run_trials(ctx, args.seed, ~std::uint64_t{0} / 2,
                                 deadline_after(args.seconds), min_run_ops(kTailPercentile));
    const double rss = peak_rss_mib();
    report.attempted = done.size();
    check_oracle(ctx, args.seed, done, args, report);

    std::vector<op_sample> ops;
    ops.reserve(done.size());
    for (const auto& d : done) ops.push_back(d.second.op);
    add_end_to_end(report, setup, std::move(ops), rss, kTailPercentile);
    return report;
}

}  // namespace perfbench
