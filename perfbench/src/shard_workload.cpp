// shard_spill: out-of-core trials through sharded_walk_engine::run_parallel
// under a resident budget of 1/8 of the swarm, so every round spills, loads
// and fsyncs shard files through the checkpoint layer. Every trial is
// checked against the in-memory walk_engine::run_parallel.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "perfbench/src/runners.h"
#include "src/obs/trace.h"
#include "src/sim/checkpoint.h"
#include "src/sim/monte_carlo.h"
#include "src/sim/shard_engine.h"
#include "src/sim/trial.h"
#include "src/sim/walk_engine.h"

namespace perfbench {

namespace {

using levy::parallel_result;
using levy::rng;

constexpr std::uint64_t kWarmupSeed = 0x5e7a9;
constexpr int kSetupReps = 5;
/// As for the mc workloads: windows of 100-150 heavy-tailed trials support
/// p90, not p99.
constexpr int kTailPercentile = 90;

/// Removes the run's spill directory however the run ends.
struct spill_dir_guard {
    std::string path;
    explicit spill_dir_guard(std::string p) : path(std::move(p)) {
        std::filesystem::create_directories(path);
    }
    spill_dir_guard(const spill_dir_guard&) = delete;
    spill_dir_guard& operator=(const spill_dir_guard&) = delete;
    ~spill_dir_guard() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

struct shard_context {
    const shard_workload& w;
    levy::exponent_strategy strategy;
    levy::point target;
    levy::sim::shard_options opts;

    shard_context(const shard_workload& workload, const std::string& spill_dir)
        : w(workload),
          strategy(levy::fixed_exponent(workload.point.alpha)),
          target(levy::sim::target_at(workload.point.ell)) {
        opts.memory_budget = w.memory_budget;
        opts.epoch_steps = w.epoch_steps;
        opts.sync_rounds = w.sync_rounds;
        opts.spill_dir = spill_dir;
    }

    parallel_result sharded(levy::sim::sharded_walk_engine& engine, const rng& stream) const {
        return engine.run_parallel(w.point.k, strategy, target, w.point.budget, stream,
                                   w.point.cap, opts);
    }
    parallel_result in_memory(levy::sim::walk_engine& engine, const rng& stream) const {
        return engine.run_parallel(w.point.k, strategy, target, w.point.budget, stream,
                                   w.point.cap);
    }
};

/// Each trial must equal the in-memory engine's answer. Untimed checks
/// spread over `threads` pool workers; the traced run times a 1-thread check
/// as the in-memory baseline of shard.overhead_ratio.
void check_in_memory(const shard_context& ctx, std::uint64_t seed,
                     const std::vector<parallel_result>& got, const run_args& args,
                     run_report& report, unsigned threads, double* in_memory_s = nullptr) {
    std::vector<parallel_result> want(got.size());
    const auto t0 = clock_type::now();
    levy::sim::parallel_for(got.size(), threads, [&](std::size_t j) {
        LEVY_SPAN("shard.in_memory_trial");
        want[j] = ctx.in_memory(levy::sim::walk_engine::local(), trial_stream(seed, j));
    });
    if (in_memory_s != nullptr) *in_memory_s = seconds_between(t0, clock_type::now());
    if (args.corrupt_expected && !want.empty()) want[0].hit = !want[0].hit;
    for (std::size_t j = 0; j < got.size(); ++j) {
        if (const std::string diff = diff_results(got[j], want[j]); !diff.empty()) {
            ++report.failed;
            report.fail("shard_spill trial " + std::to_string(j) +
                        " differs from walk_engine::run_parallel: " + diff);
        }
    }
}

/// Checkpoint-layer micro-measurements on one shard-sized block.
struct io_costs {
    double serialize_ns_per_walker = 0.0;
    double deserialize_ns_per_walker = 0.0;
    double write_ms = 0.0;  ///< atomic_write_file: tmp + fsync + rename + dir fsync
    double read_ms = 0.0;
};

io_costs measure_io(const shard_context& ctx, std::uint64_t seed, const std::string& dir,
                    run_report& report) {
    const std::size_t walkers =
        std::max<std::size_t>(1, ctx.w.memory_budget / levy::sim::walker_block::kBytesPerWalker);
    levy::sim::dist_cache dists;
    dists.reset(ctx.w.point.cap);
    levy::sim::walker_block block;
    const rng stream = trial_stream(seed, 0);
    for (std::size_t i = 0; i < walkers; ++i) {
        rng walker = stream.substream(i);
        block.spawn(i, ctx.strategy(i, walker), walker, dists);
    }
    // One quantum in, so walkers carry mid-phase residues like real spills.
    levy::sim::best_state best;
    block.epoch(levy::sim::engine_options{ctx.w.epoch_steps}, dists, ctx.target,
                ctx.w.point.budget, best);
    const std::size_t live = std::max<std::size_t>(1, block.live());

    io_costs c;
    std::vector<char> bytes;
    c.serialize_ns_per_walker = ns_per_call(16, 3, [&](std::size_t) {
                                    bytes.clear();
                                    block.serialize(dists, bytes);
                                }) /
                                static_cast<double>(live);
    levy::sim::walker_block restored;
    c.deserialize_ns_per_walker =
        ns_per_call(16, 3, [&](std::size_t) {
            if (!restored.deserialize(bytes.data(), live, dists)) {
                report.fail("walker_block::deserialize rejected its own serialization");
            }
        }) /
        static_cast<double>(live);

    const std::string path = dir + "/io-probe.bin";
    std::vector<double> writes;
    std::vector<double> reads;
    for (int i = 0; i < 16; ++i) {
        const auto t0 = clock_type::now();
        levy::sim::atomic_write_file(path, bytes);
        const auto t1 = clock_type::now();
        std::ifstream in(path, std::ios::binary);
        const std::vector<char> back((std::istreambuf_iterator<char>(in)),
                                     std::istreambuf_iterator<char>());
        const auto t2 = clock_type::now();
        if (back != bytes) report.fail("atomic_write_file read-back differs");
        writes.push_back(seconds_between(t0, t1) * 1e3);
        reads.push_back(seconds_between(t1, t2) * 1e3);
    }
    c.write_ms = median(writes);
    c.read_ms = median(reads);

    const double kib = static_cast<double>(bytes.size()) / 1024.0;
    std::uint32_t crc = 0;
    report.add("checkpoint.crc_ns_per_kib", ns_per_call(64, 3, [&](std::size_t) {
                   crc ^= levy::sim::crc32(bytes.data(), bytes.size());
               }) / kib,
               "ns");
    keep(crc);
    report.add("shard.serialize_ns_per_walker", c.serialize_ns_per_walker, "ns");
    report.add("shard.deserialize_ns_per_walker", c.deserialize_ns_per_walker, "ns");
    report.add("checkpoint.atomic_write_ms", c.write_ms, "ms");
    return c;
}

void traced_run(const shard_context& ctx, const run_args& args, const std::string& dir,
                run_report& report) {
    const std::size_t n = ctx.w.traced_trials;
    levy::sim::sharded_walk_engine engine;

    // Untraced pass first (the trace-overhead baseline), then the traced one.
    const auto a0 = clock_type::now();
    for (std::size_t j = 0; j < n; ++j) (void)ctx.sharded(engine, trial_stream(args.seed, j));
    const double untraced_s = seconds_between(a0, clock_type::now());

    levy::obs::start_span_collection();
    std::vector<parallel_result> got;
    levy::sim::shard_run_stats sum;
    const auto b0 = clock_type::now();
    for (std::size_t j = 0; j < n; ++j) {
        LEVY_SPAN("shard.trial");
        got.push_back(ctx.sharded(engine, trial_stream(args.seed, j)));
        const levy::sim::shard_run_stats& s = engine.last_stats();
        sum.rounds += s.rounds;
        sum.spills += s.spills;
        sum.spilled_bytes += s.spilled_bytes;
        sum.loads += s.loads;
        sum.recomputed += s.recomputed;
        sum.peak_resident_bytes = std::max(sum.peak_resident_bytes, s.peak_resident_bytes);
    }
    const double sharded_s = seconds_between(b0, clock_type::now());
    double in_memory_s = 0.0;
    check_in_memory(ctx, args.seed, got, args, report, 1, &in_memory_s);
    levy::obs::stop_span_collection();
    report.attempted += n;
    if (sum.recomputed != 0) {
        report.fail("shard_spill recomputed " + std::to_string(sum.recomputed) +
                    " shards: a spill file failed validation");
    }

    const io_costs io = measure_io(ctx, args.seed, dir, report);
    const auto per_trial = [n](double v) { return v / static_cast<double>(n); };
    constexpr double kMiB = 1024.0 * 1024.0;
    report.add("shard.rounds_per_trial", per_trial(static_cast<double>(sum.rounds)), "count");
    report.add("shard.spills_per_trial", per_trial(static_cast<double>(sum.spills)), "count");
    report.add("shard.loads_per_trial", per_trial(static_cast<double>(sum.loads)), "count");
    report.add("shard.spill_mib_per_trial",
               per_trial(static_cast<double>(sum.spilled_bytes)) / kMiB, "MiB");
    report.add("shard.peak_resident_mib", static_cast<double>(sum.peak_resident_bytes) / kMiB,
               "MiB");
    report.add("shard.overhead_ratio", sharded_s / in_memory_s, "ratio");
    // Computed, not traced: spills × (serialize + write) + loads × (read +
    // deserialize), from the probe costs above, over the sharded time.
    const double walkers_per_shard = static_cast<double>(
        std::max<std::uint64_t>(1, ctx.w.memory_budget / levy::sim::walker_block::kBytesPerWalker));
    const double spill_s = io.serialize_ns_per_walker * walkers_per_shard * 1e-9 + io.write_ms * 1e-3;
    const double load_s = io.deserialize_ns_per_walker * walkers_per_shard * 1e-9 + io.read_ms * 1e-3;
    report.add("shard.io_share",
               (static_cast<double>(sum.spills) * spill_s + static_cast<double>(sum.loads) * load_s) /
                   sharded_s,
               "fraction");
    report.add("trace.overhead_ratio", untraced_s / sharded_s, "ratio");

    // The layer below: the walker_block driver is the mc workloads' job;
    // here only the RNG mix the shards draw from is characterised.
    const levy::jump_distribution dist(ctx.w.point.alpha, ctx.w.point.cap);
    rng g = rng::seeded(args.seed);
    std::uint64_t sink = 0;
    report.add("rng.jump_draw_ns", ns_per_call(1 << 20, 3, [&](std::size_t) {
                   sink += dist.sample_capped(g, ctx.w.point.cap);
               }),
               "ns");
    keep(sink);
    report.add("rng.jump_uses_alias", dist.uses_alias(ctx.w.point.cap) ? 1.0 : 0.0, "fraction");
    write_trace(args, report);
}

}  // namespace

run_report run_shard(const shard_workload& w, const run_args& args) {
    const spill_dir_guard dir(args.out_dir + "/spill-" + std::to_string(::getpid()));
    const shard_context ctx(w, dir.path);
    run_report report;
    levy::sim::sharded_walk_engine engine;

    // Set-up: size the engine's shard blocks and distribution cache and
    // exercise the spill path with a fixed batch of warm-up trials.
    std::vector<double> setup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto s0 = clock_type::now();
        for (std::uint64_t j = 0; j < w.warmup_trials; ++j) keep(ctx.sharded(engine, trial_stream(kWarmupSeed, j)));
        setup.push_back(seconds_between(s0, clock_type::now()));
    }

    if (args.trace) {
        traced_run(ctx, args, dir.path, report);
        return report;
    }

    std::vector<parallel_result> got;
    std::vector<op_sample> ops;
    const auto t0 = clock_type::now();
    const auto deadline = deadline_after(args.seconds);
    for (std::uint64_t j = 0; got.size() < min_run_ops(kTailPercentile) || clock_type::now() < deadline; ++j) {
        const auto s = clock_type::now();
        got.push_back(ctx.sharded(engine, trial_stream(args.seed, j)));
        const auto e = clock_type::now();
        ops.push_back({static_cast<float>(seconds_between(t0, e)),
                       static_cast<float>(seconds_between(s, e) * 1e3)});
    }
    const double rss = peak_rss_mib();  // before the in-memory check grows the heap
    report.attempted = got.size();
    check_in_memory(ctx, args.seed, got, args, report, 3);
    add_end_to_end(report, setup, std::move(ops), rss, kTailPercentile);
    return report;
}

}  // namespace perfbench
