// Tests of the benchmark's own logic: percentiles and the ten-beyond rule,
// the trial digest, the seed-purity of the generated workloads, and the
// failure tally behind error_rate.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/workloads.h"
#include "src/rng/splitmix64.h"
#include "src/sim/monte_carlo.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
    std::vector<double> v;
    for (int i = 1; i <= n; ++i) v.push_back(i);
    return v;
}

TEST(Percentile, NearestRankPicksTheCeilRank) {
    const std::vector<double> v = one_to(10);
    EXPECT_EQ(nearest_rank(v, 50), 5);
    EXPECT_EQ(nearest_rank(v, 51), 6);
    EXPECT_EQ(nearest_rank(v, 90), 9);
    EXPECT_EQ(nearest_rank(v, 91), 10);
    EXPECT_EQ(nearest_rank(v, 100), 10);
    EXPECT_EQ(nearest_rank(one_to(1000), 99), 990);
    EXPECT_THROW((void)nearest_rank({}, 50), std::invalid_argument);
    EXPECT_THROW((void)nearest_rank(v, 0), std::invalid_argument);
}

TEST(Percentile, TenBeyondRule) {
    EXPECT_EQ(samples_beyond(100, 90), 10U);
    EXPECT_TRUE(percentile_supported(100, 90));
    EXPECT_FALSE(percentile_supported(99, 90));
    EXPECT_TRUE(percentile_supported(1000, 99));
    EXPECT_FALSE(percentile_supported(999, 99));
    EXPECT_FALSE(percentile_supported(0, 50));
    EXPECT_EQ(min_ops_for(90), 100U);
    EXPECT_EQ(min_ops_for(99), 1000U);
    for (const int q : {50, 90, 99}) EXPECT_TRUE(percentile_supported(min_ops_for(q), q));
}

/// n ops finishing every 10 ms; window w's latencies run 1..100 ms.
std::vector<op_sample> steady_ops(std::size_t n) {
    std::vector<op_sample> ops;
    for (std::size_t i = 0; i < n; ++i) {
        ops.push_back({0.01F * static_cast<float>(i + 1), static_cast<float>(i % 100 + 1)});
    }
    return ops;
}

TEST(Percentile, WindowedMediansAndTheRunMinimum) {
    run_report ok;
    ok.attempted = 1000;
    add_end_to_end(ok, {0.2, 0.1, 0.3}, steady_ops(1000), 5.0, 90);
    EXPECT_TRUE(ok.correct());
    ASSERT_EQ(ok.metrics.size(), 7U);
    EXPECT_EQ(ok.metrics[0].name, "setup_s");
    EXPECT_DOUBLE_EQ(ok.metrics[0].value, 0.2);  // median of the repetitions
    EXPECT_NEAR(ok.metrics[1].value, 100.0, 1e-3);  // 100 ops per 1 s window
    EXPECT_DOUBLE_EQ(ok.metrics[2].value, 50.0);
    EXPECT_DOUBLE_EQ(ok.metrics[3].value, 90.0);
    EXPECT_EQ(ok.metrics[4].name, "op_tail_ms");
    EXPECT_DOUBLE_EQ(ok.metrics[4].value, 90.0);
    EXPECT_DOUBLE_EQ(ok.metrics[6].value, 1.0);  // success_rate

    // A burst that slows two windows 10x moves no median.
    std::vector<op_sample> burst = steady_ops(1000);
    for (std::size_t i = 300; i < 1000; ++i) {
        burst[i].end_s += i < 500 ? 0.09F * static_cast<float>(i - 299) : 18.0F;
        if (i < 500) burst[i].ms *= 10;
    }
    run_report slowed;
    slowed.attempted = 1000;
    add_end_to_end(slowed, {0.2}, burst, 5.0, 90);
    EXPECT_NEAR(slowed.metrics[1].value, 100.0, 1e-3);
    EXPECT_DOUBLE_EQ(slowed.metrics[2].value, 50.0);
    EXPECT_DOUBLE_EQ(slowed.metrics[3].value, 90.0);

    // 999 ops leave a window of 99: its p90 has 9 samples beyond.
    run_report short_run;
    short_run.attempted = 999;
    add_end_to_end(short_run, {0.1}, steady_ops(999), 5.0, 90);
    EXPECT_FALSE(short_run.correct());
    EXPECT_EQ(min_run_ops(90), 1000U);
    EXPECT_EQ(min_run_ops(99), 10000U);
}

TEST(Digest, CatchesASingleFlippedResult) {
    std::vector<levy::parallel_result> results(64);
    for (std::size_t i = 0; i < results.size(); ++i) {
        results[i].hit = i % 3 != 0;
        results[i].time = 1000 + 17 * i;
        results[i].winner = results[i].hit ? i % 5 : levy::parallel_result::kNoWinner;
        results[i].winner_alpha = results[i].hit ? 2.0 + 0.01 * static_cast<double>(i)
                                                 : std::numeric_limits<double>::quiet_NaN();
    }
    const auto digest = [](const std::vector<levy::parallel_result>& rs) {
        trial_digest d;
        for (std::size_t i = 0; i < rs.size(); ++i) d.add(i, rs[i]);
        return d.value();
    };
    const std::uint64_t base = digest(results);
    EXPECT_EQ(digest(results), base);
    for (int field = 0; field < 4; ++field) {
        auto flipped = results;
        levy::parallel_result& r = flipped[37];
        switch (field) {
            case 0: r.hit = !r.hit; break;
            case 1: r.time += 1; break;
            case 2: r.winner ^= 1; break;
            case 3:
                r.winner_alpha = std::bit_cast<double>(std::bit_cast<std::uint64_t>(r.winner_alpha) ^ 1);
                break;
        }
        EXPECT_NE(digest(flipped), base) << "field " << field;
        EXPECT_FALSE(diff_results(flipped[37], results[37]).empty()) << "field " << field;
    }
    auto swapped = results;
    std::swap(swapped[3], swapped[4]);
    EXPECT_NE(digest(swapped), base);
    EXPECT_TRUE(diff_results(results[0], results[0]).empty());  // NaN alpha equals itself
}

TEST(Workloads, ServePlanIsAPureFunctionOfTheSeed) {
    const serve_plan a = make_serve_plan(7);
    const serve_plan b = make_serve_plan(7);
    const serve_plan c = make_serve_plan(8);
    EXPECT_EQ(a.warm_paths, b.warm_paths);
    EXPECT_EQ(a.warm_paths, c.warm_paths);  // set-up is seed-independent by design
    for (std::size_t k = 0; k < kRequestClasses; ++k) {
        EXPECT_FALSE(a.pools[k].empty());
        EXPECT_EQ(a.pools[k], b.pools[k]);
        EXPECT_NE(a.pools[k], c.pools[k]);
    }
    std::size_t same = 0;
    std::size_t per_class[kRequestClasses] = {};
    for (std::uint64_t i = 0; i < 4000; ++i) {
        const request_ref x = request_at(a, 7, i);
        const request_ref y = request_at(b, 7, i);
        const request_ref z = request_at(c, 8, i);
        EXPECT_EQ(x.cls, y.cls);
        EXPECT_EQ(x.pool_index, y.pool_index);
        same += x.cls == z.cls && x.pool_index == z.pool_index;
        ++per_class[static_cast<std::size_t>(x.cls)];
    }
    EXPECT_LT(same, 100U);
    for (const std::size_t n : per_class) EXPECT_NEAR(static_cast<double>(n), 1000.0, 150.0);
}

TEST(Workloads, TrialStreamsArePureAndMatchTheMonteCarloBatches) {
    EXPECT_EQ(trial_stream(5, 77).seed(), trial_stream(5, 77).seed());
    EXPECT_NE(trial_stream(5, 77).seed(), trial_stream(6, 77).seed());
    EXPECT_NE(trial_stream(5, 77).seed(), trial_stream(5, 78).seed());
    // Batch b of the timed phase runs monte_carlo_collect under seed
    // mix64(seed, b); trial j must see exactly trial_stream(seed, j).
    const std::uint64_t seed = 99;
    const std::uint64_t b = 3;
    levy::sim::mc_options opts;
    opts.trials = kBatch;
    opts.threads = 1;
    opts.seed = levy::mix64(seed, b);
    const auto seen = levy::sim::monte_carlo_collect(
        opts, [](std::size_t, levy::rng& g) { return g.seed(); });
    for (std::size_t i = 0; i < kBatch; ++i) {
        EXPECT_EQ(seen[i], trial_stream(seed, b * kBatch + i).seed());
    }
}

TEST(ErrorRate, CountsShedsTransportErrorsNon200AndWrongBodies) {
    op_tally t;
    t.count({200, std::string("right")}, "right");
    t.count({200, std::string("wrong")}, "right");
    t.count({503, std::string("shed")}, "right");
    t.count({500, std::string("boom")}, "right");
    t.count({404, std::string("nope")}, "right");
    t.count({0, std::nullopt}, "right");
    t.count({200, std::nullopt}, "right");  // status but torn body: transport
    EXPECT_EQ(t.attempted, 7U);
    EXPECT_EQ(t.ok, 1U);
    EXPECT_EQ(t.wrong, 1U);
    EXPECT_EQ(t.shed, 1U);
    EXPECT_EQ(t.non_200, 2U);
    EXPECT_EQ(t.transport, 2U);
    EXPECT_EQ(t.failed(), 6U);
    EXPECT_DOUBLE_EQ(t.error_rate(), 6.0 / 7.0);

    op_tally u;
    u.count({200, std::string("right")}, "right");
    u.merge(t);
    EXPECT_EQ(u.attempted, 8U);
    EXPECT_EQ(u.failed(), 6U);
    EXPECT_DOUBLE_EQ(op_tally{}.error_rate(), 0.0);
}

}  // namespace
}  // namespace perfbench
