#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/monte_carlo.h"

namespace levy::obs {
namespace {

class MetricsTest : public ::testing::Test {
protected:
    void SetUp() override { reset_metrics_registry(); }
};

TEST_F(MetricsTest, CounterAccumulates) {
    const counter c = get_counter("test.counter");
    c.add();
    c.add(41);
    const metrics_view v = snapshot_metrics();
    EXPECT_EQ(v.counters.at("test.counter"), 42u);
}

TEST_F(MetricsTest, ReRegisteringReturnsSameSlot) {
    get_counter("test.same").add(1);
    get_counter("test.same").add(2);
    EXPECT_EQ(snapshot_metrics().counters.at("test.same"), 3u);
}

TEST_F(MetricsTest, GaugeLastWriteWins) {
    set_gauge("test.gauge", 1.5);
    set_gauge("test.gauge", 2.5);
    EXPECT_DOUBLE_EQ(snapshot_metrics().gauges.at("test.gauge"), 2.5);
}

TEST_F(MetricsTest, LinearHistogramLayout) {
    const histogram_spec spec{histogram_spec::scale::linear, 0.0, 10.0, 5};
    const histogram_metric h = get_histogram("test.linear", spec);
    h.observe(-1.0);  // underflow
    h.observe(0.0);   // bin 0
    h.observe(9.99);  // bin 4
    h.observe(10.0);  // top edge: overflow (half-open bins)
    h.observe(25.0);  // overflow
    const histogram_snapshot s = snapshot_metrics().histograms.at("test.linear");
    ASSERT_EQ(s.buckets.size(), 7u);  // underflow + 5 + overflow
    EXPECT_EQ(s.buckets.front(), 1u);
    EXPECT_EQ(s.buckets[1], 1u);
    EXPECT_EQ(s.buckets[5], 1u);
    EXPECT_EQ(s.buckets.back(), 2u);
    EXPECT_EQ(s.total(), 5u);
}

TEST_F(MetricsTest, Log2HistogramLayout) {
    const histogram_metric h = get_histogram("test.log2", {});
    h.observe_u64(0);     // zeros slot
    h.observe_u64(1);     // bit_width 1
    h.observe_u64(1024);  // bit_width 11
    h.observe_u64(std::uint64_t{1} << 63);  // bit_width 64: top slot
    const histogram_snapshot s = snapshot_metrics().histograms.at("test.log2");
    ASSERT_EQ(s.buckets.size(), 65u);
    EXPECT_EQ(s.buckets[0], 1u);
    EXPECT_EQ(s.buckets[1], 1u);
    EXPECT_EQ(s.buckets[11], 1u);
    EXPECT_EQ(s.buckets[64], 1u);
    EXPECT_EQ(s.total(), 4u);
}

TEST_F(MetricsTest, NameCollisionAcrossKindsThrows) {
    (void)get_counter("test.collision");
    EXPECT_THROW((void)get_histogram("test.collision", {}), std::exception);
    (void)get_histogram("test.hist_collision", {});
    EXPECT_THROW((void)get_counter("test.hist_collision"), std::exception);
}

TEST_F(MetricsTest, HistogramSpecMismatchThrows) {
    const histogram_spec a{histogram_spec::scale::linear, 0.0, 1.0, 4};
    const histogram_spec b{histogram_spec::scale::linear, 0.0, 1.0, 8};
    (void)get_histogram("test.spec", a);
    EXPECT_THROW((void)get_histogram("test.spec", b), std::exception);
    (void)get_histogram("test.spec", a);  // identical spec is fine
}

TEST_F(MetricsTest, ResetZeroesCountsButKeepsHandles) {
    const counter c = get_counter("test.reset");
    c.add(7);
    reset_metrics_registry();
    EXPECT_EQ(snapshot_metrics().counters.at("test.reset"), 0u);
    c.add(1);  // handle minted before the reset still works
    EXPECT_EQ(snapshot_metrics().counters.at("test.reset"), 1u);
}

// The determinism contract: concurrent relaxed increments on per-thread
// shards must merge to the exact total for any thread count / schedule.
// Run under TSan this also proves the hot path is race-free.
TEST_F(MetricsTest, ConcurrentIncrementsMergeExactly) {
    const counter c = get_counter("test.concurrent");
    const histogram_metric h =
        get_histogram("test.concurrent_hist", {histogram_spec::scale::linear, 0.0, 64.0, 8});
    constexpr std::size_t kItems = 19968;  // divisible by 64: i%64 fills bins evenly
    for (int round = 0; round < 2; ++round) {
        reset_metrics_registry();
        sim::parallel_for(kItems, /*threads=*/4, [&](std::size_t i) {
            c.add(2);
            h.observe(static_cast<double>(i % 64));
        });
        const metrics_view v = snapshot_metrics();
        EXPECT_EQ(v.counters.at("test.concurrent"), 2 * kItems);
        EXPECT_EQ(v.histograms.at("test.concurrent_hist").total(), kItems);
        // Bucketwise determinism, not just the total: i%64 spreads items
        // uniformly over the 8 in-range bins.
        for (std::size_t b = 1; b <= 8; ++b) {
            EXPECT_EQ(v.histograms.at("test.concurrent_hist").buckets[b], kItems / 8);
        }
    }
}

// value() is the one-slot read behind stats views: it must agree with a
// full snapshot, and reading while pool workers increment must be
// race-free (TSan).
TEST_F(MetricsTest, CounterValueSumsEveryShard) {
    const counter c = get_counter("test.value");
    EXPECT_EQ(c.value(), 0u);
    sim::parallel_for(4096, /*threads=*/4, [&](std::size_t i) {
        c.add(3);
        if (i % 512 == 0) {
            EXPECT_LE(c.value(), 3u * 4096);  // a read racing the increments
        }
    });
    EXPECT_EQ(c.value(), 3u * 4096);
    EXPECT_EQ(c.value(), snapshot_metrics().counters.at("test.value"));
}

TEST_F(MetricsTest, RaisedGaugeOnlyRises) {
    EXPECT_DOUBLE_EQ(raise_gauge("test.high", 3.0), 3.0);
    EXPECT_DOUBLE_EQ(raise_gauge("test.high", 1.0), 3.0);  // lower: ignored
    EXPECT_DOUBLE_EQ(raise_gauge("test.high", 0.0), 3.0);  // the read idiom
    EXPECT_DOUBLE_EQ(raise_gauge("test.high", 5.0), 5.0);
    EXPECT_DOUBLE_EQ(snapshot_metrics().gauges.at("test.high"), 5.0);
    reset_metrics_registry();
    EXPECT_DOUBLE_EQ(raise_gauge("test.high", 0.0), 0.0);
}

// The run totals behind the throughput line are registry metrics, so
// /metrics and --json carry them without a second bookkeeping path.
TEST_F(MetricsTest, RunTotalsAreRegistryMetrics) {
    sim::parallel_for(100, /*threads=*/2, [](std::size_t) {});
    sim::parallel_for(20, /*threads=*/1, [](std::size_t) {});
    const sim::run_metrics run = sim::metrics_snapshot();
    const metrics_view v = snapshot_metrics();
    EXPECT_EQ(run.trials, 120u);
    EXPECT_EQ(v.counters.at("run.trials"), run.trials);
    EXPECT_EQ(v.counters.at("run.censored"), run.censored);
    EXPECT_DOUBLE_EQ(static_cast<double>(v.counters.at("run.busy_ns")) * 1e-9,
                     run.busy_seconds);
    EXPECT_DOUBLE_EQ(v.gauges.at("run.max_workers"), run.max_workers);
    EXPECT_GE(run.max_workers, 1u);
    sim::reset_metrics();
    EXPECT_EQ(sim::metrics_snapshot().trials, 0u);
}

TEST_F(MetricsTest, EmptyNameThrows) {
    EXPECT_THROW((void)get_counter(""), std::exception);
    EXPECT_THROW((void)get_histogram("", {}), std::exception);
    EXPECT_THROW(set_gauge("", 0.0), std::exception);
    EXPECT_THROW((void)raise_gauge("", 0.0), std::exception);
}

}  // namespace
}  // namespace levy::obs
