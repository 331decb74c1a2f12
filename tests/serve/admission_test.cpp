#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/serve/admission.h"

namespace levy::serve {
namespace {

admission_options small_opts() {
    admission_options opts;
    opts.queue_capacity = 3;
    opts.reserved_bytes_per_request = 1024;
    return opts;
}

// The counters behind stats() are process-wide registry counts, so each
// test starts from a zeroed registry.
class AdmissionQueue : public ::testing::Test {
protected:
    void SetUp() override { obs::reset_metrics_registry(); }
};

TEST_F(AdmissionQueue, ShedsWhenQueueIsFull) {
    admission_queue q(small_opts());
    EXPECT_EQ(q.try_admit(10), admit_result::admitted);
    EXPECT_EQ(q.try_admit(11), admit_result::admitted);
    EXPECT_EQ(q.try_admit(12), admit_result::admitted);
    EXPECT_EQ(q.try_admit(13), admit_result::shed_queue_full);
    const auto s = q.stats();
    EXPECT_EQ(s.admitted, 3u);
    EXPECT_EQ(s.shed_queue_full, 1u);
    EXPECT_EQ(s.shed_total(), 1u);
    q.shutdown();
    (void)q.drain();
}

TEST_F(AdmissionQueue, PopsInAdmissionOrderWithSequences) {
    admission_queue q(small_opts());
    ASSERT_EQ(q.try_admit(21), admit_result::admitted);
    ASSERT_EQ(q.try_admit(22), admit_result::admitted);
    auto a = q.pop();
    auto b = q.pop();
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->fd, 21);
    EXPECT_EQ(a->sequence, 0u);
    EXPECT_EQ(b->fd, 22);
    EXPECT_EQ(b->sequence, 1u);
    q.release();
    q.release();
    q.shutdown();
}

TEST_F(AdmissionQueue, ByteBudgetShedsBeforeCapacityWhenTighter) {
    admission_options opts;
    opts.queue_capacity = 8;
    opts.reserved_bytes_per_request = 1024;
    opts.max_inflight_bytes = 2048;  // only two reservations fit
    admission_queue q(opts);
    EXPECT_EQ(q.try_admit(1), admit_result::admitted);
    EXPECT_EQ(q.try_admit(2), admit_result::admitted);
    EXPECT_EQ(q.try_admit(3), admit_result::shed_bytes_exhausted);
    EXPECT_EQ(q.reserved_bytes(), 2048u);
    EXPECT_EQ(q.stats().shed_bytes, 1u);
    q.shutdown();
    (void)q.drain();
}

TEST_F(AdmissionQueue, ReleaseReturnsReservationToTheBudget) {
    admission_options opts;
    opts.queue_capacity = 8;
    opts.reserved_bytes_per_request = 1024;
    opts.max_inflight_bytes = 1024;  // one at a time
    admission_queue q(opts);
    ASSERT_EQ(q.try_admit(1), admit_result::admitted);
    EXPECT_EQ(q.try_admit(2), admit_result::shed_bytes_exhausted);
    auto t = q.pop();
    ASSERT_TRUE(t.has_value());
    // Popping alone keeps the reservation (the request is in flight)...
    EXPECT_EQ(q.try_admit(3), admit_result::shed_bytes_exhausted);
    q.release();
    // ...release() frees it.
    EXPECT_EQ(q.try_admit(4), admit_result::admitted);
    q.shutdown();
    (void)q.drain();
}

TEST_F(AdmissionQueue, ShutdownWakesBlockedPoppersWithNullopt) {
    admission_queue q(small_opts());
    std::thread popper([&q] {
        const auto t = q.pop();  // blocks until shutdown
        EXPECT_FALSE(t.has_value());
    });
    q.shutdown();
    popper.join();
    EXPECT_EQ(q.try_admit(5), admit_result::shed_shutdown);
    EXPECT_EQ(q.stats().shed_shutdown, 1u);
}

TEST_F(AdmissionQueue, DrainReturnsQueuedNeverPoppedFds) {
    admission_queue q(small_opts());
    ASSERT_EQ(q.try_admit(31), admit_result::admitted);
    ASSERT_EQ(q.try_admit(32), admit_result::admitted);
    ASSERT_TRUE(q.pop().has_value());  // 31 in flight
    q.shutdown();
    const auto leftover = q.drain();
    ASSERT_EQ(leftover.size(), 1u);
    EXPECT_EQ(leftover.front(), 32);
    q.release();
}

TEST_F(AdmissionQueue, DepthTracksQueuedNotInFlight) {
    admission_queue q(small_opts());
    EXPECT_EQ(q.depth(), 0u);
    ASSERT_EQ(q.try_admit(41), admit_result::admitted);
    ASSERT_EQ(q.try_admit(42), admit_result::admitted);
    EXPECT_EQ(q.depth(), 2u);
    ASSERT_TRUE(q.pop().has_value());
    EXPECT_EQ(q.depth(), 1u);
    // The in-flight request still holds its reservation though.
    EXPECT_EQ(q.reserved_bytes(), 2u * 1024u);
    q.shutdown();
    (void)q.drain();
}

TEST_F(AdmissionQueue, AdmitResultNamesAreStable) {
    EXPECT_STREQ(admit_result_name(admit_result::admitted), "admitted");
    EXPECT_STREQ(admit_result_name(admit_result::shed_queue_full), "shed_queue_full");
    EXPECT_STREQ(admit_result_name(admit_result::shed_bytes_exhausted),
                 "shed_bytes_exhausted");
    EXPECT_STREQ(admit_result_name(admit_result::shed_shutdown), "shed_shutdown");
}

}  // namespace
}  // namespace levy::serve
