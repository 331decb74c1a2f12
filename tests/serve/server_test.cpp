#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/serve/server.h"
#include "src/sim/fault.h"

#if LEVY_SERVE_HAVE_POSIX_SOCKETS
#include <sys/socket.h>
#include <unistd.h>

namespace levy::serve {
namespace {

std::string scratch_path(const char* name) {
    return std::string(::testing::TempDir()) + name;
}

serve_options fast_opts() {
    serve_options opts;
    opts.workers = 1;
    opts.steps_per_ms = 1000;
    opts.default_trials = 32;
    opts.default_deadline_ms = 60'000;
    opts.seed = 0xFEEDu;
    return opts;
}

http_request get(const std::string& path_and_query) {
    http_request req;
    const bool ok =
        parse_request_line("GET " + path_and_query + " HTTP/1.1", req);
    EXPECT_TRUE(ok) << path_and_query;
    return req;
}

bool body_has(const http_response& resp, const std::string& needle) {
    return resp.body.find(needle) != std::string::npos;
}

// stats() reads process-wide registry counts, so every test starts from a
// zeroed registry.
class fresh_registry : public ::testing::Test {
protected:
    void SetUp() override { obs::reset_metrics_registry(); }
};
using ServerRestart = fresh_registry;
using ServerLifecycle = fresh_registry;
using ServerOverload = fresh_registry;
using ServerOneSource = fresh_registry;

class ServerHandleTest : public fresh_registry {
protected:
    // handle() is the socket-free worker entry point; no start() needed.
    server srv{fast_opts()};
    std::uint64_t seq = 0;

    http_response query(const std::string& q) { return srv.handle(get(q), seq++); }
};

TEST_F(ServerHandleTest, HealthzAndUnknownPath) {
    EXPECT_EQ(query("/healthz").status, 200);
    EXPECT_EQ(query("/nope").status, 404);
}

TEST_F(ServerHandleTest, ExactQueryReportsFullMonteCarlo) {
    const http_response resp =
        query("/query?alpha=2.5&ell=8&k=2&budget=500&trials=64&deadline_ms=60000");
    ASSERT_EQ(resp.status, 200) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"quality\":\"exact\"")) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"cached\":false")) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"censored\":false")) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"trials_run\":64")) << resp.body;
    EXPECT_EQ(srv.stats().exact, 1u);
}

TEST_F(ServerHandleTest, TightDeadlineAnswersRepeatQueryFromTheCache) {
    // A query whose full batch fits its deadline always recomputes (that is
    // what keeps restart replays byte-identical); the cache serves when the
    // deadline does NOT fit. Populate, then repeat under pressure.
    const std::string q = "/query?alpha=2.5&ell=8&k=2&budget=500&trials=64";
    const http_response first = query(q);
    ASSERT_EQ(first.status, 200) << first.body;
    const http_response tight = query(q + "&deadline_ms=1");
    ASSERT_EQ(tight.status, 200) << tight.body;
    EXPECT_TRUE(body_has(tight, "\"cached\":true")) << tight.body;
    EXPECT_TRUE(body_has(tight, "\"quality\":\"exact\"")) << tight.body;
    EXPECT_EQ(srv.stats().cache_hits, 1u);
    // The cached answer carries the estimate the full run produced.
    EXPECT_TRUE(body_has(first, "\"probability\":"));
}

TEST_F(ServerHandleTest, TightDeadlineInterpolatesFromNeighboringCells) {
    // Populate the two alpha grid cells bracketing 2.515 (pitch 1/32, so
    // corners 2.5 and 2.53125), both in the budget=500 octave cell (72).
    ASSERT_EQ(query("/query?alpha=2.5&ell=8&k=2&budget=500&trials=32").status, 200);
    ASSERT_EQ(query("/query?alpha=2.53125&ell=8&k=2&budget=500&trials=32").status, 200);
    // budget=470 rounds to octave cell 71 — empty, so the exact-cell rung
    // misses — while its ceil corner is the populated cell 72. With a
    // deadline too tight for a fresh run, the answer is a linear
    // interpolation between the two alpha corners along that budget row.
    const http_response resp =
        query("/query?alpha=2.515&ell=8&k=2&budget=470&trials=32&deadline_ms=1");
    ASSERT_EQ(resp.status, 200) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"quality\":\"interpolated\"")) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"grid_points\":2")) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"trials_run\":0")) << resp.body;
    EXPECT_EQ(srv.stats().interpolated, 1u);
}

TEST_F(ServerHandleTest, TightDeadlineWithColdCacheDegradesAndSaysSo) {
    // Nothing cached anywhere near: the ladder bottoms out in a truncated
    // ("degraded") run whose step watchdog enforces the allowance.
    const http_response resp =
        query("/query?alpha=2.5&ell=64&k=2&budget=100000&trials=1000&deadline_ms=1");
    ASSERT_EQ(resp.status, 200) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"quality\":\"degraded\"")) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"max_steps\":")) << resp.body;
    EXPECT_EQ(srv.stats().degraded, 1u);
}

TEST_F(ServerHandleTest, BadParametersAnswer400NamingTheProblem) {
    EXPECT_EQ(query("/query?ell=8").status, 400);                  // missing alpha
    EXPECT_EQ(query("/query?alpha=2.5").status, 400);              // missing ell
    EXPECT_EQ(query("/query?alpha=0.5&ell=8").status, 400);        // alpha <= 1
    EXPECT_EQ(query("/query?alpha=2.5&ell=1").status, 400);        // ell < 2
    EXPECT_EQ(query("/query?alpha=2.5&ell=8&k=0").status, 400);    // k < 1
    EXPECT_EQ(query("/query?alpha=nan&ell=8").status, 400);        // non-finite
    EXPECT_EQ(query("/query?alpha=2.5&ell=8&trials=junk").status, 400);
    EXPECT_EQ(query("/query?alpha=2.5&ell=8&deadline_ms=0").status, 400);
    EXPECT_EQ(srv.stats().bad_requests, 8u);
    // Bad requests never start a Monte-Carlo run.
    EXPECT_EQ(srv.stats().exact + srv.stats().degraded, 0u);
}

TEST_F(ServerHandleTest, PlanAnswersTheoryNumbers) {
    const http_response resp = srv.handle(get("/plan?k=64&ell=1000"), seq++);
    ASSERT_EQ(resp.status, 200) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"alpha_star\":")) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"budget\":")) << resp.body;
    EXPECT_EQ(query("/plan?k=64").status, 400);  // missing ell
    // The counter tracks routed /plan requests, rejected ones included.
    EXPECT_EQ(srv.stats().plans, 2u);
}

TEST_F(ServerHandleTest, StatsEndpointReportsCounters) {
    ASSERT_EQ(query("/query?alpha=2.5&ell=8&k=2&budget=500&trials=16").status, 200);
    const http_response resp = query("/stats");
    ASSERT_EQ(resp.status, 200);
    EXPECT_TRUE(body_has(resp, "\"queries\":1")) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"exact\":1")) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"admitted\":")) << resp.body;
}

TEST_F(ServerHandleTest, SeedParameterSelectsTheStream) {
    const http_response a =
        query("/query?alpha=2.5&ell=8&k=2&budget=500&trials=64&seed=1");
    const http_response b =
        query("/query?alpha=2.5&ell=12&k=2&budget=500&trials=64&seed=2");
    ASSERT_EQ(a.status, 200);
    ASSERT_EQ(b.status, 200);
    EXPECT_TRUE(body_has(a, "\"seed\":\"0x0000000000000001\"")) << a.body;
    EXPECT_TRUE(body_has(b, "\"seed\":\"0x0000000000000002\"")) << b.body;
}

// The determinism contract behind the kill -9 selftest, in-process: same
// query + same server config + same persisted cache => same bytes, across
// a full save/destroy/reload cycle.
TEST_F(ServerRestart, AnswersAreByteIdenticalAcrossCacheReload) {
    const std::string path = scratch_path("server_restart_cache.bin");
    std::remove(path.c_str());
    serve_options opts = fast_opts();
    opts.cache_path = path;
    const std::string exact_q = "/query?alpha=2.5&ell=8&k=2&budget=500&trials=64";
    const std::string tight_q = exact_q + "&deadline_ms=1";

    std::string exact1, tight1;
    {
        server srv(opts);
        exact1 = srv.handle(get(exact_q), 0).body;   // full run, fills cache
        tight1 = srv.handle(get(tight_q), 1).body;   // answered from cache
        EXPECT_TRUE(tight1.find("\"cached\":true") != std::string::npos) << tight1;
        srv.flush_cache();
    }  // "restart": the first server instance is gone
    {
        server srv(opts);
        // start() loads the cache; handle() alone doesn't, so load here.
        EXPECT_GT(srv.cache().load(path), 0u);
        const std::string tight2 = srv.handle(get(tight_q), 0).body;
        const std::string exact2 = srv.handle(get(exact_q), 1).body;
        EXPECT_EQ(tight2, tight1);
        EXPECT_EQ(exact2, exact1);
    }
    std::remove(path.c_str());
}

TEST_F(ServerLifecycle, StartServesOverRealSocketsAndStopsIdempotently) {
    serve_options opts = fast_opts();
    opts.workers = 2;
    server srv(opts);
    const unsigned short port = srv.start();
    ASSERT_NE(port, 0u);
    int status = 0;
    const auto health = http_get(port, "/healthz", 5.0, &status);
    ASSERT_TRUE(health.has_value());
    EXPECT_EQ(status, 200);
    const auto ans =
        http_get(port, "/query?alpha=2.5&ell=8&k=2&budget=500&trials=16", 30.0, &status);
    ASSERT_TRUE(ans.has_value());
    EXPECT_EQ(status, 200) << *ans;
    srv.stop();
    srv.stop();  // idempotent
    EXPECT_FALSE(srv.running());
}

/// Everything the peer sends until its orderly close; "" when the
/// connection was reset (or the socket's receive timeout lapsed) first.
std::string read_to_eof(int fd) {
    std::string out;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n == 0) return out;
        if (n < 0 && errno == EINTR) continue;
        if (n < 0) return {};
        out.append(buf, static_cast<std::size_t>(n));
    }
}

// A shed client that sent its whole request before reading must still read
// a complete 503. Closing a socket whose request bytes were never read makes
// the kernel answer with an RST, and the RST can destroy the 503 before the
// client reads it — E23's "transport errors" under overload.
TEST_F(ServerOverload, ShedClientsThatSentARequestReadAComplete503) {
    serve_options opts = fast_opts();
    opts.queue_capacity = 1;
    opts.limits.head_deadline_seconds = 30.0;
    opts.limits.io_timeout_seconds = 30.0;
    server srv(opts);
    const unsigned short port = srv.start();
    // Saturate with silent clients until two are admitted: with a one-slot
    // queue that means the lone worker holds the first in its head read and
    // the second fills the queue (one that arrives before the worker popped
    // the first is shed, which is harmless here).
    std::vector<int> silent;
    for (int i = 0; i < 200 && srv.stats().admission.admitted < 2; ++i) {
        silent.push_back(connect_client(port, 5.0));
        ::usleep(10'000);
    }
    ASSERT_EQ(srv.stats().admission.admitted, 2u);

    const std::string request = "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    int complete = 0;
    constexpr int kClients = 40;
    for (int i = 0; i < kClients; ++i) {
        const int fd = connect_client(port, 5.0);
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(send_all(fd, request));
        ::usleep(20'000);  // the shed reply and any reset land before we read
        const std::string reply = read_to_eof(fd);
        ::close(fd);
        const std::size_t body = reply.find("\r\n\r\n");
        if (reply.rfind("HTTP/1.1 503 ", 0) == 0 && body != std::string::npos &&
            reply.find("\"error\":\"overloaded: shed_queue_full\"", body) != std::string::npos) {
            ++complete;
        }
    }
    EXPECT_EQ(complete, kClients);
    EXPECT_EQ(srv.stats().admission.admitted, 2u);
    for (const int fd : silent) ::close(fd);
    srv.stop();
}

/// The value of exposition line `name` in a /metrics body (-1 if absent).
double metric_line(const std::string& text, const std::string& name) {
    const std::string key = "\n" + name + " ";
    const std::size_t at = ("\n" + text).find(key);
    if (at == std::string::npos) return -1.0;
    return std::stod(text.substr(at + key.size() - 1));
}

// /stats is a view over the registry that /metrics exports: after one of
// every kind of request, each /stats counter equals its /metrics line.
TEST_F(ServerOneSource, EveryStatsCounterEqualsItsMetricsLine) {
    serve_options opts = fast_opts();
    opts.queue_capacity = 1;
    opts.limits.head_deadline_seconds = 30.0;
    opts.limits.io_timeout_seconds = 30.0;
    server srv(opts);
    const unsigned short port = srv.start();
    // Shed: a silent client holds the lone worker, a second fills the
    // queue, so the next connection is shed at the front door.
    std::vector<int> silent;
    for (int i = 0; i < 200 && srv.stats().admission.admitted < 2; ++i) {
        silent.push_back(connect_client(port, 5.0));
        ::usleep(10'000);
    }
    ASSERT_EQ(srv.stats().admission.admitted, 2u);
    int status = 0;
    (void)http_get(port, "/healthz", 5.0, &status);
    EXPECT_EQ(status, 503);
    for (const int fd : silent) ::close(fd);  // two head failures
    srv.stop();

    std::uint64_t seq = 100;
    const auto ask = [&](const std::string& q) { return srv.handle(get(q), seq++).status; };
    const std::string q = "/query?alpha=2.5&ell=8&k=2&budget=500&trials=32";
    EXPECT_EQ(ask(q), 200);                                   // exact
    EXPECT_EQ(ask(q + "&deadline_ms=1"), 200);                // cached
    EXPECT_EQ(ask("/query?alpha=2.53125&ell=8&k=2&budget=500&trials=32"), 200);
    EXPECT_EQ(ask("/query?alpha=2.515&ell=8&k=2&budget=470&trials=32&deadline_ms=1"),
              200);                                           // interpolated
    EXPECT_EQ(ask("/query?alpha=2.5&ell=64&k=2&budget=100000&trials=1000&deadline_ms=1"),
              200);                                           // degraded
    EXPECT_EQ(ask("/plan?k=64&ell=1000"), 200);
    EXPECT_EQ(ask("/query?ell=8"), 400);                      // bad request
    sim::fault_plan plan;
    plan.throw_at_query = seq;
    sim::install_fault_plan(plan);
    EXPECT_EQ(ask(q), 500);                                   // worker fault
    sim::clear_fault_plan();

    const http_response stats = srv.handle(get("/stats"), seq++);
    const http_response metrics = srv.handle(get("/metrics"), seq++);
    ASSERT_EQ(stats.status, 200);
    ASSERT_EQ(metrics.status, 200);
    const obs::json doc = obs::json::parse(stats.body);
    const obs::json& admission = doc.at("admission");
    for (const char* key : {"admitted", "shed_queue_full", "shed_bytes", "shed_shutdown"}) {
        EXPECT_EQ(admission.at(key).as_number(),
                  metric_line(metrics.body,
                              std::string("levy_serve_admission_") + key + "_total"))
            << key;
    }
    for (const char* key : {"queries", "plans", "exact", "interpolated", "degraded",
                            "cache_hits", "bad_requests", "worker_faults", "head_failures"}) {
        EXPECT_EQ(doc.at(key).as_number(),
                  metric_line(metrics.body, std::string("levy_serve_") + key + "_total"))
            << key;
        EXPECT_GT(doc.at(key).as_number(), 0.0) << key;  // every kind was exercised
    }
    EXPECT_GE(admission.at("shed_queue_full").as_number(), 1.0);
}

TEST(ServerOptions, ConstructorRejectsDegenerateConfigs) {
    const auto bad = [](auto mutate) {
        serve_options opts;
        mutate(opts);
        EXPECT_THROW(server s(opts), std::invalid_argument);
    };
    bad([](serve_options& o) { o.workers = 0; });
    bad([](serve_options& o) { o.queue_capacity = 0; });
    bad([](serve_options& o) { o.default_deadline_ms = 0; });
    bad([](serve_options& o) { o.steps_per_ms = 0; });
    bad([](serve_options& o) { o.default_trials = 0; });
    bad([](serve_options& o) { o.cache_flush_every = 0; });
}

}  // namespace
}  // namespace levy::serve

#endif  // LEVY_SERVE_HAVE_POSIX_SOCKETS
