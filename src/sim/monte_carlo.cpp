#include "src/sim/monte_carlo.h"

#include <atomic>
#include <thread>

#include "src/obs/metrics.h"
#include "src/obs/progress.h"

namespace levy::sim {
namespace {

// Process-wide throughput totals: obs registry metrics, registered at load
// so /metrics lists them from the start.
const obs::counter run_trials = obs::get_counter("run.trials");
const obs::counter run_censored = obs::get_counter(obs::kRunCensoredCounter);
const obs::counter run_wall_ns = obs::get_counter("run.wall_ns");
const obs::counter run_busy_ns = obs::get_counter("run.busy_ns");
constexpr const char* kMaxWorkersGauge = "run.max_workers";

/// Cooperative cancellation flag; set from signal handlers, so it must be
/// lock-free (static_assert'd below).
std::atomic<bool> g_cancel{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "request_cancel must stay async-signal-safe");

std::uint64_t to_ns(double seconds) {
    return static_cast<std::uint64_t>(seconds * 1e9);
}

}  // namespace

unsigned resolve_threads(unsigned threads) noexcept {
    if (threads != 0) return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

pool_metrics parallel_for(std::size_t n, unsigned threads,
                          const std::function<void(std::size_t)>& fn, std::size_t chunk) {
    const pool_metrics m = thread_pool::instance().run(n, resolve_threads(threads), chunk, fn);
    run_trials.add(m.items);
    run_wall_ns.add(to_ns(m.wall_seconds));
    run_busy_ns.add(to_ns(m.busy_seconds));
    (void)obs::raise_gauge(kMaxWorkersGauge, m.workers);
    return m;
}

void request_cancel() noexcept { g_cancel.store(true, std::memory_order_relaxed); }

bool cancel_requested() noexcept { return g_cancel.load(std::memory_order_relaxed); }

void clear_cancel() noexcept { g_cancel.store(false, std::memory_order_relaxed); }

void throw_if_cancelled() {
    if (cancel_requested()) throw run_cancelled();
}

void note_censored() { run_censored.add(); }

run_metrics metrics_snapshot() noexcept {
    run_metrics out;
    out.trials = run_trials.value();
    out.wall_seconds = static_cast<double>(run_wall_ns.value()) * 1e-9;
    out.busy_seconds = static_cast<double>(run_busy_ns.value()) * 1e-9;
    out.max_workers = static_cast<unsigned>(obs::raise_gauge(kMaxWorkersGauge, 0));
    out.censored = run_censored.value();
    return out;
}

void reset_metrics() noexcept { obs::reset_metrics_registry(); }

}  // namespace levy::sim
