#include "src/obs/progress.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <stdexcept>
// levylint:allow(raw-thread) sampler thread: observability only — it never
// runs trial work, so it cannot perturb the (seed, trial index) contract.
#include <thread>

#include "src/core/contracts.h"
#include "src/obs/metrics.h"

namespace levy::obs {
namespace {

using clock = std::chrono::steady_clock;

/// Fast-path flag for note_progress_phase (one relaxed load when off).
std::atomic<bool> g_phase_hook{false};

struct progress_state {
    std::mutex m;
    std::condition_variable cv;
    bool running = false;
    bool stop_requested = false;
    progress_config cfg;
    double started_at = 0.0;  ///< monotonic_seconds at start
    std::string phase;
    // Sampler window for the live rate.
    std::uint64_t prev_completed = 0;
    double prev_time = 0.0;
    std::thread sampler;  // levylint:allow(raw-thread) see file header note
};

/// Leaked like the metrics registry: note_progress_phase may run during
/// static destruction (spans on pool workers).
progress_state& state() {
    static progress_state* s = new progress_state;
    return *s;
}

void emit_line(const progress_snapshot& snap) {
    const std::string line = format_progress_line(snap) + "\n";
    // One fputs so concurrent stderr writers cannot interleave mid-line.
    std::fputs(line.c_str(), stderr);
}

/// Registry half of a snapshot: everything that does not
/// need the progress-state mutex (so both the locked sampler and the
/// public entry point can share it without recursive locking).
progress_snapshot snapshot_counters() {
    progress_snapshot snap;
    const metrics_view view = snapshot_metrics();
    const auto count = [&view](const char* name) -> std::uint64_t {
        const auto it = view.counters.find(name);
        return it == view.counters.end() ? 0 : it->second;
    };
    snap.planned = count(kTrialsPlannedCounter);
    snap.completed = count(kTrialsCompletedCounter);
    snap.censored = count(kRunCensoredCounter);
    const double now = monotonic_seconds();
    if (const auto it = view.gauges.find(kCheckpointFlushGauge); it != view.gauges.end()) {
        snap.checkpoint_age_seconds = now - it->second;
        if (snap.checkpoint_age_seconds < 0.0) snap.checkpoint_age_seconds = 0.0;
    }
    return snap;
}

/// Cumulative rate + ETA from whatever elapsed time the snapshot carries.
void derive_rate(progress_snapshot& snap) {
    if (snap.elapsed_seconds > 0.0 && snap.completed > 0) {
        snap.trials_per_sec = static_cast<double>(snap.completed) / snap.elapsed_seconds;
        if (snap.planned > snap.completed) {
            snap.eta_seconds =
                static_cast<double>(snap.planned - snap.completed) / snap.trials_per_sec;
        }
    }
}

/// Windowed rate/ETA refinement + line emission; called with the state
/// locked so the window fields stay consistent.
void sample_locked(progress_state& st) {
    progress_snapshot snap = snapshot_counters();
    const double now = monotonic_seconds();
    snap.label = st.cfg.label;
    snap.phase = st.phase;
    snap.elapsed_seconds = now - st.started_at;
    derive_rate(snap);
    const double dt = now - st.prev_time;
    if (dt > 0.0 && snap.completed >= st.prev_completed) {
        const double windowed =
            static_cast<double>(snap.completed - st.prev_completed) / dt;
        if (windowed > 0.0) {
            snap.trials_per_sec = windowed;
            if (snap.planned > snap.completed) {
                snap.eta_seconds =
                    static_cast<double>(snap.planned - snap.completed) / windowed;
            }
        }
    }
    st.prev_completed = snap.completed;
    st.prev_time = now;
    emit_line(snap);
}

void sampler_loop() {
    progress_state& st = state();
    std::unique_lock lk(st.m);
    while (!st.stop_requested) {
        const auto interval = std::chrono::duration<double>(st.cfg.interval_seconds);
        st.cv.wait_for(lk, interval, [&] { return st.stop_requested; });
        if (st.stop_requested) break;
        sample_locked(st);
    }
}

std::string fmt_duration(double seconds) {
    if (seconds < 0.0) return "?";
    auto total = static_cast<std::uint64_t>(seconds + 0.5);
    std::ostringstream out;
    if (total >= 3600) {
        out << total / 3600 << "h" << (total % 3600) / 60 << "m";
    } else if (total >= 60) {
        out << total / 60 << "m" << total % 60 << "s";
    } else {
        out << total << "s";
    }
    return out.str();
}

}  // namespace

double monotonic_seconds() noexcept {
    static const clock::time_point epoch = clock::now();
    return std::chrono::duration<double>(clock::now() - epoch).count();
}

void note_progress_phase(const char* name) noexcept {
    if (!g_phase_hook.load(std::memory_order_relaxed)) return;
    try {
        progress_state& st = state();
        std::lock_guard lk(st.m);
        st.phase = name;
    } catch (...) {
        // Best-effort: losing a phase label must never take down a trial.
    }
}

bool progress_active() noexcept {
    return g_phase_hook.load(std::memory_order_relaxed);
}

void start_progress(const progress_config& cfg) {
    LEVY_PRECONDITION(cfg.interval_seconds > 0.0,
                      "start_progress: interval_seconds must be positive");
    progress_state& st = state();
    std::unique_lock lk(st.m);
    if (st.running) throw std::logic_error("start_progress: reporter already running");
    st.running = true;
    st.stop_requested = false;
    st.cfg = cfg;
    st.started_at = monotonic_seconds();
    st.phase.clear();
    st.prev_completed = snapshot_counters().completed;
    st.prev_time = st.started_at;
    g_phase_hook.store(true, std::memory_order_relaxed);
    // levylint:allow(raw-thread) observability sampler; never runs trial work
    st.sampler = std::thread(sampler_loop);
}

void stop_progress() {
    progress_state& st = state();
    std::unique_lock lk(st.m);
    if (!st.running) return;
    st.stop_requested = true;
    st.cv.notify_all();
    // levylint:allow(raw-thread) moving the sampler handle out for join; not trial work
    std::thread sampler = std::move(st.sampler);
    lk.unlock();
    if (sampler.joinable()) sampler.join();
    lk.lock();
    // Final line: where the run actually ended (SIGTERM path included).
    sample_locked(st);
    st.running = false;
    g_phase_hook.store(false, std::memory_order_relaxed);
}

progress_snapshot snapshot_progress() {
    progress_snapshot snap = snapshot_counters();
    const double now = monotonic_seconds();
    {
        progress_state& st = state();
        std::lock_guard lk(st.m);
        snap.label = st.cfg.label;
        snap.phase = st.phase;
        snap.elapsed_seconds = st.running ? now - st.started_at : now;
    }
    derive_rate(snap);
    return snap;
}

std::string format_progress_line(const progress_snapshot& s) {
    std::ostringstream out;
    out << "progress";
    if (!s.label.empty()) out << " [" << s.label << "]";
    out << ": " << s.completed;
    if (s.planned > 0) {
        out << "/" << s.planned << " trials";
        const double pct =
            100.0 * static_cast<double>(s.completed) / static_cast<double>(s.planned);
        out << " (" << std::fixed;
        out.precision(1);
        out << pct << "%)";
    } else {
        out << " trials";
    }
    out.precision(0);
    out << " | " << std::llround(s.trials_per_sec) << " trials/s";
    if (!s.phase.empty()) out << " | phase " << s.phase;
    if (s.censored > 0) out << " | " << s.censored << " censored";
    if (s.checkpoint_age_seconds >= 0.0) {
        out.precision(1);
        out << " | ckpt " << s.checkpoint_age_seconds << "s ago";
    }
    out << " | ETA " << fmt_duration(s.eta_seconds);
    out << " | elapsed " << fmt_duration(s.elapsed_seconds);
    return out.str();
}

json progress_to_json(const progress_snapshot& s) {
    json doc = json::object();
    doc.set("label", s.label);
    doc.set("phase", s.phase);
    doc.set("planned", s.planned);
    doc.set("completed", s.completed);
    doc.set("censored", s.censored);
    doc.set("elapsed_seconds", s.elapsed_seconds);
    doc.set("trials_per_sec", s.trials_per_sec);
    doc.set("eta_seconds", s.eta_seconds < 0.0 ? json(nullptr) : json(s.eta_seconds));
    doc.set("checkpoint_age_seconds",
            s.checkpoint_age_seconds < 0.0 ? json(nullptr) : json(s.checkpoint_age_seconds));
    return doc;
}

}  // namespace levy::obs
