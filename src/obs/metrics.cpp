#include "src/obs/metrics.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <memory>
#include <mutex>

#include "src/core/contracts.h"

namespace levy::obs {

// Handle factories: the only way to mint a non-default handle, kept out of
// the public class API so slot indices stay an implementation detail.
counter make_counter_handle(std::size_t slot) noexcept { return counter(slot); }
histogram_metric make_histogram_handle(std::size_t base, const histogram_spec& spec) noexcept {
    return {base, spec};
}

namespace {

/// One thread's private slot arena. Relaxed atomics rather than plain
/// integers so a concurrent snapshot is race-free (TSan-clean) — on the
/// owning thread an uncontended relaxed fetch_add costs about as much as a
/// plain add.
struct shard {
    std::array<std::atomic<std::uint64_t>, kShardSlots> slots{};
};

struct metric_entry {
    std::size_t base = 0;
    histogram_spec spec;  ///< meaningful for histograms only
};

struct registry_state {
    mutable std::mutex m;
    std::vector<std::unique_ptr<shard>> shards;
    std::size_t next_slot = 0;
    std::map<std::string, metric_entry> counters;
    std::map<std::string, metric_entry> histograms;
    std::map<std::string, double> gauges;

    /// One slot summed over every shard (caller holds `m`).
    [[nodiscard]] std::uint64_t sum_locked(std::size_t slot) const noexcept {
        std::uint64_t total = 0;
        for (const auto& s : shards) total += s->slots[slot].load(std::memory_order_relaxed);
        return total;
    }

    std::size_t allocate_locked(std::size_t slots) {
        LEVY_PRECONDITION(next_slot + slots <= kShardSlots,
                          "obs registry: shard slot arena exhausted (too many metrics)");
        const std::size_t base = next_slot;
        next_slot += slots;
        return base;
    }
};

/// Intentionally leaked: persistent pool workers may still increment shard
/// slots during static destruction, so the arena must outlive every
/// static-destruction order.
registry_state& state() {
    static registry_state* s = new registry_state;
    return *s;
}

/// The calling thread's shard, registered (and owned) by the registry on
/// first use so it outlives the thread and its counts survive in snapshots.
shard& tl_shard() {
    thread_local shard* s = nullptr;
    if (s == nullptr) {
        registry_state& st = state();
        std::lock_guard lk(st.m);
        st.shards.push_back(std::make_unique<shard>());
        s = st.shards.back().get();
    }
    return *s;
}

}  // namespace

counter get_counter(const std::string& name) {
    LEVY_PRECONDITION(!name.empty(), "obs::get_counter: name must be non-empty");
    registry_state& st = state();
    std::lock_guard lk(st.m);
    LEVY_PRECONDITION(st.histograms.count(name) == 0,
                      "obs::get_counter: name already registered as a histogram: " + name);
    auto it = st.counters.find(name);
    if (it == st.counters.end()) {
        it = st.counters.emplace(name, metric_entry{st.allocate_locked(1), {}}).first;
    }
    return make_counter_handle(it->second.base);
}

histogram_metric get_histogram(const std::string& name, const histogram_spec& spec) {
    LEVY_PRECONDITION(!name.empty(), "obs::get_histogram: name must be non-empty");
    if (spec.kind == histogram_spec::scale::linear) {
        LEVY_PRECONDITION(spec.hi > spec.lo && spec.bins >= 1,
                          "obs::get_histogram: linear spec needs hi > lo and bins >= 1");
    }
    registry_state& st = state();
    std::lock_guard lk(st.m);
    LEVY_PRECONDITION(st.counters.count(name) == 0,
                      "obs::get_histogram: name already registered as a counter: " + name);
    auto it = st.histograms.find(name);
    if (it == st.histograms.end()) {
        it = st.histograms.emplace(name, metric_entry{st.allocate_locked(spec.slots()), spec})
                 .first;
    } else {
        LEVY_PRECONDITION(it->second.spec == spec,
                          "obs::get_histogram: layout mismatch for re-registered histogram: " +
                              name);
    }
    return make_histogram_handle(it->second.base, spec);
}

void set_gauge(const std::string& name, double value) {
    LEVY_PRECONDITION(!name.empty(), "obs::set_gauge: name must be non-empty");
    registry_state& st = state();
    std::lock_guard lk(st.m);
    st.gauges[name] = value;
}

double raise_gauge(const std::string& name, double value) {
    LEVY_PRECONDITION(!name.empty(), "obs::raise_gauge: name must be non-empty");
    registry_state& st = state();
    std::lock_guard lk(st.m);
    double& gauge = st.gauges.try_emplace(name, value).first->second;
    return gauge = std::max(gauge, value);
}

metrics_view snapshot_metrics() {
    registry_state& st = state();
    std::lock_guard lk(st.m);
    metrics_view out;
    for (const auto& [name, entry] : st.counters) {
        out.counters.emplace(name, st.sum_locked(entry.base));
    }
    for (const auto& [name, entry] : st.histograms) {
        histogram_snapshot h;
        h.spec = entry.spec;
        h.buckets.resize(entry.spec.slots());
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
            h.buckets[i] = st.sum_locked(entry.base + i);
        }
        out.histograms.emplace(name, std::move(h));
    }
    out.gauges = st.gauges;
    return out;
}

void reset_metrics_registry() {
    registry_state& st = state();
    std::lock_guard lk(st.m);
    for (const auto& s : st.shards) {
        for (auto& slot : s->slots) slot.store(0, std::memory_order_relaxed);
    }
    st.gauges.clear();
}

void counter::add(std::uint64_t n) const {
    tl_shard().slots[slot_].fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t counter::value() const noexcept {
    registry_state& st = state();
    std::lock_guard lk(st.m);
    return st.sum_locked(slot_);
}

void histogram_metric::observe(double value) const {
    if (spec_.kind == histogram_spec::scale::log2) {
        observe_u64(value <= 0.0 ? 0 : static_cast<std::uint64_t>(value));
        return;
    }
    std::size_t slot = base_;  // underflow
    if (value >= spec_.lo) {
        const double width = (spec_.hi - spec_.lo) / static_cast<double>(spec_.bins);
        const double rel = (value - spec_.lo) / width;
        slot = rel >= static_cast<double>(spec_.bins)
                   ? base_ + spec_.bins + 1  // overflow (value == hi lands here too)
                   : base_ + 1 + static_cast<std::size_t>(rel);
    }
    tl_shard().slots[slot].fetch_add(1, std::memory_order_relaxed);
}

void histogram_metric::observe_u64(std::uint64_t value) const {
    if (spec_.kind == histogram_spec::scale::linear) {
        observe(static_cast<double>(value));
        return;
    }
    const std::size_t slot =
        value == 0 ? base_ : base_ + static_cast<std::size_t>(std::bit_width(value));
    tl_shard().slots[slot].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t histogram_snapshot::total() const noexcept {
    std::uint64_t t = 0;
    for (const std::uint64_t b : buckets) t += b;
    return t;
}

}  // namespace levy::obs
