#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace levy::obs {

/// Bucket layout of a registry histogram, fixed at registration so shards
/// can be merged bucket-by-bucket.
///
///   linear: `bins` equal-width buckets over [lo, hi), plus an underflow
///           and an overflow bucket (same convention as stats::histogram).
///   log2:   64 power-of-two buckets for positive integer observations
///           (bucket b holds [2^b, 2^{b+1})), plus a zero bucket — the
///           shape used for latencies in nanoseconds and step counts.
struct histogram_spec {
    enum class scale : std::uint8_t { linear, log2 };
    scale kind = scale::log2;
    double lo = 0.0;
    double hi = 1.0;
    std::size_t bins = 1;  ///< linear only; log2 always has 64 + zero

    [[nodiscard]] std::size_t slots() const noexcept {
        return kind == scale::log2 ? 65 : bins + 2;  // +underflow +overflow
    }
    [[nodiscard]] bool operator==(const histogram_spec&) const noexcept = default;
};

/// A named monotonic counter. Handles are cheap value types (a slot index);
/// `add` is the hot path: one relaxed atomic increment on the calling
/// thread's private shard — no contention, no locks. (The very first use on
/// a thread allocates that thread's shard, so `add` is not noexcept.)
class counter {
public:
    counter() = default;
    void add(std::uint64_t n = 1) const;
    /// The total over every shard: one slot, not a full `snapshot_metrics()`.
    [[nodiscard]] std::uint64_t value() const noexcept;

private:
    friend counter make_counter_handle(std::size_t) noexcept;
    explicit counter(std::size_t slot) : slot_(slot) {}
    std::size_t slot_ = 0;
};

/// A named histogram with the fixed layout of its `histogram_spec`.
class histogram_metric {
public:
    histogram_metric() = default;
    /// Linear histograms: bucket by value (the top edge `hi` overflows,
    /// matching stats::histogram's half-open bins). Log2 histograms:
    /// `observe_u64` takes the non-negative integer magnitude (e.g.
    /// nanoseconds); `observe` truncates.
    void observe(double value) const;
    void observe_u64(std::uint64_t value) const;

private:
    friend histogram_metric make_histogram_handle(std::size_t, const histogram_spec&) noexcept;
    histogram_metric(std::size_t base, histogram_spec spec) : base_(base), spec_(spec) {}
    std::size_t base_ = 0;
    histogram_spec spec_;
};

/// Merged view of one histogram.
struct histogram_snapshot {
    histogram_spec spec;
    /// linear: [underflow, bucket 0..bins-1, overflow];
    /// log2:   [zeros, bucket 0..63].
    std::vector<std::uint64_t> buckets;
    [[nodiscard]] std::uint64_t total() const noexcept;
};

/// Everything the registry knows, merged across shards at one instant.
/// std::map keeps the output deterministically name-ordered.
struct metrics_view {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, histogram_snapshot> histograms;
};

/// --- Process-wide metrics registry ---------------------------------------
///
/// Sharding model: every thread that touches a counter or histogram lazily
/// registers one private shard — a fixed arena of relaxed atomics owned by
/// the registry (so it outlives the thread, and counts survive thread
/// exit). Increments touch only the caller's shard; `snapshot_metrics()`
/// walks all shards and sums. Integer addition commutes, so the merged
/// totals are bit-identical for any thread count or schedule — the same
/// determinism contract as the Monte-Carlo driver. Gauges are cold-path
/// (set under the registry mutex: set_gauge's last write wins, raise_gauge
/// keeps the maximum).

/// Find-or-create a counter by name. Re-registering an existing name
/// returns the same slot; a name collision with a histogram throws.
[[nodiscard]] counter get_counter(const std::string& name);

/// Find-or-create a histogram by name. Re-registering with a different
/// spec throws (fixed layout is what makes shard merging well-defined).
[[nodiscard]] histogram_metric get_histogram(const std::string& name,
                                             const histogram_spec& spec);

void set_gauge(const std::string& name, double value);

/// A high-water mark: raise gauge `name` to at least `value` (creating it)
/// and return its new value, so `raise_gauge(name, 0)` reads it.
double raise_gauge(const std::string& name, double value);

[[nodiscard]] metrics_view snapshot_metrics();

/// Zero every shard slot and drop gauges; registrations survive (handles
/// held by callers stay valid). Test/bench-reset hook.
void reset_metrics_registry();

/// Slots available per shard; registration beyond this throws.
inline constexpr std::size_t kShardSlots = 4096;

}  // namespace levy::obs
