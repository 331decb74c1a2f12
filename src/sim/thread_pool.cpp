#include "src/sim/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "src/core/contracts.h"

namespace levy::sim {
namespace {

using steady_clock = std::chrono::steady_clock;

double seconds_since(steady_clock::time_point start) {
    return std::chrono::duration<double>(steady_clock::now() - start).count();
}

/// Set while a thread is executing pool work; nested `run` calls detect it
/// and fall back to the serial path instead of deadlocking on the pool.
thread_local bool tl_inside_pool = false;

}  // namespace

struct thread_pool::job {
    std::size_t n = 0;
    std::size_t chunk = 1;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> cancelled{false};
    std::atomic<std::uint64_t> busy_ns{0};
    unsigned participants = 0;  ///< pool workers assigned (caller excluded)
    std::exception_ptr error;   ///< guarded by impl::m
};

struct thread_pool::impl {
    std::mutex submit;  ///< serializes run(); guards workers growth
    std::mutex m;       ///< guards everything below
    std::condition_variable work_cv;
    std::condition_variable done_cv;
    std::vector<std::thread> workers;
    job* current = nullptr;
    std::uint64_t generation = 0;
    unsigned pending = 0;  ///< participants still draining the current job
    bool stop = false;
};

thread_pool& thread_pool::instance() {
    static thread_pool pool;
    return pool;
}

thread_pool::thread_pool() : impl_(new impl) {}

thread_pool::~thread_pool() {
    {
        std::lock_guard lk(impl_->m);
        impl_->stop = true;
    }
    impl_->work_cv.notify_all();
    for (auto& t : impl_->workers) t.join();
    delete impl_;
}

unsigned thread_pool::spawned_workers() const noexcept {
    std::lock_guard lk(impl_->submit);
    return static_cast<unsigned>(impl_->workers.size());
}

std::size_t thread_pool::auto_chunk(std::size_t n, unsigned workers) noexcept {
    const std::size_t per = n / (std::max(workers, 1u) * std::size_t{8});
    return std::clamp<std::size_t>(per, 1, 1024);
}

void thread_pool::execute(job& j) {
    const auto start = steady_clock::now();
    for (;;) {
        if (j.cancelled.load(std::memory_order_relaxed)) break;
        const std::size_t begin = j.next.fetch_add(j.chunk, std::memory_order_relaxed);
        if (begin >= j.n) break;
        const std::size_t end = std::min(begin + j.chunk, j.n);
        try {
            for (std::size_t i = begin; i < end; ++i) (*j.fn)(i);
        } catch (...) {
            std::lock_guard lk(impl_->m);
            if (!j.error) j.error = std::current_exception();
            j.cancelled.store(true, std::memory_order_relaxed);
        }
    }
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        steady_clock::now() - start);
    j.busy_ns.fetch_add(static_cast<std::uint64_t>(ns.count()), std::memory_order_relaxed);
}

void thread_pool::worker_loop(unsigned index) {
    tl_inside_pool = true;
    std::uint64_t seen = 0;
    std::unique_lock lk(impl_->m);
    for (;;) {
        impl_->work_cv.wait(lk, [&] { return impl_->stop || impl_->generation != seen; });
        if (impl_->stop) return;
        seen = impl_->generation;
        job* j = impl_->current;
        if (j == nullptr || index >= j->participants) continue;
        lk.unlock();
        execute(*j);
        lk.lock();
        if (--impl_->pending == 0) impl_->done_cv.notify_all();
    }
}

pool_metrics thread_pool::run(std::size_t n, unsigned parallelism, std::size_t chunk,
                              const std::function<void(std::size_t)>& fn) {
    pool_metrics metrics;
    metrics.items = n;
    if (n == 0) return metrics;
    parallelism = std::clamp(parallelism, 1u, kMaxWorkers);
    if (chunk == 0) chunk = auto_chunk(n, parallelism);
    LEVY_ASSERT(chunk >= 1, "thread_pool: resolved chunk must be >= 1");
    metrics.chunk = chunk;
    const std::size_t chunks = (n + chunk - 1) / chunk;
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(parallelism, chunks));

    const auto wall_start = steady_clock::now();
    if (workers <= 1 || tl_inside_pool) {
        for (std::size_t i = 0; i < n; ++i) fn(i);
        metrics.wall_seconds = seconds_since(wall_start);
        metrics.busy_seconds = metrics.wall_seconds;
        return metrics;
    }

    std::lock_guard submit(impl_->submit);
    job j;
    j.n = n;
    j.chunk = chunk;
    j.fn = &fn;
    j.participants = workers - 1;
    while (impl_->workers.size() < j.participants) {
        const auto index = static_cast<unsigned>(impl_->workers.size());
        impl_->workers.emplace_back([this, index] { worker_loop(index); });
    }
    {
        std::lock_guard lk(impl_->m);
        impl_->current = &j;
        ++impl_->generation;
        impl_->pending = j.participants;
    }
    impl_->work_cv.notify_all();
    tl_inside_pool = true;  // a nested parallel_for from fn must stay serial
    execute(j);
    tl_inside_pool = false;
    {
        std::unique_lock lk(impl_->m);
        impl_->done_cv.wait(lk, [&] { return impl_->pending == 0; });
        impl_->current = nullptr;
    }
    metrics.workers = workers;
    metrics.wall_seconds = seconds_since(wall_start);
    metrics.busy_seconds = static_cast<double>(j.busy_ns.load()) * 1e-9;
    if (j.error) std::rethrow_exception(j.error);
    return metrics;
}

}  // namespace levy::sim
