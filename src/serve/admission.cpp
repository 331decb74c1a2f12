#include "src/serve/admission.h"

#include <algorithm>

#include "src/core/contracts.h"

namespace levy::serve {

const char* admit_result_name(admit_result r) noexcept {
    switch (r) {
        case admit_result::admitted: return "admitted";
        case admit_result::shed_queue_full: return "shed_queue_full";
        case admit_result::shed_bytes_exhausted: return "shed_bytes_exhausted";
        case admit_result::shed_shutdown: return "shed_shutdown";
    }
    return "unknown";
}

admission_queue::admission_queue(const admission_options& opts) : opts_(opts) {
    LEVY_PRECONDITION(opts_.queue_capacity >= 1,
                      "admission_queue: queue_capacity must be >= 1");
    LEVY_PRECONDITION(opts_.reserved_bytes_per_request >= 1,
                      "admission_queue: reserved_bytes_per_request must be >= 1");
    if (opts_.max_inflight_bytes == 0) {
        // Default budget: every queue slot plus as many in-flight requests
        // again — the byte gate then only trips ahead of the queue gate when
        // the caller tightens it explicitly.
        opts_.max_inflight_bytes =
            2 * opts_.queue_capacity * opts_.reserved_bytes_per_request;
    }
}

admit_result admission_queue::try_admit(int fd) {
    std::lock_guard lk(m_);
    if (shutdown_) {
        shed_shutdown_.add();
        return admit_result::shed_shutdown;
    }
    if (queue_.size() >= opts_.queue_capacity) {
        shed_queue_full_.add();
        return admit_result::shed_queue_full;
    }
    if (reserved_ + opts_.reserved_bytes_per_request > opts_.max_inflight_bytes) {
        shed_bytes_.add();
        return admit_result::shed_bytes_exhausted;
    }
    reserved_ += opts_.reserved_bytes_per_request;
    admission_ticket ticket;
    ticket.fd = fd;
    ticket.sequence = next_sequence_++;
    queue_.push_back(ticket);
    admitted_.add();
    cv_.notify_one();
    return admit_result::admitted;
}

std::optional<admission_ticket> admission_queue::pop() {
    std::unique_lock lk(m_);
    cv_.wait(lk, [&] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;  // shutdown with a drained queue
    const admission_ticket ticket = queue_.front();
    queue_.pop_front();
    return ticket;
}

void admission_queue::release() noexcept {
    std::lock_guard lk(m_);
    if (reserved_ >= opts_.reserved_bytes_per_request) {
        reserved_ -= opts_.reserved_bytes_per_request;
    } else {
        reserved_ = 0;
    }
}

void admission_queue::shutdown() noexcept {
    {
        std::lock_guard lk(m_);
        shutdown_ = true;
    }
    cv_.notify_all();
}

std::deque<int> admission_queue::drain() {
    std::lock_guard lk(m_);
    std::deque<int> fds;
    for (const admission_ticket& t : queue_) fds.push_back(t.fd);
    reserved_ -= std::min(reserved_, queue_.size() * opts_.reserved_bytes_per_request);
    queue_.clear();
    return fds;
}

std::size_t admission_queue::depth() const {
    std::lock_guard lk(m_);
    return queue_.size();
}

std::size_t admission_queue::reserved_bytes() const {
    std::lock_guard lk(m_);
    return reserved_;
}

admission_queue::counters admission_queue::stats() const {
    return {admitted_.value(), shed_queue_full_.value(), shed_bytes_.value(),
            shed_shutdown_.value()};
}

}  // namespace levy::serve
