#include "sim/simulation.hpp"

namespace zc::sim {

Simulation::Simulation(std::uint64_t seed) : rng_(seed) {}

EventId Simulation::schedule(Duration delay, std::function<void()> fn) {
    if (delay < Duration::zero()) delay = Duration::zero();
    return schedule_at(now_ + delay, std::move(fn));
}

EventId Simulation::schedule_at(TimePoint when, std::function<void()> fn) {
    if (when < now_) when = now_;
    const EventId id = next_seq_++;
    queue_.push(QueueEntry{when, id, id});
    handlers_.emplace(id, std::move(fn));
    return id;
}

void Simulation::every(Duration first, Duration period, std::function<void()> tick) {
    schedule(first, [this, period, tick = std::move(tick)]() mutable {
        tick();
        every(period, period, std::move(tick));
    });
}

void Simulation::cancel(EventId id) noexcept { handlers_.erase(id); }

bool Simulation::pending(EventId id) const noexcept { return handlers_.contains(id); }

bool Simulation::step() {
    while (!queue_.empty()) {
        const QueueEntry entry = queue_.top();
        queue_.pop();
        auto it = handlers_.find(entry.id);
        if (it == handlers_.end()) continue;  // cancelled
        now_ = entry.at;
        // Move the handler out before erasing: the handler may schedule or
        // cancel other events (including rescheduling its own id).
        auto fn = std::move(it->second);
        handlers_.erase(it);
        if (prof_ != nullptr) {
            prof::Scope dispatch(prof::Subsystem::kDispatch);
            fn();
        } else {
            fn();
        }
        return true;
    }
    return false;
}

void Simulation::run_until(TimePoint t) {
    // Sim-progress accounting brackets the whole loop: virtual time
    // advanced over host time spent, the sim_rate numerator/denominator.
    prof::Profiler* const prof = prof_;
    const std::uint64_t wall0 = prof != nullptr ? prof->clock_now() : 0;
    const TimePoint virt0 = now_;
    if (prof != nullptr) prof->begin(prof::Subsystem::kEventLoop);

    while (!queue_.empty()) {
        const QueueEntry& entry = queue_.top();
        if (!handlers_.contains(entry.id)) {
            queue_.pop();
            continue;
        }
        if (entry.at > t) break;
        step();
    }
    if (now_ < t) now_ = t;

    if (prof != nullptr) {
        prof->end();
        prof->add_sim_progress((now_ - virt0).count(), prof->clock_now() - wall0);
    }
}

void Simulation::run() {
    prof::Profiler* const prof = prof_;
    const std::uint64_t wall0 = prof != nullptr ? prof->clock_now() : 0;
    const TimePoint virt0 = now_;
    if (prof != nullptr) prof->begin(prof::Subsystem::kEventLoop);

    while (step()) {
    }

    if (prof != nullptr) {
        prof->end();
        prof->add_sim_progress((now_ - virt0).count(), prof->clock_now() - wall0);
    }
}

}  // namespace zc::sim
