// Deterministic discrete-event simulation engine.
//
// All ZugChain experiments run on virtual time: the bus master, network
// links, CPU model, protocol timers and fault schedules all enqueue events
// here. Two runs with the same seed execute the exact same event sequence,
// which is what makes the reproduction's failure-injection tests and
// benchmarks repeatable.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "prof/prof.hpp"

namespace zc::sim {

/// Handle for a scheduled event; used to cancel timers.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEvent = 0;

class Simulation {
public:
    explicit Simulation(std::uint64_t seed = 1);

    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    /// Current virtual time.
    TimePoint now() const noexcept { return now_; }

    /// Stable pointer to the virtual clock, for components that need a
    /// time source but hold no simulation reference (trace contexts).
    const TimePoint* now_handle() const noexcept { return &now_; }

    /// Schedules `fn` to run after `delay` (clamped to >= 0). Events with
    /// equal timestamps run in scheduling order.
    EventId schedule(Duration delay, std::function<void()> fn);

    /// Schedules at an absolute virtual time.
    EventId schedule_at(TimePoint when, std::function<void()> fn);

    /// Runs `tick` `first` from now and then every `period` for the life of
    /// the simulation; each run schedules the next after `tick` returns.
    void every(Duration first, Duration period, std::function<void()> tick);
    void every(Duration period, std::function<void()> tick) {
        every(period, period, std::move(tick));
    }

    /// Cancels a pending event. Cancelling an already-fired or invalid id
    /// is a no-op (timers race with their own cancellation by design).
    void cancel(EventId id) noexcept;

    /// True if the event is still pending.
    bool pending(EventId id) const noexcept;

    /// Runs the next event; returns false when the queue is empty.
    bool step();

    /// Runs all events with timestamp <= t, then advances the clock to t.
    void run_until(TimePoint t);

    /// Runs for a duration from the current time.
    void run_for(Duration d) { run_until(now_ + d); }

    /// Runs until the event queue drains completely.
    void run();

    std::size_t pending_events() const noexcept { return handlers_.size(); }

    /// Root randomness for this simulation; components fork sub-streams.
    Rng& rng() noexcept { return rng_; }

    /// Attaches a host-cost profiler: handler dispatch is attributed per
    /// event and the run loops feed sim-progress (sim_rate) accounting.
    /// Null (the default) keeps the loop unprofiled — a single branch per
    /// event. The profiler only reads the host clock, so attaching one
    /// never perturbs virtual time.
    void set_profiler(prof::Profiler* prof) noexcept { prof_ = prof; }
    prof::Profiler* profiler() const noexcept { return prof_; }

private:
    struct QueueEntry {
        TimePoint at;
        std::uint64_t seq;
        EventId id;
        bool operator>(const QueueEntry& o) const noexcept {
            if (at != o.at) return at > o.at;
            return seq > o.seq;
        }
    };

    TimePoint now_{0};
    std::uint64_t next_seq_ = 1;
    std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> queue_;
    std::unordered_map<EventId, std::function<void()>> handlers_;
    Rng rng_;
    prof::Profiler* prof_ = nullptr;
};

}  // namespace zc::sim
