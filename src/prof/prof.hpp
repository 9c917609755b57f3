// Host-side cost profiler: where does *wall-clock* time go?
//
// Everything else in this repo measures virtual time — the deterministic
// clock the scenarios run on. Nothing there says how expensive the
// simulator itself is on the host, which is exactly what the parallel
// crypto/execution pipeline work needs as a baseline. This profiler
// attributes host nanoseconds (std::chrono::steady_clock) to a small
// fixed taxonomy of subsystems via RAII scopes placed at the hot-path
// choke points (crypto sign/verify, codec encode/decode, BlockStore
// append/load, event-loop dispatch, DC ingest), and computes the
// headline sim_rate: virtual seconds simulated per wall second.
//
// Disabled-path contract: a profiler scope where no profiler is active
// is a single branch on one process-global pointer — no clock read, no
// allocation, no stores. The virtual side never observes the profiler
// at all (it only ever *reads* the host clock), so same-seed runs stay
// byte-identical with profiling on or off; host timings are segregated
// into their own `host` report sections.
//
// Attribution is self-time based: a scope's child time is subtracted
// from its own bucket, so summing the per-subsystem `self` seconds
// never double-counts nested scopes (codec work inside a store append
// counts as codec, not twice). The scope stack is fixed-size and the
// counters are plain arrays — begin/end is two clock reads and a few
// adds.
//
// Not thread-safe by design: the simulator runs its event loop on one
// host thread.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace zc::prof {

/// Host-cost attribution buckets. Order is the report order; names live
/// in subsystem_name().
enum class Subsystem : std::uint8_t {
    kSetup,         ///< scenario/shard/fleet construction (keys, wiring)
    kEventLoop,     ///< sim run-loop overhead (queue pops, bookkeeping)
    kDispatch,      ///< event handler bodies, minus nested subsystems
    kCryptoSign,    ///< CryptoContext::sign (Ed25519 / fast provider)
    kCryptoVerify,  ///< CryptoContext::verify
    kCodecEncode,   ///< codec::encode_to_bytes (all wire messages)
    kCodecDecode,   ///< codec::decode_from_bytes / try_decode
    kStoreAppend,   ///< BlockStore::append (incl. persistence)
    kStoreLoad,     ///< BlockStore::load (crash recovery, tooling)
    kDcIngest,      ///< data-center ingest jobs (export/DC frontend)
    kDcSync,        ///< DC-to-DC sync message handling
    kAudit,         ///< SafetyAuditor passes
};

inline constexpr unsigned kSubsystemCount = static_cast<unsigned>(Subsystem::kAudit) + 1;

const char* subsystem_name(Subsystem s) noexcept;

/// Peak resident set size of this process in bytes (getrusage), 0 where
/// unsupported.
std::uint64_t peak_rss_bytes() noexcept;

class Profiler {
public:
    /// Monotonic nanosecond clock. Injectable so attribution tests are
    /// deterministic; null uses std::chrono::steady_clock.
    using ClockFn = std::uint64_t (*)();

    explicit Profiler(ClockFn clock = nullptr);

    Profiler(const Profiler&) = delete;
    Profiler& operator=(const Profiler&) = delete;
    ~Profiler();

    /// The process-global active profiler. ZC_PROF_SCOPE instrumentation
    /// points read this pointer; null (the default) disables them all.
    static Profiler* active() noexcept { return g_active; }
    static void set_active(Profiler* p) noexcept { g_active = p; }

    /// Opens / closes an attribution scope. Unbalanced ends are ignored;
    /// stack overflow degrades gracefully (extra begins are dropped and
    /// their matching ends swallowed).
    void begin(Subsystem s) noexcept;
    void end() noexcept;

    /// Sim-progress accounting, fed by sim::Simulation's run loops:
    /// `virtual_ns` of simulated time advanced over `wall_ns` of host
    /// time. sim_rate() is their ratio.
    void add_sim_progress(std::int64_t virtual_ns, std::uint64_t wall_ns) noexcept;

    std::uint64_t clock_now() const noexcept { return clock_(); }

    /// Inclusive time of scopes closed so far (nested child time included).
    std::uint64_t total_ns(Subsystem s) const noexcept;
    /// Exclusive (self) time: inclusive minus time spent in nested scopes.
    std::uint64_t self_ns(Subsystem s) const noexcept;
    std::uint64_t count(Subsystem s) const noexcept;
    std::size_t depth() const noexcept { return depth_; }

    std::int64_t sim_virtual_ns() const noexcept { return sim_virtual_ns_; }
    std::uint64_t sim_wall_ns() const noexcept { return sim_wall_ns_; }

    /// Virtual seconds simulated per wall second (0 before any run loop).
    double sim_rate() const noexcept;

    /// Wall nanoseconds since this profiler was constructed.
    std::uint64_t enabled_wall_ns() const noexcept { return clock_() - born_; }

    /// Frozen copy of all counters, taken right after the measured runs
    /// (before report formatting, so coverage is judged against the work
    /// actually profiled).
    struct Snapshot {
        struct Row {
            const char* name = "";
            double self_s = 0.0;
            double total_s = 0.0;
            std::uint64_t count = 0;
        };
        double wall_s = 0.0;         ///< profiler construction -> snapshot
        double covered_s = 0.0;      ///< sum of self_s over all rows
        double sim_virtual_s = 0.0;  ///< virtual time advanced in run loops
        double sim_wall_s = 0.0;     ///< host time inside run loops
        double sim_rate = 0.0;       ///< sim_virtual_s / sim_wall_s
        std::uint64_t peak_rss = 0;  ///< bytes
        Row rows[kSubsystemCount];   ///< enum order

        /// Deterministically *shaped* JSON (fixed key order; the values
        /// are host measurements and vary run to run):
        ///   {"sim_rate":..,"wall_s":..,"sim_virtual_s":..,
        ///    "coverage_pct":..,"peak_rss_bytes":..,
        ///    "subsystems":{"setup":{"self_s":..,"total_s":..,"count":..},..}}
        std::string json() const;

        /// Top-N cost table sorted by self time, for --prof console runs.
        void print_table(std::FILE* out, std::size_t top_n = 8) const;
    };
    Snapshot snapshot() const;

private:
    struct Frame {
        Subsystem subsys;
        std::uint64_t start;
        std::uint64_t child_ns;
    };
    struct Counters {
        std::uint64_t self_ns = 0;
        std::uint64_t total_ns = 0;
        std::uint64_t count = 0;
    };

    static constexpr std::size_t kMaxDepth = 64;

    static std::uint64_t steady_ns() noexcept;

    inline static Profiler* g_active = nullptr;

    ClockFn clock_;
    std::uint64_t born_;
    std::size_t depth_ = 0;
    std::uint64_t overflow_ = 0;
    Frame stack_[kMaxDepth];
    Counters by_[kSubsystemCount]{};
    std::int64_t sim_virtual_ns_ = 0;
    std::uint64_t sim_wall_ns_ = 0;
};

/// RAII attribution scope. Captures the active profiler once so a scope
/// stays balanced even if the active pointer changes inside it.
class Scope {
public:
    explicit Scope(Subsystem s) noexcept : prof_(Profiler::active()) {
        if (prof_ != nullptr) prof_->begin(s);
    }
    ~Scope() {
        if (prof_ != nullptr) prof_->end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    Profiler* prof_;
};

}  // namespace zc::prof

#define ZC_PROF_CONCAT_INNER(a, b) a##b
#define ZC_PROF_CONCAT(a, b) ZC_PROF_CONCAT_INNER(a, b)

/// Attributes the enclosing block to `subsys` (a zc::prof::Subsystem
/// enumerator name, e.g. ZC_PROF_SCOPE(kCryptoSign)). With no active
/// profiler this is a single branch on one global pointer.
#define ZC_PROF_SCOPE(subsys) \
    ::zc::prof::Scope ZC_PROF_CONCAT(zc_prof_scope_, __COUNTER__)(::zc::prof::Subsystem::subsys)
