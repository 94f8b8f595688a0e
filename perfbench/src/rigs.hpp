// The three benchmark rigs, built only from the library's public API.
//
// Each rig replays the construction and event order of a product runner
// (scenario::runPipeBulk, scenario::runMultiFlow, harness::runAnemometer),
// so for the same spec and seed it must end with the same RNG digest; the
// rigs add callbacks around the app and, when traced, the layer spans.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

enum class Workload { kPipeBdp, kCityMesh, kOfficeDay };

/// Parses a workload name (pipe_bdp, city_mesh, office_day).
bool parseWorkload(const std::string& name, Workload& out);
const char* workloadName(Workload w);

/// Set-up host time of one rig, split as the per-layer table wants it.
struct SetupTimes {
    double testbedS = 0.0;  // simulator + topology (+ routes)
    double stacksS = 0.0;   // TCP stacks, sockets, apps, connects
    double total() const { return testbedS + stacksS; }
};

/// Counts read from the library's stats accessors after a run. All of them
/// are simulated outcomes: they repeat exactly for a given seed.
struct Counts {
    // tcp (every socket of the rig)
    std::uint64_t tcpSegsSent = 0, tcpSegsReceived = 0, tcpHeaderPredictions = 0;
    std::uint64_t tcpRexmits = 0, tcpTimeouts = 0;
    std::uint64_t tcpRecvBufPeakBytes = 0;  // max over sockets (and seeds)
    double tcpRttP50Ms = 0.0;               // per run; not summed
    // sim
    std::uint64_t scheduled = 0, rescheduled = 0, fired = 0, cancelled = 0, poolPeak = 0;
    // phy
    std::uint64_t frames = 0, listenerVisits = 0, deliveryEvents = 0, collisions = 0;
    std::uint64_t neighborRebuilds = 0;
    // mac (every radio node)
    std::uint64_t macDataSent = 0, macDelivered = 0, macTransmissions = 0;
    std::uint64_t macCcaFailures = 0, macAggregated = 0;
    // lowpan
    std::uint64_t reassemblyDrops = 0, prependFallbacks = 0;
    // mesh
    std::uint64_t forwarded = 0, queueDrops = 0, noRouteDrops = 0, deepCopies = 0;
    // memory
    std::uint64_t poolFresh = 0, poolRecycled = 0, smallFnHeapFallbacks = 0;

    /// Sums every additive counter; peaks take the maximum.
    Counts& operator+=(const Counts& other);
};

/// The additive counters of Counts, for summing and fingerprinting.
inline constexpr std::uint64_t Counts::*kSummedCounts[] = {
    &Counts::tcpSegsSent,      &Counts::tcpSegsReceived, &Counts::tcpHeaderPredictions,
    &Counts::tcpRexmits,       &Counts::tcpTimeouts,     &Counts::scheduled,
    &Counts::rescheduled,      &Counts::fired,           &Counts::cancelled,
    &Counts::frames,           &Counts::listenerVisits,  &Counts::deliveryEvents,
    &Counts::collisions,       &Counts::neighborRebuilds, &Counts::macDataSent,
    &Counts::macDelivered,     &Counts::macTransmissions, &Counts::macCcaFailures,
    &Counts::macAggregated,    &Counts::reassemblyDrops, &Counts::prependFallbacks,
    &Counts::forwarded,        &Counts::queueDrops,      &Counts::noRouteDrops,
    &Counts::deepCopies,       &Counts::poolFresh,       &Counts::poolRecycled,
    &Counts::smallFnHeapFallbacks,
};

/// What one run of a rig produced in simulated terms.
struct Outcome {
    std::uint64_t rngDigest = 0;
    double simSeconds = 0.0;
    std::uint64_t appBytes = 0;       // bytes delivered to receiving apps
    std::uint64_t appDeliveries = 0;  // in-order deliveries (onData calls)
    std::uint64_t opsAttempted = 0;   // flows, or readings on office_day
    std::uint64_t opsFailed = 0;
    bool contentOk = true;
    std::string contentNote;  // why contentOk is false
    double radioDc = -1.0;      // < 0: not defined for the workload
    std::vector<std::string> flowLines;  // per-operation breakdown
    /// The outputs the matching product runner also reports, in its order
    /// (pipe: goodput; city: per-flow goodput, frames; office: generated,
    /// delivered, radio duty cycle).
    std::vector<double> runnerValues;
    Counts counts;

    /// Every simulated field, as text: equal fingerprints = equal runs.
    std::string fingerprint() const;
};

class Rig {
public:
    virtual ~Rig() = default;
    /// Runs the whole experiment, driving Simulator::runUntil in slices.
    virtual void run() = 0;
    virtual Outcome collect() = 0;
    const SetupTimes& setup() const { return setup_; }

    /// One slice of the last run(): its host time and the events it fired.
    /// A workload cuts every run into the same simulated slices.
    struct Slice {
        double seconds = 0.0;
        std::uint64_t events = 0;
    };
    const std::vector<Slice>& slices() const { return slices_; }

protected:
    SetupTimes setup_;
    std::vector<Slice> slices_;
};

/// Host time after which a rig stops its run between two slices and the
/// process exits with code 3 (a run that slow cannot finish in time).
void setRunDeadline(std::int64_t deadlineNs);

/// Builds the rig (timing its set-up). `tracer` = nullptr builds it bare.
std::unique_ptr<Rig> makeRig(Workload w, std::uint64_t seed, Tracer* tracer);

/// Runs the product runner for the same spec and seed and compares its
/// outputs with the rig's. Returns an empty string on a match, else why not.
std::string checkAgainstProduct(Workload w, std::uint64_t seed, const Outcome& rig);

}  // namespace perfbench
