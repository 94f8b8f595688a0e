// perfbench: the repository benchmark.
//
//   perfbench --workload pipe_bdp|city_mesh|office_day --seed N --seconds S
//             --trace 0|1 [--out DIR]
//
// Builds the workload's rig from the seed and runs the whole simulated
// experiment again and again until S host seconds have passed. --trace 0
// runs it bare and reports the end-to-end metrics; --trace 1 alternates
// bare and traced runs and reports the per-layer metrics (span times from
// the traced runs, trace overhead from the pair). Every run's simulated
// outputs must repeat exactly and match the product runner for the same
// spec and seed; a failed check prints "correct": false and exits 1.
//
// Output: one "metric" line per metric (name, value, unit, clock), the
// per-operation breakdown, and as the last line one JSON object with the
// keys correct, attempted, failed and metrics.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "rigs.hpp"
#include "tcplp/sim/rng.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
    Workload workload = Workload::kPipeBdp;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir;
};

bool parseArgs(int argc, char** argv, Args& a) {
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) return false;
        const std::string val = argv[++i];
        if (key == "--workload") {
            if (!parseWorkload(val, a.workload)) return false;
            haveWorkload = true;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), nullptr);
            if (!(a.seconds > 0.0)) return false;
        } else if (key == "--trace") {
            if (val != "0" && val != "1") return false;
            a.trace = val == "1";
        } else if (key == "--out") {
            a.outDir = val;
        } else {
            return false;
        }
    }
    return haveWorkload;
}

double median(std::vector<double> xs) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Linear-interpolated percentile of sorted samples.
double percentile(const std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0.0;
    const double rank = p / 100.0 * double(sorted.size() - 1);
    const std::size_t lo = std::size_t(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - double(lo));
}

/// The highest of p99.9 / p99 / p90 that has at least ten samples beyond
/// it (p50 when even p90 has not).
double tailPercentile(std::size_t n) {
    for (double p : {99.9, 99.0, 90.0})
        if (double(n) * (100.0 - p) / 100.0 >= 10.0) return p;
    return 50.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peakRssMiB() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

enum class Group { kEndToEnd, kLayer, kReport };

struct Metric {
    std::string name;
    double value;
    std::string unit;
    const char* clock;  // "host" or "sim"
    Group group;
    std::string note;
};

/// Simulated experiments per run: each --seed expands into this many
/// derived simulation seeds, cycled through run after run, so one run's
/// figures average over several inputs. The pipe's outcome does not depend
/// on the seed, so it runs one.
std::size_t experimentsPerRun(Workload w) { return w == Workload::kPipeBdp ? 1 : 8; }

/// Host seconds after which a run in progress is abandoned (exit code 3).
constexpr double kHardBudgetS = 140.0;

/// Set-up samples taken around each measured bare run (its own included),
/// so set-up time is sampled across the whole measuring window.
constexpr std::size_t kSetupsPerRun = 3;

/// Span-derived figures of one traced run.
struct TracedRep {
    double tcpP50 = 0.0, tcpTail = 0.0, tcpShare = 0.0;
    double rxP50 = 0.0, rxTail = 0.0;
    double engineNsPerEvent = 0.0, engineShare = 0.0;
    double txNsPerPacket = 0.0, appNsPerSeg = 0.0;
    std::array<double, kLayerCount> selfShare{};
};

/// One run of a rig, with its host time and allocation count.
struct Measured {
    double runS = 0.0;
    std::vector<Rig::Slice> slices;
    std::uint64_t allocs = 0;
    Outcome outcome;
};

/// The best host cost per event seen for each slice position, over runs of
/// any seed (a slice position covers the same simulated phase in every
/// seed's run).
class BestCost {
public:
    void add(const std::vector<Rig::Slice>& slices) {
        if (cost_.size() < slices.size())
            cost_.resize(slices.size(), std::numeric_limits<double>::infinity());
        for (std::size_t i = 0; i < slices.size(); ++i) {
            const double c = slices[i].seconds / double(std::max<std::uint64_t>(1, slices[i].events));
            cost_[i] = std::min(cost_[i], c);
        }
    }
    /// Host seconds of a run with these slices, at the best costs.
    double seconds(const std::vector<Rig::Slice>& slices) const {
        double total = 0.0;
        for (std::size_t i = 0; i < slices.size() && i < cost_.size(); ++i)
            total += cost_[i] * double(std::max<std::uint64_t>(1, slices[i].events));
        return total;
    }

private:
    std::vector<double> cost_;
};

Measured measure(Workload w, std::uint64_t seed, Tracer* tracer, std::vector<SetupTimes>* setups) {
    std::unique_ptr<Rig> rig = makeRig(w, seed, tracer);
    if (setups != nullptr) setups->push_back(rig->setup());
    Measured m;
    const std::uint64_t allocBase = allocCount();
    const std::int64_t t0 = nowNs();
    rig->run();
    m.runS = double(nowNs() - t0) * 1e-9;
    m.allocs = allocCount() - allocBase;
    m.slices = rig->slices();
    m.outcome = rig->collect();
    return m;
}

int runBenchmark(const Args& args) {
    const Workload w = args.workload;
    const bool radio = w != Workload::kPipeBdp;
    // Whatever happens, stop well inside the 180 s a run may take.
    setRunDeadline(nowNs() + std::int64_t(kHardBudgetS * 1e9));
    std::vector<std::uint64_t> seeds;
    for (std::size_t k = 0; k < experimentsPerRun(w); ++k)
        seeds.push_back(tcplp::sim::Rng::deriveStream(args.seed, k));
    const std::size_t K = seeds.size();

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d experiments=%zu\n",
                workloadName(w), (unsigned long long)args.seed, args.seconds, int(args.trace), K);
    std::printf("build compiler=\"%s %s\" build_type=%s\n",
#if defined(__clang__)
                "clang",
#else
                "gcc",
#endif
                __VERSION__, PERFBENCH_BUILD_TYPE);

    // Set-up samples: every seed's rig built and dropped a few times before
    // the runs, then kSetupsPerRun more around each bare run.
    std::vector<SetupTimes> setups;
    for (std::size_t i = 0; i < std::max<std::size_t>(10, K); ++i)
        setups.push_back(makeRig(w, seeds[i % K], nullptr)->setup());

    // Measured runs cycle through the seeds until the time is up and every
    // seed has run; with --trace 1 each bare run is followed by a traced run
    // of the same seed. Every run of a seed must reproduce its first run.
    // The host is shared, and interference only ever slows work down, in
    // bursts shorter than a run. Host time is therefore taken at the best
    // cost seen: for each slice position, the fastest host seconds per
    // simulated event over all runs, times each experiment's events there.
    BestCost bareCost, tracedCost;
    std::vector<std::vector<Rig::Slice>> seedSlices(K);
    std::vector<double> bareTimes;
    std::vector<std::uint64_t> runAllocs(K);
    std::vector<TracedRep> traced;
    std::vector<Outcome> outcomes(K);
    std::vector<std::string> reference(K);
    std::vector<std::uint64_t> tcpCalls(K), rxCalls(K);
    std::unique_ptr<Tracer> lastTracer;
    std::uint64_t attempted = 0, failedRuns = 0;
    std::string failure;
    double tcpTailP = 50.0, rxTailP = 50.0;
    std::size_t spanReserve = 0;
    const auto check = [&](std::size_t k, const Outcome& o, const char* kind) {
        ++attempted;
        const std::string fp = o.fingerprint();
        if (reference[k].empty()) {
            reference[k] = fp;
            outcomes[k] = o;
        }
        if (fp != reference[k]) {
            ++failedRuns;
            failure = std::string(kind) + " run's outputs differ from the first run of its seed";
        } else if (!o.contentOk) {
            ++failedRuns;
            failure = "content check failed: " + o.contentNote;
        }
    };
    const std::int64_t deadline = nowNs() + std::int64_t(args.seconds * 1e9);
    for (std::size_t j = 0; j < K || nowNs() < deadline; ++j) {
        const std::size_t k = j % K;
        for (std::size_t extra = 1; extra < kSetupsPerRun; ++extra)
            setups.push_back(makeRig(w, seeds[k], nullptr)->setup());
        const Measured b = measure(w, seeds[k], nullptr, &setups);
        check(k, b.outcome, "bare");
        bareCost.add(b.slices);
        if (seedSlices[k].empty()) seedSlices[k] = b.slices;
        bareTimes.push_back(b.runS);
        runAllocs[k] = b.allocs;
        if (!args.trace) continue;

        auto tracer = std::make_unique<Tracer>();
        tracer->reserve(spanReserve);
        const Measured t = measure(w, seeds[k], tracer.get(), nullptr);
        check(k, t.outcome, "traced");
        spanReserve = tracer->spans().size();
        const LayerTimes L = summarize(*tracer);
        const auto& tcpD = L.durNs[std::size_t(Layer::kTcpInput)];
        const auto& rxD = L.durNs[std::size_t(Layer::kMeshRx)];
        tcpCalls[k] = tcpD.size();
        rxCalls[k] = rxD.size();
        tcpTailP = tailPercentile(tcpD.size());
        rxTailP = tailPercentile(rxD.size());
        const double runNs = t.runS * 1e9;
        const double engine = runNs - double(L.rootNs);
        tracedCost.add(t.slices);
        TracedRep r;
        r.tcpP50 = percentile(tcpD, 50.0);
        r.tcpTail = percentile(tcpD, tcpTailP);
        r.tcpShare = ratio(double(L.selfNs[std::size_t(Layer::kTcpInput)]), runNs);
        r.rxP50 = percentile(rxD, 50.0);
        r.rxTail = percentile(rxD, rxTailP);
        r.engineNsPerEvent = ratio(engine, double(t.outcome.counts.fired));
        r.engineShare = ratio(engine, runNs);
        r.txNsPerPacket = radio ? ratio(double(L.selfNs[std::size_t(Layer::kNetSend)]),
                                        double(L.calls[std::size_t(Layer::kNetSend)]))
                                : 0.0;
        r.appNsPerSeg =
            ratio(double(L.selfNs[std::size_t(Layer::kApp)]), double(t.outcome.appDeliveries));
        for (std::size_t l = 0; l < kLayerCount; ++l)
            r.selfShare[l] = ratio(double(L.selfNs[l]), runNs);
        traced.push_back(r);
        lastTracer = std::move(tracer);
    }
    const double rssMiB = peakRssMiB();

    for (std::size_t k = 0; k < K && failure.empty(); ++k) {
        const std::string why = checkAgainstProduct(w, seeds[k], outcomes[k]);
        if (!why.empty()) failure = "product runner check failed: " + why;
    }
    if (lastTracer && !args.outDir.empty()) {
        const std::string path = args.outDir + "/" + workloadName(w) + ".spans.csv";
        if (lastTracer->writeCsv(path))
            std::printf("spans of the last traced run written to %s\n", path.c_str());
        else
            std::printf("could not write %s\n", path.c_str());
    }

    // --- Simulated totals over the seeds ------------------------------------
    double bareS = 0.0, tracedS = 0.0;  // host time of all experiments, best cost
    std::vector<double> bestRunS(K);
    for (std::size_t k = 0; k < K; ++k) {
        bestRunS[k] = bareCost.seconds(seedSlices[k]);
        bareS += bestRunS[k];
        tracedS += tracedCost.seconds(seedSlices[k]);
    }
    Counts c;
    double simSeconds = 0.0, radioDc = 0.0;
    std::uint64_t appBytes = 0, appDeliveries = 0, opsAttempted = 0, opsFailed = 0, allocs = 0;
    std::vector<double> rttP50;
    for (std::size_t k = 0; k < K; ++k) {
        const Outcome& o = outcomes[k];
        c += o.counts;
        appDeliveries += o.appDeliveries;
        allocs += runAllocs[k];
        simSeconds += o.simSeconds;
        appBytes += o.appBytes;
        opsAttempted += o.opsAttempted;
        opsFailed += o.opsFailed;
        radioDc += o.radioDc / double(K);
        rttP50.push_back(o.counts.tcpRttP50Ms);
    }

    // --- Metrics ----------------------------------------------------------
    const auto column = [](const auto& reps, auto field) {
        std::vector<double> xs;
        for (const auto& r : reps) xs.push_back(r.*field);
        return median(xs);
    };
    std::vector<double> setupTotal, setupTestbed, setupStacks;
    for (const SetupTimes& s : setups) {
        setupTotal.push_back(s.total());
        setupTestbed.push_back(s.testbedS);
        setupStacks.push_back(s.stacksS);
    }

    std::vector<Metric> m;
    const auto add = [&m](std::string name, double value, std::string unit, const char* clock,
                          Group g, std::string note = "") {
        m.push_back(Metric{std::move(name), value, std::move(unit), clock, g, std::move(note)});
    };
    const Group E = Group::kEndToEnd, R = Group::kReport, L = Group::kLayer;
    add("setup_s", median(setupTotal), "s", "host", E,
        "median of " + std::to_string(setups.size()) + " set-ups");
    add("sim_rate", simSeconds / bareS, "sim_s/s", "host", E, "at the best host cost per event");
    add("seg_rate", double(appDeliveries) / bareS, "seg/s", "host", E,
        "in-order deliveries to apps per host second");
    add("peak_rss_mb", rssMiB, "MiB", "host", E);
    add("goodput_kbps", double(appBytes) * 8.0 / 1000.0 / simSeconds, "kb/s", "sim", E,
        "app bytes over simulated time, all experiments");
    if (radio) {
        add("frame_rate", double(c.frames) / bareS, "frames/s", "host", R);
        add("reliability", ratio(double(opsAttempted - opsFailed), double(opsAttempted)), "ratio",
            "sim", R,
            w == Workload::kCityMesh ? "flows that delivered / flows"
                                     : "readings delivered / generated");
    }
    if (w == Workload::kOfficeDay)
        add("radio_dc", radioDc, "ratio", "sim", R, "mean sensor radio duty cycle");

    const auto pctNote = [](double p, const std::vector<std::uint64_t>& calls) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "p%g; %llu to %llu spans per traced run", p,
                      (unsigned long long)*std::min_element(calls.begin(), calls.end()),
                      (unsigned long long)*std::max_element(calls.begin(), calls.end()));
        return std::string(buf);
    };
    const double fired = double(c.fired);
    std::uint64_t tcpCallsTotal = 0, rxCallsTotal = 0;
    for (std::size_t k = 0; k < K; ++k) {
        tcpCallsTotal += tcpCalls[k];
        rxCallsTotal += rxCalls[k];
    }
    add("tcp.input_ns_p50", column(traced, &TracedRep::tcpP50), "ns", "host", L,
        pctNote(50, tcpCalls));
    add("tcp.input_ns_p99", column(traced, &TracedRep::tcpTail), "ns", "host", L,
        pctNote(tcpTailP, tcpCalls));
    add("tcp.input_calls", double(tcpCallsTotal), "count", "sim", L);
    add("tcp.self_share", column(traced, &TracedRep::tcpShare), "ratio", "host", L);
    add("tcp.hdr_pred_ratio", ratio(double(c.tcpHeaderPredictions), double(c.tcpSegsReceived)),
        "ratio", "sim", L);
    add("tcp.rexmit_ratio", ratio(double(c.tcpRexmits), double(c.tcpSegsSent)), "ratio", "sim", L);
    add("tcp.timeouts", double(c.tcpTimeouts), "count", "sim", L);
    add("tcp.recv_buf_peak_kib", double(c.tcpRecvBufPeakBytes) / 1024.0, "KiB", "sim", L);
    add("tcp.rtt_p50_ms", median(rttP50), "ms", "sim", L, "median over experiments");
    add("sim.events", fired, "count", "sim", L);
    add("sim.ns_per_event", ratio(bareS * 1e9, fired), "ns", "host", L, "bare, at the best cost");
    add("sim.rearm_ratio", ratio(double(c.rescheduled), double(c.scheduled + c.rescheduled)),
        "ratio", "sim", L);
    add("sim.cancel_ratio", ratio(double(c.cancelled), double(c.scheduled)), "ratio", "sim", L);
    add("sim.pool_peak", double(c.poolPeak), "count", "sim", L);
    add("engine.self_ns_per_event", column(traced, &TracedRep::engineNsPerEvent), "ns", "host",
        L, "run time outside every span, per event");
    add("engine.self_share", column(traced, &TracedRep::engineShare), "ratio", "host", L);
    add("phy.frames", double(c.frames), "count", "sim", L);
    add("phy.visits_per_frame", ratio(double(c.listenerVisits), double(c.frames)), "ratio", "sim", L);
    add("phy.delivery_events", double(c.deliveryEvents), "count", "sim", L);
    add("phy.collision_ratio", ratio(double(c.collisions), double(c.frames)), "ratio", "sim", L);
    add("phy.neighbor_rebuilds", double(c.neighborRebuilds), "count", "sim", L);
    add("mac.tx_per_payload", ratio(double(c.macTransmissions), double(c.macDataSent)), "ratio",
        "sim", L);
    add("mac.delivery_ratio", ratio(double(c.macDelivered), double(c.macDataSent)), "ratio", "sim", L);
    add("mac.cca_fail_ratio",
        ratio(double(c.macCcaFailures), double(c.macTransmissions + c.macCcaFailures)), "ratio",
        "sim", L);
    add("mac.agg_frames", double(c.macAggregated), "count", "sim", L);
    add("lowpan.frames_per_datagram", ratio(double(c.macDataSent), double(c.tcpSegsSent)), "ratio",
        "sim", L, "MAC payloads (every hop) per TCP datagram sent");
    add("lowpan.reassembly_drops", double(c.reassemblyDrops), "count", "sim", L);
    add("lowpan.prepend_fallbacks", double(c.prependFallbacks), "count", "sim", L);
    add("mesh.rx_ns_p50", column(traced, &TracedRep::rxP50), "ns", "host", L, pctNote(50, rxCalls));
    add("mesh.rx_ns_p99", column(traced, &TracedRep::rxTail), "ns", "host", L,
        pctNote(rxTailP, rxCalls));
    add("mesh.rx_calls", double(rxCallsTotal), "count", "sim", L);
    add("mesh.tx_ns_per_pkt", column(traced, &TracedRep::txNsPerPacket), "ns", "host", L,
        "net.send self time per packet");
    add("mesh.forwarded", double(c.forwarded), "count", "sim", L);
    add("mesh.queue_drops", double(c.queueDrops), "count", "sim", L);
    add("mesh.noroute_drops", double(c.noRouteDrops), "count", "sim", L);
    add("mesh.deep_copies", double(c.deepCopies), "count", "sim", L);
    add("app.self_ns_per_seg", column(traced, &TracedRep::appNsPerSeg), "ns", "host", L);
    add("app.bytes", double(appBytes), "bytes", "sim", L);
    add("pool.fresh_per_frame", ratio(double(c.poolFresh), double(c.frames)), "ratio", "sim", L);
    add("pool.recycled", double(c.poolRecycled), "count", "sim", L);
    add("alloc.per_event", ratio(double(allocs), fired), "ratio", "sim", L,
        "heap allocations during bare runs per event");
    add("smallfn.heap_fallbacks", double(c.smallFnHeapFallbacks), "count", "sim", L);
    add("setup.testbed_s", median(setupTestbed), "s", "host", L);
    add("setup.stacks_s", median(setupStacks), "s", "host", L);
    add("trace.overhead", traced.empty() ? 0.0 : tracedS / bareS - 1.0, "ratio", "host", L,
        "traced / bare host time, both at the best cost - 1");
    add("ops.attempted", double(opsAttempted), "count", "sim", L,
        w == Workload::kOfficeDay ? "readings" : "flows");
    add("ops.failed", double(opsFailed), "count", "sim", L);

    for (const Metric& x : m) {
        if (!std::isfinite(x.value)) failure = "metric " + x.name + " is not finite";
    }
    const bool correct = failure.empty();

    // --- Report -----------------------------------------------------------
    std::printf("runs: %zu bare (median %.6f s), %zu traced; bare run times (s):",
                bareTimes.size(), median(bareTimes), traced.size());
    for (double t : bareTimes) std::printf(" %.4f", t);
    std::printf("\n");
    for (std::size_t k = 0; k < K; ++k) {
        const Outcome& o = outcomes[k];
        std::printf("experiment %zu: sim_seed=%llu digest=%016llx operations=%llu failed=%llu "
                    "best_cost_s=%.6f\n",
                    k, (unsigned long long)seeds[k], (unsigned long long)o.rngDigest,
                    (unsigned long long)o.opsAttempted, (unsigned long long)o.opsFailed,
                    bestRunS[k]);
    }
    std::printf("breakdown of experiment 0:\n");
    for (const std::string& line : outcomes[0].flowLines) std::printf("  %s\n", line.c_str());
    if (w == Workload::kCityMesh && opsFailed > 0) {
        std::printf("KNOWN OPEN FAILURE: %llu of %llu flows deliver nothing. The cloud host's id "
                    "(1000) equals mesh node 1000's short address and Node::lookupRoute keys on "
                    "the short address alone, so relays above node 1000 divert cloud-bound "
                    "packets (see perfbench/README.md).\n",
                    (unsigned long long)opsFailed, (unsigned long long)opsAttempted);
    }
    if (!traced.empty()) {
        std::printf("self time shares (last traced run):");
        for (std::size_t l = 0; l < kLayerCount; ++l)
            std::printf(" %s=%.4f", layerName(Layer(l)), traced.back().selfShare[l]);
        std::printf(" engine=%.4f\n", traced.back().engineShare);
    }
    for (const Metric& x : m) {
        if (x.group == Group::kLayer && !args.trace) continue;
        std::printf("metric %-26s %.9g %s [%s]%s%s\n", x.name.c_str(), x.value, x.unit.c_str(),
                    x.clock, x.note.empty() ? "" : " ", x.note.c_str());
    }
    if (!correct) std::printf("CHECK FAILED: %s\n", failure.c_str());

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failedRuns);
    json += ", \"metrics\": {";
    bool first = true;
    const Group want = args.trace ? Group::kLayer : Group::kEndToEnd;
    for (const Metric& x : m) {
        if (x.group != want) continue;
        char buf[256];
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", x.name.c_str(), x.value, x.unit.c_str());
        json += buf;
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    perfbench::Args args;
    if (!perfbench::parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload pipe_bdp|city_mesh|office_day --seed N "
                     "--seconds S --trace 0|1 [--out DIR]\n");
        return 2;
    }
    return perfbench::runBenchmark(args);
}
