/**
 * @file
 * The per-layer pass over one closed-loop System unit, shared by
 * fullsim_suite (each Table-4 unit) and replay_bakeoff (its source
 * recording).  Every number comes from public library calls timed by
 * spans: the run itself paired with a same-defense replay of its
 * recording, the recording, a re-drain of the unit's workload
 * generators, and the unit's DRAM command stream re-driven through
 * fresh DramDevice, TimingChecker and PracEngine instances.
 */

#ifndef PERFBENCH_SYSTEM_LAYERS_H
#define PERFBENCH_SYSTEM_LAYERS_H

#include <array>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "cpu/system.h"
#include "sim/design.h"
#include "trace/replay.h"

namespace perfbench {

/** Cores per simulated system (the paper's 4-core mixes). */
inline constexpr std::uint32_t kCores = 4;

/** @p name from the standard suite with every generator seed derived. */
pracleak::SuiteEntry seededEntry(const std::string &name,
                                 std::uint64_t seed);

/** Digest of a run's modeled outputs (no sched.* or fast-forward). */
std::string runFingerprint(const pracleak::RunResult &run);

/** Digest of a replay's modeled outputs. */
std::string replayFingerprint(const pracleak::trace::ReplayResult &replay);

/** All RFMs a defense issued, over every reason. */
std::uint64_t totalRfms(const pracleak::RunResult &run);

/** Sums of the layer pass over every unit measured. */
struct SystemLayers
{
    /** Back-to-back (run, replay) pairs timed per unit. */
    static constexpr int kPairs = 3;

    // workload
    std::uint64_t ops = 0;
    double opSeconds = 0.0;

    // cpu
    std::vector<double> ctorSeconds;
    std::vector<double> selfSeconds;   //!< one per unit
    std::uint64_t consumedInstrs = 0;  //!< instructions the cores pulled
    std::uint64_t instrs = 0;          //!< measure-window instructions
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t mshrMerges = 0;

    // mem
    std::uint64_t requests = 0;
    std::uint64_t ticksFired = 0;
    std::uint64_t cyclesJumped = 0;
    std::uint64_t nextWorkHits = 0;
    std::uint64_t nextWorkLookups = 0;
    std::vector<std::uint64_t> queueBuckets;
    double queueBucketWidth = 1.0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowAccesses = 0;

    // dram
    std::array<std::uint64_t, 7> cmds{};
    std::uint64_t redriveCmds = 0;
    double redriveSeconds = 0.0;
    std::uint64_t violations = 0;

    // prac
    std::uint64_t pracEvents = 0;
    double pracSeconds = 0.0;
    std::uint64_t alerts = 0;
    std::uint32_t maxCounter = 0;

    // trace
    std::uint64_t traceBytes = 0;
    std::uint64_t traceRecords = 0;
    double encodeSeconds = 0.0;
    double decodeSeconds = 0.0;
    double recordSeconds = 0.0;
    double runSeconds = 0.0;

    // same-defense replays, by defense
    std::map<std::string, double> replaySeconds;
    std::map<std::string, std::uint64_t> replayRequests;

    // defense counts from the runs, by defense
    std::map<std::string, std::uint64_t> rfms;
    std::map<std::string, std::uint64_t> events;
    std::uint64_t tbRfms = 0;
    std::uint64_t tbRfmsSkipped = 0;

    // telemetry: replay under "none" with a series armed vs disarmed
    double seriesArmedSeconds = 0.0;
    double seriesDisarmedSeconds = 0.0;

    /**
     * Measure one (entry, defense) unit and add it to the sums.
     * The unit's run and its same-defense replay are timed in
     * kPairs back-to-back pairs; medians over the pairs are kept.
     */
    void measure(const pracleak::SuiteEntry &entry,
                 const pracleak::sim::DesignConfig &design,
                 const pracleak::sim::RunBudget &budget,
                 const std::string &label, SpanLog &spans,
                 std::vector<std::string> &failures);

    /** Write the layer metrics these sums define into @p out. */
    void emit(LayerValues &out) const;
};

} // namespace perfbench

#endif // PERFBENCH_SYSTEM_LAYERS_H
