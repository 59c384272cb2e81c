/**
 * @file
 * DDR5 memory controller with FR-FCFS scheduling, open-page policy,
 * auto-refresh, and a pluggable RowHammer defense (see
 * src/mitigation/): the controller owns the command engine -- Alert
 * service, maintenance drains, refresh -- and delegates every
 * defense-specific decision (when to issue a proactive RFM, which
 * bank, at what deadline) to a Mitigation instance resolved from the
 * string-keyed registry.
 *
 * The legacy MitigationMode enum remains the convenient configuration
 * surface for the paper's modes and maps 1:1 onto registry keys:
 *
 *  - NoMitigation ("none") : PRAC timings, no ABO, no RFMs (the
 *    paper's normalization baseline).
 *  - AboOnly ("abo-only")  : DRAM asserts Alert at NBO; controller
 *    services it with Nmit RFMab commands (insecure: ABO-RFMs leak).
 *  - AboAcb ("abo+acb-rfm"): AboOnly plus proactive Activation-Based
 *    RFMs at the Bank Activation Threshold (insecure: ACB-RFMs leak).
 *  - Tprac ("tprac")       : Timing-Based RFMs at a fixed TB-Window,
 *    ABO kept armed only as a safety net.
 *  - Obfuscation           : ABO plus random RFMab injection
 *    (Section 7.1 ablation).
 *
 * New-generation defenses (PARA, Graphene, PB-RFM) have no enum
 * value; select them via ControllerConfig::mitigation.
 *
 * The controller issues at most one command per cycle, with priority
 * maintenance-over-demand: an in-flight RFM sequence first, then due
 * refreshes, then demand requests.
 */

#ifndef PRACLEAK_MEM_CONTROLLER_H
#define PRACLEAK_MEM_CONTROLLER_H

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "dram/dram.h"
#include "mem/address_mapper.h"
#include "mem/request.h"
#include "mitigation/configs.h"
#include "mitigation/mitigation.h"
#include "prac/prac_engine.h"
#include "tprac/tb_rfm.h"

namespace pracleak {

namespace telemetry {
class BusObserver;
}

/** Legacy top-level mitigation strategy selector. */
enum class MitigationMode : std::uint8_t
{
    NoMitigation,
    AboOnly,
    AboAcb,
    Tprac,

    /**
     * Section 7.1 alternative: ABO stays armed, and the controller
     * additionally injects RFMabs at random (Bernoulli draw once per
     * tREFI) to obfuscate the timing channel.  Does NOT eliminate
     * ABO-RFMs -- provided for the leakage-vs-cost ablation.
     */
    Obfuscation,
};

const char *mitigationModeName(MitigationMode mode);

/**
 * Observer of the controller's enqueue boundary.  The trace subsystem
 * (src/trace/) installs one per channel to serialize the accepted
 * request stream; the hook fires only for requests that were actually
 * admitted, so a recorded trace replays 1:1 against a fresh
 * controller.  Taps must not mutate controller state.
 */
class RequestTap
{
  public:
    virtual ~RequestTap() = default;

    /** @p request was accepted at controller cycle @p now. */
    virtual void onEnqueue(const Request &request, Cycle now) = 0;
};

/** Controller configuration. */
struct ControllerConfig
{
    MappingScheme mapping = MappingScheme::Mop4;

    /**
     * System-level channel striping.  Each controller owns one
     * channel; the mapper strips the selector bits so per-channel
     * coordinates are dense.  channels == 1 is the classic
     * single-channel configuration, bit-identical to the pre-
     * multi-channel code.
     */
    ChannelInterleave interleave{};
    std::size_t queueCapacity = 64;     //!< outstanding requests
    std::uint32_t frfcfsCap = 4;        //!< row-hit streak cap
    bool refreshEnabled = true;

    MitigationMode mode = MitigationMode::NoMitigation;

    /**
     * String-keyed defense selection (mitigation/registry.h).  When
     * non-empty it takes precedence over `mode`; the legacy enum maps
     * onto the keys "none", "abo-only", "abo+acb-rfm", "tprac", and
     * "obfuscation".
     */
    std::string mitigation;

    /**
     * Index of this controller's channel within the system; selects
     * the per-channel RNG stream of stochastic defenses (PARA).
     */
    std::uint32_t channelIndex = 0;

    PracEngineConfig prac{};
    std::uint32_t bat = 0;              //!< ACB threshold (AboAcb mode)
    TbRfmConfig tbRfm{};                //!< TPRAC window (Tprac mode)
    ParaConfig para{};                  //!< "para" defense
    GrapheneConfig graphene{};          //!< "graphene" defense
    PbRfmConfig pbRfm{};                //!< "pb-rfm" defense

    /** Obfuscation mode: P(inject one RFM) per tREFI. */
    double randomRfmPerTrefi = 0.5;
    std::uint64_t obfuscationSeed = 0xDEC0'D5ULL;
};

/**
 * Scheduler-efficiency counters: where the event-driven scheduler's
 * speedup comes from, per channel.  Plain always-on integers bumped
 * on the tick/advance paths (a StatSet map lookup per tick would
 * cost more than the tick); System::run publishes measure-window
 * deltas into the StatSet and RunResult.
 */
struct SchedCounters
{
    std::uint64_t ticksFired = 0;   //!< tick() invocations
    std::uint64_t cyclesJumped = 0; //!< cycles advanced without a tick
    std::uint64_t nextWorkCacheHits = 0; //!< nextWorkAt() cache hits
    std::uint64_t nextWorkRebuilds = 0;  //!< full computeNextWorkAt()
    std::uint64_t nextWorkHintRebuilds = 0; //!< cheap from tick hints
};

/** One-channel memory controller. */
class MemoryController
{
  public:
    MemoryController(const DramSpec &spec, const ControllerConfig &config,
                     StatSet *stats = nullptr);

    /** Whether the request queue can take another entry. */
    bool canAccept() const { return queue_.size() < config_.queueCapacity; }

    /** Enqueue a request; returns false when the queue is full. */
    bool enqueue(Request request);

    /** Advance one cycle: issue at most one DRAM command. */
    void tick();

    /** Advance @p cycles cycles, ticking every one (pure lockstep). */
    void run(Cycle cycles);

    /**
     * Event-driven stepping: advance the clock to @p target, ticking
     * only on cycles where tick() could have an effect and jumping
     * over the provably-dead cycles in between (nextWorkAt()).
     * Behaviour and statistics are bit-identical to calling tick()
     * target-now() times; the bound is cached between calls and
     * invalidated by the only two state-mutating entry points --
     * tick() and a successful enqueue() -- so a quiescent channel
     * advances in O(1) per call instead of O(queue) per cycle.
     */
    void advanceTo(Cycle target);

    /**
     * Earliest cycle >= now() at which tick() could have any effect:
     * the first cycle a queued request's CAS/PRE/ACT becomes legal
     * under the DRAM timing state, an in-flight completion, a refresh
     * deadline, the defense's next maintenance deadline, the tREFW
     * counter reset, or -- during an active RFM/REF drain -- the
     * first cycle the drain's next PRE/RFM/REF command itself becomes
     * legal (plus demand on the banks a per-rank/per-bank drain
     * leaves schedulable).  Cycles strictly before the returned value
     * are provably dead and may be skipped; exactness (never later
     * than the first effective tick) is the contract the event-driven
     * scheduler rests on -- see src/mem/DESIGN.md.
     */
    Cycle nextWorkAt() const;

    /**
     * Jump the clock forward to @p target without ticking.  The
     * caller must guarantee nextWorkAt() >= target (idle-cycle
     * fast-forward); targets at or before now() are ignored.
     */
    void skipTo(Cycle target);

    Cycle now() const { return now_; }
    std::size_t queueDepth() const { return queue_.size(); }

    DramDevice &dram() { return dram_; }
    const DramDevice &dram() const { return dram_; }
    PracEngine &prac() { return *prac_; }
    const PracEngine &prac() const { return *prac_; }
    const AddressMapper &mapper() const { return mapper_; }
    const ControllerConfig &config() const { return config_; }

    /** The active defense (never null). */
    const Mitigation &mitigation() const { return *mitigation_; }

    /** Defense-specific mitigation events (telemetry shortcut). */
    std::uint64_t mitigationEvents() const
    {
        return mitigation_->eventsTriggered();
    }

    /** TB-RFM scheduler when the defense owns one, else nullptr. */
    const TbRfmScheduler *tbScheduler() const
    {
        return mitigation_->tbScheduler();
    }

    /** RFM count by reason. */
    std::uint64_t rfmCount(RfmReason reason) const
    {
        return rfmCounts_[static_cast<std::size_t>(reason)];
    }

    /** Install (or clear, with nullptr) the enqueue-boundary tap. */
    void setRequestTap(RequestTap *tap) { tap_ = tap; }

    /**
     * Install (or clear) the windowed bus-series observer
     * (telemetry/timeseries.h).  The constructor already installs
     * one automatically when a SeriesCapture is armed; this setter
     * exists for experiments that record a series without the
     * process-global capture.  Not owned.  Null costs one pointer
     * test per hook site -- the same zero-cost-when-off idiom as
     * TraceSession.
     */
    void setBusObserver(telemetry::BusObserver *bus) { bus_ = bus; }
    telemetry::BusObserver *busObserver() const { return bus_; }

    /** Scheduler-efficiency telemetry since construction. */
    const SchedCounters &schedCounters() const { return sched_; }

  private:
    struct Entry
    {
        Request req;
        std::uint64_t seq;      //!< age for FCFS ordering
    };

    /** Multi-cycle maintenance sequence (precharge-all then RFM/REF). */
    struct Maintenance
    {
        bool active = false;
        bool isRfm = false;     //!< else refresh
        bool perBank = false;   //!< RFMpb instead of RFMab
        RfmReason reason = RfmReason::Abo;
        std::uint32_t rank = 0; //!< refresh target
        std::uint32_t flatBank = 0; //!< RFMpb target
        std::uint32_t rfmsRemaining = 0;
    };

    void startAboServiceIfNeeded();
    void startProactiveRfmIfNeeded();
    void startRefreshIfNeeded();
    bool tickMaintenance();
    bool tickDemand();

    /**
     * FR-FCFS deferral predicates, shared between tickDemand() and
     * nextWorkAt() so the scheduler and its fast-forward bound
     * cannot drift: a row hit is declined at the streak cap while an
     * older same-bank conflict starves, and a conflict PRE is held
     * while a queued request still hits the open row below the cap.
     */
    bool hitDeferredAtCap(std::deque<Entry>::const_iterator it,
                          const DramAddress &da) const;
    bool preDeferredForPendingHit(const DramAddress &da,
                                  std::uint32_t open_row) const;
    /**
     * Exact event bounds backing nextWorkAt().  Each returns the
     * first cycle the corresponding tick path could issue a command,
     * computed from the same predicates the tick path evaluates, so
     * the scheduler and its bound cannot drift (the fast-forward
     * exactness invariant, src/mem/DESIGN.md).
     */
    Cycle nextMaintenanceIssueAt() const;
    Cycle nextDemandIssueAt() const;
    Cycle computeNextWorkAt() const;
    Cycle composeNextWorkAt(Cycle demand_at, Cycle maint_at) const;

    /** Hot-path StatSet counters, resolved into statSlots_. */
    enum class Stat : std::uint8_t
    {
        Reads,
        Writes,
        RowHits,
        RowMisses,
        RowConflicts,
        Refreshes,
        AboRfms,
        AcbRfms,
        TbRfms,
        TbRfmsPb,
        RandomRfms,
        GrapheneRfms,
        PbRfms,
        Count
    };

    bool issueOrTrack(const Command &cmd, Cycle &hint);
    void finishRequest(Entry &entry, Cycle done_at);
    void countRfm(RfmReason reason, bool per_bank);

    /** Increment @p stat in stats_ (no-op without a StatSet). */
    void bump(Stat stat);

    DramSpec spec_;
    ControllerConfig config_;
    StatSet *stats_;
    RequestTap *tap_ = nullptr;
    telemetry::BusObserver *bus_ = nullptr;

    /**
     * Delta-poll marks for the end-of-tick bus-observer hooks: ABO
     * assertions and defense mitigation events are counted by their
     * owners; the observer sees per-tick deltas, which pins the
     * series to cycles that tick in both clock modes.
     */
    std::uint64_t busAboMark_ = 0;
    std::uint64_t busMitMark_ = 0;

    DramDevice dram_;
    AddressMapper mapper_;
    std::unique_ptr<PracEngine> prac_;
    std::unique_ptr<Mitigation> mitigation_;

    Cycle now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::deque<Entry> queue_;

    /** Completed-in-future requests waiting for their done time. */
    struct InFlight
    {
        Entry entry;
        Cycle doneAt;
    };
    std::vector<InFlight> inFlight_;

    std::vector<Cycle> nextRefreshAt_;
    Maintenance maint_;

    /**
     * Memoized nextWorkAt().  Every bound is an absolute cycle valid
     * while the controller state is frozen, so the cache survives
     * skipTo() and is dropped only by tick() and enqueue().
     */
    mutable Cycle nextWorkCache_ = 0;
    mutable bool nextWorkCacheValid_ = false;

    /**
     * Earliest-issue bounds tracked as a free by-product of the tick
     * scans: when a tick issues nothing, the scans it ran anyway have
     * already visited every candidate, so the next-work cache can be
     * rebuilt from these hints without a second sweep.
     */
    Cycle demandHint_ = kNeverCycle;
    Cycle maintHint_ = kNeverCycle;

    /** mutable: nextWorkAt() is const but counts hits/rebuilds. */
    mutable SchedCounters sched_;

    /** Cached &stats_->histogram("mem.queue_occupancy") (or null). */
    Histogram *queueOccupancy_ = nullptr;

    /**
     * Cached StatSet entries for per-command and per-delivery stats:
     * a name-keyed lookup costs more than the event it counts, and
     * names past the SSO limit allocate on every call.  Resolved on
     * first increment, not here, so stats dumps gain no zero-valued
     * entries.  Like queueOccupancy_, they rely on the StatSet never
     * being reset under a live controller.
     */
    std::array<std::uint64_t *, static_cast<std::size_t>(Stat::Count)>
        statSlots_{};
    Histogram *readLatency_ = nullptr;

    std::vector<std::uint32_t> hitStreak_;
    std::array<std::uint64_t, kRfmReasonCount> rfmCounts_{};
};

} // namespace pracleak

#endif // PRACLEAK_MEM_CONTROLLER_H
