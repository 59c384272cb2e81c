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
 * Defenses are selected by registry key (ControllerConfig::mitigation)
 * and configured by configureDefense(), which derives each defense's
 * parameters from the DRAM spec.  The paper's four PRAC designs are
 * "abo-only", "abo+acb-rfm", "tprac" and "obfuscation" (Section 7.1
 * ablation), next to the "none" baseline; mitigationCatalog() lists
 * the rest.
 *
 * The controller issues at most one command per cycle, with priority
 * maintenance-over-demand: an in-flight RFM sequence first, then due
 * refreshes, then demand requests.
 */

#ifndef PRACLEAK_MEM_CONTROLLER_H
#define PRACLEAK_MEM_CONTROLLER_H

#include <array>
#include <cstdint>
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

    /**
     * Defense registry key (mitigation/registry.h).  configureDefense()
     * sets it together with the defense's derived parameters.
     */
    std::string mitigation = "none";

    /**
     * Index of this controller's channel within the system; selects
     * the per-channel RNG stream of stochastic defenses (PARA).
     */
    std::uint32_t channelIndex = 0;

    PracEngineConfig prac{};
    std::uint32_t bat = 0;              //!< "abo+acb-rfm" threshold
    TbRfmConfig tbRfm{};                //!< "tprac" window
    ParaConfig para{};                  //!< "para" defense
    GrapheneConfig graphene{};          //!< "graphene" defense
    PbRfmConfig pbRfm{};                //!< "pb-rfm" defense

    /** "obfuscation": P(inject one RFM) per tREFI. */
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
    std::uint64_t banksEvaluated = 0; //!< banks whose candidates were
                                      //!< computed (not wake-skipped)
};

/** One-channel memory controller. */
class MemoryController
{
  public:
    MemoryController(const DramSpec &spec, const ControllerConfig &config,
                     StatSet *stats = nullptr);

    /** Whether the request queue can take another entry. */
    bool canAccept() const { return queued_ < config_.queueCapacity; }

    /** Enqueue a request; returns false when the queue is full. */
    bool enqueue(Request request);

    /** Advance one cycle: issue at most one DRAM command. */
    void tick();

    /** Advance @p cycles cycles, ticking every one (pure lockstep). */
    void run(Cycle cycles);

    /**
     * Event-driven stepping: advance the clock to @p target, ticking
     * only on cycles where tick() could have an effect and jumping
     * over the cycles before nextWorkAt().  Behaviour and statistics
     * are bit-identical to calling tick() target-now() times; the
     * bound is cached between calls and invalidated by the only two
     * state-mutating entry points -- tick() and a successful
     * enqueue() -- so a quiescent channel advances in O(1) per call.
     */
    void advanceTo(Cycle target);

    /**
     * A cycle >= now() no later than the first at which tick() could
     * have any effect: the first cycle a queued request's CAS/PRE/ACT
     * may become legal (a bank's wake bound, which can be early), an
     * in-flight completion, a refresh deadline, the defense's next
     * maintenance deadline, the tREFW counter reset, or -- during an
     * active RFM/REF drain -- the first cycle the drain's next
     * PRE/RFM/REF command itself becomes legal (plus demand on the
     * banks a per-rank/per-bank drain leaves schedulable).  Cycles
     * strictly before the returned value are provably dead and may
     * be skipped.  Never late is the contract the event-driven
     * scheduler rests on; early only costs a wasted tick -- see
     * src/mem/DESIGN.md.
     */
    Cycle nextWorkAt() const;

    /**
     * Jump the clock forward to @p target without ticking.  The
     * caller must guarantee nextWorkAt() >= target (idle-cycle
     * fast-forward); targets at or before now() are ignored.
     */
    void skipTo(Cycle target);

    Cycle now() const { return now_; }
    std::size_t queueDepth() const { return queued_; }

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

    /** A request whose CAS issued, waiting for its done time. */
    struct InFlight
    {
        Entry entry;
        Cycle doneAt;
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

    /**
     * A demand command tickDemand() may issue, weighed without
     * reading its request: the Command is built from the queue entry
     * only for the winner (commandFor()).
     */
    struct Candidate
    {
        CmdType type;
        std::uint32_t flatBank;
        std::uint32_t index;    //!< position in the bank queue
        std::uint64_t seq;      //!< age of the request it serves
        Cycle at;               //!< earliest legal cycle
    };

    static constexpr std::uint32_t kNoIndex = ~std::uint32_t{0};

    /** The oldest queued request of one kind in a bank. */
    struct Oldest
    {
        std::uint32_t index = kNoIndex; //!< position in the bank queue
        std::uint64_t seq = 0;
    };

    /**
     * The scheduler's per-bank state, one per flat bank.  The summary
     * holds the bank's oldest read hit, oldest write hit and oldest
     * conflict relative to summaryRow: enqueue() extends it in O(1),
     * removing a request invalidates it, and forEachDemandCandidate()
     * rebuilds it from the queue when it is invalid or the open row
     * differs.  wake is a lower bound on the legality instant of
     * every candidate the bank can offer until its queue grows or a
     * PRE closes it (src/mem/DESIGN.md, "Wake bounds").
     */
    struct BankSlot
    {
        Cycle wake = 0;
        std::uint64_t headSeq = 0;      //!< seq of the oldest request
        Oldest read;
        Oldest write;
        Oldest conflict;
        std::uint32_t summaryRow = 0;
        bool summaryValid = false;
        std::uint32_t hitStreak = 0;    //!< CAS since the last ACT/PRE

        /** Fold in the request at @p index, younger than the rest. */
        void
        note(const Request &req, std::uint32_t index, std::uint64_t seq)
        {
            Oldest &first = req.daddr.row != summaryRow ? conflict
                            : req.type == ReqType::Read ? read
                                                        : write;
            if (first.index == kNoIndex)
                first = Oldest{index, seq};
        }
    };

    void startAboServiceIfNeeded();
    void startProactiveRfmIfNeeded();
    void startRefreshIfNeeded();
    bool tickMaintenance();
    bool tickDemand();

    /**
     * Call @p visit for each demand candidate of the banks no drain
     * holds and whose wake bound is due, and return the smallest wake
     * of the banks skipped for a wake still in the future.  Shared
     * between tickDemand() and nextDemandIssueAt() so the scheduler
     * and its fast-forward bound cannot drift.  Per evaluated bank
     * there are at most three candidates: the oldest read hit and
     * the oldest write hit, each unless the bank's streak is at the
     * cap and an older request conflicts (the starvation case the cap
     * exists for); the oldest conflict's PRE, held below the cap
     * while a queued request still hits the open row (open-page
     * policy); or, on a closed bank, the oldest request's ACT unless
     * the ABOACT budget is spent.  Every other undeferred request of
     * the bank needs the same command as one of these, legal on the
     * same cycle, and is younger (src/mem/DESIGN.md).
     */
    template <typename Visit>
    Cycle forEachDemandCandidate(Visit &&visit) const;

    /** Locate @p slot's oldest hits and conflict relative to @p row. */
    static void rebuildSummary(BankSlot &slot,
                               const std::vector<Entry> &queue,
                               std::uint32_t row);

    /** The command @p cand stands for, built from its queue entry. */
    Command commandFor(const Candidate &cand) const;

    /**
     * Event bounds backing nextWorkAt().  Each returns a cycle no
     * later than the first the corresponding tick path could issue a
     * command, computed from the same predicates the tick path
     * evaluates, so the scheduler and its bound cannot drift (the
     * never-late invariant, src/mem/DESIGN.md).
     */
    Cycle nextMaintenanceIssueAt() const;
    Cycle nextDemandIssueAt() const;
    Cycle computeNextWorkAt() const;
    Cycle composeNextWorkAt(Cycle demand_at, Cycle maint_at) const;

    bool issueOrTrack(const Command &cmd, Cycle &hint);
    void issueNow(const Command &cmd);
    void finishRequest(Entry &entry, Cycle done_at);
    void trackFlight(const InFlight &flight);
    void deliverFinished();
    void countRfm(RfmReason reason, bool per_bank);

    /**
     * Hot-path mem.* counters, resolved on first increment so stats
     * dumps gain no zero-valued entries.
     */
    struct MemStats
    {
        explicit MemStats(StatSet *stats);

        CounterHandle reads;
        CounterHandle writes;
        CounterHandle rowHits;
        CounterHandle rowMisses;
        CounterHandle rowConflicts;
        CounterHandle refreshes;
        CounterHandle aboRfms;
        CounterHandle acbRfms;
        CounterHandle tbRfms;
        CounterHandle tbRfmsPb;
        CounterHandle randomRfms;
        CounterHandle grapheneRfms;
        CounterHandle pbRfms;
    };

    DramSpec spec_;
    ControllerConfig config_;
    StatSet *stats_;
    MemStats memStats_;
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

    /**
     * The request queue, indexed by flat bank: each bank's requests
     * oldest first, the banks that hold any (in no particular order;
     * activeSlot_ is each one's position there), and the total.
     */
    std::vector<std::vector<Entry>> bankQueues_;
    std::vector<std::uint32_t> activeBanks_;
    std::vector<std::uint32_t> activeSlot_;
    std::size_t queued_ = 0;

    /** mutable: the const bound functions refresh summaries and wakes. */
    mutable std::vector<BankSlot> slots_;

    /** Completed-in-future requests waiting for their done time. */
    std::vector<InFlight> inFlight_;

    /**
     * Earliest doneAt over every flight, and over the observable ones
     * (a stats sink or a completion callback sees the delivery):
     * tick() scans inFlight_ only once one is due, and
     * composeNextWorkAt() reads the second without a scan.
     */
    Cycle nextDoneAt_ = kNeverCycle;
    Cycle nextObservedDoneAt_ = kNeverCycle;

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
     * already bounded every candidate, so the next-work cache can be
     * rebuilt from these hints without a second sweep.
     */
    Cycle demandHint_ = kNeverCycle;
    Cycle maintHint_ = kNeverCycle;

    /** mutable: nextWorkAt() is const but counts hits/rebuilds. */
    mutable SchedCounters sched_;

    /** Cached &stats_->histogram("mem.queue_occupancy") (or null). */
    Histogram *queueOccupancy_ = nullptr;

    /** Cached mem.read_latency_ns, resolved on the first delivery. */
    Histogram *readLatency_ = nullptr;

    std::array<std::uint64_t, kRfmReasonCount> rfmCounts_{};
};

} // namespace pracleak

#endif // PRACLEAK_MEM_CONTROLLER_H
