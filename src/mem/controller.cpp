#include "mem/controller.h"

#include <algorithm>
#include <iterator>

#include "common/log.h"
#include "mitigation/registry.h"
#include "telemetry/timeseries.h"

namespace pracleak {

namespace {

/** StatSet names of MemoryController::Stat, in enum order. */
constexpr const char *kStatNames[] = {
    "mem.reads",       "mem.writes",        "mem.row_hits",
    "mem.row_misses",  "mem.row_conflicts", "mem.refreshes",
    "mem.abo_rfms",    "mem.acb_rfms",      "mem.tb_rfms",
    "mem.tb_rfms_pb",  "mem.random_rfms",   "mem.graphene_rfms",
    "mem.pb_rfms",
};

} // namespace

const char *
mitigationModeName(MitigationMode mode)
{
    switch (mode) {
      case MitigationMode::NoMitigation: return "no-mitigation";
      case MitigationMode::AboOnly: return "abo-only";
      case MitigationMode::AboAcb: return "abo+acb-rfm";
      case MitigationMode::Tprac: return "tprac";
      case MitigationMode::Obfuscation: return "obfuscation";
    }
    return "?";
}

MemoryController::MemoryController(const DramSpec &spec,
                                   const ControllerConfig &config,
                                   StatSet *stats)
    : spec_(spec), config_(config), stats_(stats), dram_(spec),
      mapper_(spec.org, config.mapping, config.interleave)
{
    const std::string defense = resolveMitigationName(config_);
    const MitigationInfo *info = findMitigation(defense);
    if (!info)
        fatal("unknown mitigation '" + defense + "'");

    PracEngineConfig prac_config = config.prac;
    if (!info->usesAbo)
        prac_config.aboEnabled = false;

    prac_ = std::make_unique<PracEngine>(spec, prac_config, stats);
    dram_.addListener(prac_.get());

    MitigationContext ctx;
    ctx.spec = &spec_;
    ctx.config = &config_;
    ctx.prac = prac_.get();
    ctx.stats = stats_;
    mitigation_ = makeMitigation(defense, ctx);

    nextRefreshAt_.resize(spec.org.ranks);
    for (std::uint32_t r = 0; r < spec.org.ranks; ++r) {
        // Stagger per-rank refreshes evenly across a tREFI.
        nextRefreshAt_[r] =
            spec.timing.tREFI * (r + 1) / spec.org.ranks;
    }
    hitStreak_.assign(spec.org.totalBanks(), 0);

    // Resolve the queue-occupancy histogram once: enqueue() is too
    // hot for a per-call map lookup.  Depth in requests, one bucket
    // per slot.  Shared across channels of one System (one StatSet):
    // the histogram profiles system-wide queue pressure.
    if (stats_)
        queueOccupancy_ = &stats_->histogram(
            "mem.queue_occupancy", 1.0, config_.queueCapacity + 1);

    // Single attach choke point for the `--series-out` surfaces:
    // when a SeriesCapture is armed, every controller -- System,
    // AttackHarness, trace replay, tests -- gets its channel's bus
    // observer here, keyed by channelIndex.  Null when disarmed.
    bus_ = telemetry::SeriesCapture::attach(
        spec_, config_.channelIndex, defense);
}

bool
MemoryController::enqueue(Request request)
{
    if (!canAccept())
        return false;
    request.arrival = now_;
    request.daddr = mapper_.map(request.addr);
    if (tap_)
        tap_->onEnqueue(request, now_);
    queue_.push_back(Entry{std::move(request), nextSeq_++});
    nextWorkCacheValid_ = false;
    bump(request.type == ReqType::Read ? Stat::Reads : Stat::Writes);
    if (queueOccupancy_)
        queueOccupancy_->sample(static_cast<double>(queue_.size()));
    if (bus_)
        bus_->onQueueDepth(queue_.size(), now_);
    return true;
}

void
MemoryController::finishRequest(Entry &entry, Cycle done_at)
{
    entry.req.completed = done_at;
    inFlight_.push_back(InFlight{std::move(entry), done_at});
}

void
MemoryController::startAboServiceIfNeeded()
{
    if (!prac_->alertAsserted())
        return;
    const bool act_budget_spent =
        prac_->actsSinceAlert() >= spec_.prac.aboAct;
    const bool window_elapsed =
        now_ >= prac_->alertAssertedAt() + spec_.timing.tABOACT;
    if (!act_budget_spent && !window_elapsed)
        return;

    maint_.active = true;
    maint_.isRfm = true;
    // Alert service is always Nmit channel-wide RFMabs: clear any
    // per-bank targeting left over from a prior RFMpb, or the drain
    // would service the Alert with one RFMpb to a stale bank.
    maint_.perBank = false;
    maint_.reason = RfmReason::Abo;
    maint_.rfmsRemaining = spec_.prac.nmit;
}

void
MemoryController::startProactiveRfmIfNeeded()
{
    const MaintenanceRequest req =
        mitigation_->maintenanceCommands(now_);
    if (!req.wanted)
        return;
    maint_.active = true;
    maint_.isRfm = true;
    maint_.perBank = req.perBank;
    maint_.reason = req.reason;
    maint_.flatBank = req.flatBank;
    maint_.rfmsRemaining = req.rfms;
}

void
MemoryController::startRefreshIfNeeded()
{
    if (!config_.refreshEnabled)
        return;
    // Service the most overdue rank first.
    std::uint32_t best_rank = 0;
    bool found = false;
    Cycle best_due = kNeverCycle;
    for (std::uint32_t r = 0; r < spec_.org.ranks; ++r) {
        if (now_ >= nextRefreshAt_[r] && nextRefreshAt_[r] < best_due) {
            best_due = nextRefreshAt_[r];
            best_rank = r;
            found = true;
        }
    }
    if (!found)
        return;
    maint_.active = true;
    maint_.isRfm = false;
    maint_.rank = best_rank;
}

bool
MemoryController::issueOrTrack(const Command &cmd, Cycle &hint)
{
    // Issue when legal, else track the bound: a declined command's
    // earliest-legal cycle feeds the next-work hint, so a tick that
    // issues nothing leaves a ready-made nextWorkAt() cache behind
    // (structurally illegal commands report kNeverCycle and drop out
    // of the min).
    const Cycle at = dram_.earliestIssue(cmd);
    if (at > now_) {
        hint = std::min(hint, at);
        return false;
    }
    dram_.issue(cmd, now_);
    if (bus_)
        bus_->onCommand(cmd, now_);
    return true;
}

void
MemoryController::bump(Stat stat)
{
    static_assert(std::size(kStatNames) ==
                  static_cast<std::size_t>(Stat::Count));
    if (!stats_)
        return;
    const auto index = static_cast<std::size_t>(stat);
    if (!statSlots_[index])
        statSlots_[index] = &stats_->counter(kStatNames[index]);
    ++*statSlots_[index];
}

void
MemoryController::countRfm(RfmReason reason, bool per_bank)
{
    ++rfmCounts_[static_cast<std::size_t>(reason)];
    switch (reason) {
      case RfmReason::Abo:
        bump(Stat::AboRfms);
        break;
      case RfmReason::Acb:
        bump(Stat::AcbRfms);
        break;
      case RfmReason::TimingBased:
        bump(per_bank ? Stat::TbRfmsPb : Stat::TbRfms);
        break;
      case RfmReason::Random:
        bump(Stat::RandomRfms);
        break;
      case RfmReason::Graphene:
        bump(Stat::GrapheneRfms);
        break;
      case RfmReason::PerBank:
        bump(Stat::PbRfms);
        break;
    }
    mitigation_->onRfmIssued(reason, per_bank, now_);
}

bool
MemoryController::tickMaintenance()
{
    const DramOrg &org = spec_.org;

    if (maint_.isRfm && maint_.perBank) {
        // RFMpb drain: precharge only the target bank.
        const std::uint32_t rank =
            maint_.flatBank / org.banksPerRank();
        const std::uint32_t in_rank =
            maint_.flatBank % org.banksPerRank();
        const std::uint32_t bg = in_rank / org.banksPerGroup;
        const std::uint32_t bank = in_rank % org.banksPerGroup;

        if (dram_.isOpen(rank, bg, bank)) {
            Command pre{CmdType::PRE, rank, bg, bank, 0, 0};
            return issueOrTrack(pre, maintHint_);
        }
        Command rfm{CmdType::RFMpb, rank, bg, bank, 0, 0};
        if (!issueOrTrack(rfm, maintHint_))
            return false;
        countRfm(maint_.reason, /*per_bank=*/true);
        maint_.active = false;
        return true;
    }

    if (maint_.isRfm) {
        // Drain: precharge every open bank in the channel.
        for (std::uint32_t r = 0; r < org.ranks; ++r) {
            for (std::uint32_t bg = 0; bg < org.bankGroups; ++bg) {
                for (std::uint32_t b = 0; b < org.banksPerGroup; ++b) {
                    if (!dram_.isOpen(r, bg, b))
                        continue;
                    Command pre{CmdType::PRE, r, bg, b, 0, 0};
                    if (issueOrTrack(pre, maintHint_))
                        return true;
                }
            }
        }
        if (dram_.anyOpen())
            return false; // a precharge is pending but not yet legal

        Command rfm{CmdType::RFMab, 0, 0, 0, 0, 0};
        if (!issueOrTrack(rfm, maintHint_))
            return false;

        countRfm(maint_.reason, /*per_bank=*/false);

        if (--maint_.rfmsRemaining == 0)
            maint_.active = false;
        return true;
    }

    // Refresh drain: precharge open banks of the target rank only.
    for (std::uint32_t bg = 0; bg < org.bankGroups; ++bg) {
        for (std::uint32_t b = 0; b < org.banksPerGroup; ++b) {
            if (!dram_.isOpen(maint_.rank, bg, b))
                continue;
            Command pre{CmdType::PRE, maint_.rank, bg, b, 0, 0};
            if (issueOrTrack(pre, maintHint_))
                return true;
        }
    }
    if (dram_.anyOpenInRank(maint_.rank))
        return false;

    Command ref{CmdType::REFab, maint_.rank, 0, 0, 0, 0};
    if (!issueOrTrack(ref, maintHint_))
        return false;

    nextRefreshAt_[maint_.rank] += spec_.timing.tREFI;
    maint_.active = false;
    bump(Stat::Refreshes);
    mitigation_->onRefresh(maint_.rank, now_);
    return true;
}

bool
MemoryController::hitDeferredAtCap(
    std::deque<Entry>::const_iterator it, const DramAddress &da) const
{
    // A row hit may bypass older requests unless the streak cap is
    // reached AND an older request is waiting on the same bank with a
    // different row (the FR-FCFS starvation case the cap exists for).
    if (hitStreak_[mapper_.flatBank(da)] < config_.frfcfsCap)
        return false;
    for (auto older = queue_.begin(); older != it; ++older) {
        const DramAddress &oda = older->req.daddr;
        if (oda.sameBank(da) && oda.row != da.row)
            return true;
    }
    return false;
}

bool
MemoryController::preDeferredForPendingHit(
    const DramAddress &da, std::uint32_t open_row) const
{
    // Open-page policy: don't close a row another queued request
    // still hits, as long as the streak cap leaves it headroom.
    if (hitStreak_[mapper_.flatBank(da)] >= config_.frfcfsCap)
        return false;
    for (const Entry &other : queue_)
        if (other.req.daddr.sameBank(da) &&
            other.req.daddr.row == open_row)
            return true;
    return false;
}

bool
MemoryController::tickDemand()
{
    if (queue_.empty())
        return false;

    const bool refresh_drain = maint_.active && !maint_.isRfm;
    const bool rfmpb_drain =
        maint_.active && maint_.isRfm && maint_.perBank;
    const bool acts_blocked =
        prac_->alertAsserted() &&
        prac_->actsSinceAlert() >= spec_.prac.aboAct;

    auto blocked_by_drain = [&](const DramAddress &da) {
        if (refresh_drain && da.rank == maint_.rank)
            return true;
        if (rfmpb_drain && mapper_.flatBank(da) == maint_.flatBank)
            return true;
        return false;
    };

    // Pass 1: oldest ready row-hit, subject to the streak cap.
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        const DramAddress &da = it->req.daddr;
        if (blocked_by_drain(da))
            continue;
        if (!dram_.isOpen(da.rank, da.bankGroup, da.bank) ||
            dram_.openRow(da.rank, da.bankGroup, da.bank) != da.row)
            continue;
        const std::uint32_t flat = mapper_.flatBank(da);
        if (hitDeferredAtCap(it, da))
            continue; // let the conflicting older request make progress

        const bool is_read = it->req.type == ReqType::Read;
        Command cas{is_read ? CmdType::RD : CmdType::WR, da.rank,
                    da.bankGroup, da.bank, da.row, da.col};
        if (!issueOrTrack(cas, demandHint_))
            continue;

        ++hitStreak_[flat];
        bump(Stat::RowHits);
        const Cycle done = is_read
                               ? now_ + spec_.timing.readLatency()
                               : now_ + spec_.timing.writeLatency();
        Entry entry = std::move(*it);
        queue_.erase(it);
        finishRequest(entry, done);
        return true;
    }

    // Pass 2: oldest-first, issue whatever the head-of-line request
    // needs next (PRE on conflict, ACT on closed bank).
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        const DramAddress &da = it->req.daddr;
        if (blocked_by_drain(da))
            continue;

        const bool open = dram_.isOpen(da.rank, da.bankGroup, da.bank);
        const std::uint32_t flat = mapper_.flatBank(da);

        if (open && dram_.openRow(da.rank, da.bankGroup, da.bank) !=
                        da.row) {
            // Row conflict: close the current row -- but not while
            // another queued request still hits it (open-page policy;
            // the streak cap bounds how long conflicts can starve).
            const std::uint32_t open_row =
                dram_.openRow(da.rank, da.bankGroup, da.bank);
            if (preDeferredForPendingHit(da, open_row))
                continue;
            Command pre{CmdType::PRE, da.rank, da.bankGroup, da.bank, 0,
                        0};
            if (issueOrTrack(pre, demandHint_)) {
                hitStreak_[flat] = 0;
                bump(Stat::RowConflicts);
                return true;
            }
            continue;
        }
        if (!open) {
            if (acts_blocked)
                continue; // honour the ABOACT budget
            Command act{CmdType::ACT, da.rank, da.bankGroup, da.bank,
                        da.row, 0};
            if (issueOrTrack(act, demandHint_)) {
                hitStreak_[flat] = 0;
                mitigation_->onActivate(flat, da.row, now_);
                bump(Stat::RowMisses);
                return true;
            }
            continue;
        }
        // Open with the right row but the CAS was not ready in pass 1
        // (or was capped); nothing else to do for this entry.
    }
    return false;
}

void
MemoryController::tick()
{
    ++sched_.ticksFired;
    prac_->maybePeriodicReset(now_);
    demandHint_ = kNeverCycle;
    maintHint_ = kNeverCycle;

    // Deliver finished requests.
    for (std::size_t i = 0; i < inFlight_.size();) {
        if (inFlight_[i].doneAt <= now_) {
            Entry entry = std::move(inFlight_[i].entry);
            inFlight_[i] = std::move(inFlight_.back());
            inFlight_.pop_back();
            if (stats_ && entry.req.type == ReqType::Read) {
                if (!readLatency_)
                    readLatency_ =
                        &stats_->histogram("mem.read_latency_ns");
                readLatency_->sample(cyclesToNs(entry.req.latency()));
            }
            if (entry.req.onComplete)
                entry.req.onComplete(entry.req);
        } else {
            ++i;
        }
    }

    if (!maint_.active)
        startAboServiceIfNeeded();
    if (!maint_.active)
        startProactiveRfmIfNeeded();
    if (!maint_.active)
        startRefreshIfNeeded();

    bool issued = false;
    if (maint_.active)
        issued = tickMaintenance();

    // Demand may proceed when no maintenance holds the channel, or
    // when only a single-rank refresh / single-bank RFMpb drain is in
    // progress (that's the point of the per-bank extension).
    bool demand_issued = false;
    if (!issued &&
        (!maint_.active || !maint_.isRfm || maint_.perBank))
        demand_issued = tickDemand();

    if (bus_) {
        // Delta-poll ABO assertions and defense mitigation events at
        // end of tick: both mutate only inside tick() (via DRAM
        // listeners and the mitigation hooks above), and the set of
        // ticked cycles is identical between the lockstep and
        // event-driven clocks, so the series cannot depend on the
        // scheduling mode.
        const std::uint64_t alerts = prac_->alerts();
        if (alerts != busAboMark_) {
            bus_->onAboAlert(alerts - busAboMark_, now_);
            busAboMark_ = alerts;
        }
        const std::uint64_t events = mitigation_->eventsTriggered();
        if (events != busMitMark_) {
            bus_->onMitigationEvents(events - busMitMark_, now_);
            busMitMark_ = events;
        }
    }

    ++now_;
    if (issued || demand_issued) {
        nextWorkCacheValid_ = false;
    } else {
        // A tick that issued nothing already scanned every candidate
        // the bound functions would scan: the declined commands'
        // earliest-issue hints rebuild the cache with only O(inflight
        // + ranks) glue instead of a second queue sweep.  The hints
        // are absolute legality instants, so they remain exact at the
        // incremented clock.
        nextWorkCache_ = composeNextWorkAt(demandHint_, maintHint_);
        nextWorkCacheValid_ = true;
        ++sched_.nextWorkHintRebuilds;
    }
}

void
MemoryController::run(Cycle cycles)
{
    const Cycle end = now_ + cycles;
    while (now_ < end)
        tick();
}

Cycle
MemoryController::nextMaintenanceIssueAt() const
{
    // First cycle tickMaintenance() issues its next command.  Exact
    // because the drain state machine is deterministic and the DRAM
    // timing state is frozen between commands: a per-bank PRE's
    // legality depends only on its own bank's last ACT/CAS, and the
    // terminal RFM/REF becomes legal only once every required bank is
    // precharged -- which is exactly when the drain stops issuing
    // PREs.  tickMaintenance() takes the first *ready* PRE in scan
    // order, so the earliest legality over all open banks is the
    // cycle the next PRE actually fires.
    const DramOrg &org = spec_.org;

    if (maint_.isRfm && maint_.perBank) {
        const std::uint32_t rank =
            maint_.flatBank / org.banksPerRank();
        const std::uint32_t in_rank =
            maint_.flatBank % org.banksPerRank();
        const std::uint32_t bg = in_rank / org.banksPerGroup;
        const std::uint32_t bank = in_rank % org.banksPerGroup;
        if (dram_.isOpen(rank, bg, bank))
            return dram_.earliestIssue(
                Command{CmdType::PRE, rank, bg, bank, 0, 0});
        return dram_.earliestIssue(
            Command{CmdType::RFMpb, rank, bg, bank, 0, 0});
    }

    if (maint_.isRfm) {
        Cycle next = kNeverCycle;
        bool any_open = false;
        for (std::uint32_t r = 0; r < org.ranks; ++r) {
            for (std::uint32_t bg = 0; bg < org.bankGroups; ++bg) {
                for (std::uint32_t b = 0; b < org.banksPerGroup;
                     ++b) {
                    if (!dram_.isOpen(r, bg, b))
                        continue;
                    any_open = true;
                    next = std::min(
                        next, dram_.earliestIssue(Command{
                                  CmdType::PRE, r, bg, b, 0, 0}));
                }
            }
        }
        if (any_open)
            return next;
        return dram_.earliestIssue(
            Command{CmdType::RFMab, 0, 0, 0, 0, 0});
    }

    Cycle next = kNeverCycle;
    bool any_open = false;
    for (std::uint32_t bg = 0; bg < org.bankGroups; ++bg) {
        for (std::uint32_t b = 0; b < org.banksPerGroup; ++b) {
            if (!dram_.isOpen(maint_.rank, bg, b))
                continue;
            any_open = true;
            next = std::min(next,
                            dram_.earliestIssue(Command{
                                CmdType::PRE, maint_.rank, bg, b, 0,
                                0}));
        }
    }
    if (any_open)
        return next;
    return dram_.earliestIssue(
        Command{CmdType::REFab, maint_.rank, 0, 0, 0, 0});
}

Cycle
MemoryController::nextDemandIssueAt() const
{
    // Demand: the earliest cycle at which any command tickDemand()
    // would be willing to issue -- CAS on a row hit, PRE on a row
    // conflict, ACT on a closed bank -- becomes legal under the DRAM
    // timing state.  The deferral predicates are the same functions
    // tickDemand() calls: they depend only on queue content,
    // open-row state, hit streaks, and the drain/Alert blocks, all
    // of which are frozen while no command issues, so a candidate
    // declined today stays declined until some other candidate fires
    // first.
    if (queue_.empty())
        return kNeverCycle;

    const bool refresh_drain = maint_.active && !maint_.isRfm;
    const bool rfmpb_drain =
        maint_.active && maint_.isRfm && maint_.perBank;
    const bool acts_blocked =
        prac_->alertAsserted() &&
        prac_->actsSinceAlert() >= spec_.prac.aboAct;

    auto blocked_by_drain = [&](const DramAddress &da) {
        if (refresh_drain && da.rank == maint_.rank)
            return true;
        if (rfmpb_drain && mapper_.flatBank(da) == maint_.flatBank)
            return true;
        return false;
    };

    Cycle next = kNeverCycle;
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        const DramAddress &da = it->req.daddr;
        if (blocked_by_drain(da))
            continue;
        const bool open = dram_.isOpen(da.rank, da.bankGroup, da.bank);
        Command cmd{CmdType::ACT, da.rank, da.bankGroup, da.bank,
                    da.row, 0};
        if (open && dram_.openRow(da.rank, da.bankGroup, da.bank) ==
                        da.row) {
            if (hitDeferredAtCap(it, da))
                continue;
            cmd = Command{it->req.type == ReqType::Read ? CmdType::RD
                                                        : CmdType::WR,
                          da.rank, da.bankGroup, da.bank, da.row,
                          da.col};
        } else if (open) {
            if (preDeferredForPendingHit(
                    da, dram_.openRow(da.rank, da.bankGroup,
                                      da.bank)))
                continue;
            cmd = Command{CmdType::PRE, da.rank, da.bankGroup,
                          da.bank, 0, 0};
        } else if (acts_blocked) {
            continue; // the ABOACT budget blocks new activations
        }
        next = std::min(next, dram_.earliestIssue(cmd));
        if (next <= now_)
            return now_;
    }
    return next;
}

Cycle
MemoryController::nextWorkAt() const
{
    if (!nextWorkCacheValid_) {
        nextWorkCache_ = computeNextWorkAt();
        nextWorkCacheValid_ = true;
        ++sched_.nextWorkRebuilds;
    } else {
        ++sched_.nextWorkCacheHits;
    }
    // A valid cached bound can sit behind the clock only when the
    // caller skipped to it and is about to tick; clamping keeps the
    // contract (>= now()) without recomputing.
    return std::max(nextWorkCache_, now_);
}

Cycle
MemoryController::computeNextWorkAt() const
{
    return composeNextWorkAt(nextDemandIssueAt(),
                             maint_.active ? nextMaintenanceIssueAt()
                                           : kNeverCycle);
}

Cycle
MemoryController::composeNextWorkAt(Cycle demand_at,
                                    Cycle maint_at) const
{
    Cycle next = kNeverCycle;

    // Deliveries and the tREFW counter reset are absolute deadlines,
    // live in every controller state.  A delivery is an effect only
    // when someone can observe it -- a stats sink (latency histogram)
    // or a completion callback; the queue slot was already freed when
    // the CAS issued, so an unobserved flight (trace replay) needs no
    // wake-up and is collected lazily by a later tick.
    for (const InFlight &flight : inFlight_)
        if (stats_ || flight.entry.req.onComplete)
            next = std::min(next, flight.doneAt);
    next = std::min(next, prac_->nextCounterResetAt());

    if (maint_.active) {
        // An active drain owns the command engine: the next effect
        // is the drain's own next legal command, plus demand on the
        // banks a single-rank refresh / single-bank RFMpb drain
        // leaves schedulable.  Defense deadlines, refresh due times,
        // and Alert-service triggers are NOT polled while a drain is
        // active -- the drain's terminal RFM/REF is itself a tick,
        // after which the bound is recomputed with them back in.
        next = std::min(next, maint_at);
        if (!maint_.isRfm || maint_.perBank)
            next = std::min(next, demand_at);
        return std::max(next, now_);
    }

    if (prac_->alertAsserted()) {
        // Alert service starts the moment the ACT budget is spent;
        // until then the tABOACT window expiry is a hard trigger and
        // demand (which burns the budget) keeps running.
        if (prac_->actsSinceAlert() >= spec_.prac.aboAct)
            return now_;
        next = std::min(next, prac_->alertAssertedAt() +
                                  spec_.timing.tABOACT);
    }

    next = std::min(next, demand_at);
    if (config_.refreshEnabled)
        for (const Cycle due : nextRefreshAt_)
            next = std::min(next, due);
    next = std::min(next, mitigation_->nextMaintenanceAt(now_));
    return std::max(next, now_);
}

void
MemoryController::skipTo(Cycle target)
{
    if (target > now_) {
        sched_.cyclesJumped += target - now_;
        now_ = target;
    }
}

void
MemoryController::advanceTo(Cycle target)
{
    // Skip only on a cached bound.  When the cache is invalid (the
    // last tick issued, or a request arrived), tick immediately
    // rather than paying a full bound recomputation: ticking is
    // always behaviour-identical (lockstep is nothing but ticks), a
    // busy channel most likely has work next cycle anyway, and the
    // first tick that issues nothing rebuilds the cache as a free
    // by-product of its own scans -- so the full computeNextWorkAt()
    // sweep never runs on this path at all.
    while (now_ < target) {
        if (nextWorkCacheValid_) {
            const Cycle at = std::max(nextWorkCache_, now_);
            if (at > now_) {
                const Cycle to = std::min(at, target);
                sched_.cyclesJumped += to - now_;
                now_ = to;
                continue;
            }
        }
        tick();
    }
}

} // namespace pracleak
