#include "mem/controller.h"

#include <algorithm>

#include "common/log.h"
#include "mitigation/registry.h"
#include "telemetry/timeseries.h"

namespace pracleak {

MemoryController::MemStats::MemStats(StatSet *stats)
    : reads(stats, "mem.reads"), writes(stats, "mem.writes"),
      rowHits(stats, "mem.row_hits"), rowMisses(stats, "mem.row_misses"),
      rowConflicts(stats, "mem.row_conflicts"),
      refreshes(stats, "mem.refreshes"),
      aboRfms(stats, "mem.abo_rfms"), acbRfms(stats, "mem.acb_rfms"),
      tbRfms(stats, "mem.tb_rfms"), tbRfmsPb(stats, "mem.tb_rfms_pb"),
      randomRfms(stats, "mem.random_rfms"),
      grapheneRfms(stats, "mem.graphene_rfms"),
      pbRfms(stats, "mem.pb_rfms")
{
}

MemoryController::MemoryController(const DramSpec &spec,
                                   const ControllerConfig &config,
                                   StatSet *stats)
    : spec_(spec), config_(config), stats_(stats), memStats_(stats),
      dram_(spec),
      mapper_(spec.org, config.mapping, config.interleave)
{
    const std::string &defense = config_.mitigation;
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
    bankQueues_.resize(spec.org.totalBanks());
    activeSlot_.assign(spec.org.totalBanks(), 0);
    slots_.resize(spec.org.totalBanks());

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
    ++(request.type == ReqType::Read ? memStats_.reads
                                     : memStats_.writes);
    const std::uint32_t flat = mapper_.flatBank(request.daddr);
    std::vector<Entry> &queue = bankQueues_[flat];
    BankSlot &slot = slots_[flat];
    const auto index = static_cast<std::uint32_t>(queue.size());
    const std::uint64_t seq = nextSeq_++;
    if (queue.empty()) {
        activeSlot_[flat] =
            static_cast<std::uint32_t>(activeBanks_.size());
        activeBanks_.push_back(flat);
        slot.headSeq = seq;
    }
    if (slot.summaryValid)
        slot.note(request, index, seq);
    // The new request may be legal before anything the bank offered.
    slot.wake = 0;
    queue.push_back(Entry{std::move(request), seq});
    ++queued_;
    nextWorkCacheValid_ = false;
    if (queueOccupancy_)
        queueOccupancy_->sample(static_cast<double>(queued_));
    if (bus_)
        bus_->onQueueDepth(queued_, now_);
    return true;
}

void
MemoryController::finishRequest(Entry &entry, Cycle done_at)
{
    entry.req.completed = done_at;
    inFlight_.push_back(InFlight{std::move(entry), done_at});
    trackFlight(inFlight_.back());
}

void
MemoryController::trackFlight(const InFlight &flight)
{
    nextDoneAt_ = std::min(nextDoneAt_, flight.doneAt);
    if (stats_ || flight.entry.req.onComplete)
        nextObservedDoneAt_ =
            std::min(nextObservedDoneAt_, flight.doneAt);
}

void
MemoryController::deliverFinished()
{
    // Deliver finished requests and refold the bounds over the
    // flights left behind.
    nextDoneAt_ = kNeverCycle;
    nextObservedDoneAt_ = kNeverCycle;
    for (std::size_t i = 0; i < inFlight_.size();) {
        if (inFlight_[i].doneAt > now_) {
            trackFlight(inFlight_[i]);
            ++i;
            continue;
        }
        Entry entry = std::move(inFlight_[i].entry);
        inFlight_[i] = std::move(inFlight_.back());
        inFlight_.pop_back();
        if (stats_ && entry.req.type == ReqType::Read) {
            if (!readLatency_)
                readLatency_ = &stats_->histogram("mem.read_latency_ns");
            readLatency_->sample(cyclesToNs(entry.req.latency()));
        }
        if (entry.req.onComplete)
            entry.req.onComplete(entry.req);
    }
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
    issueNow(cmd);
    return true;
}

void
MemoryController::issueNow(const Command &cmd)
{
    dram_.issue(cmd, now_);
    // A PRE changes what its bank can offer, and a maintenance drain
    // may close a bank before its wake: evaluate the bank afresh.
    if (cmd.type == CmdType::PRE)
        slots_[dram_.bankIndex(cmd.rank, cmd.bankGroup, cmd.bank)].wake =
            0;
    if (bus_)
        bus_->onCommand(cmd, now_);
}

void
MemoryController::countRfm(RfmReason reason, bool per_bank)
{
    ++rfmCounts_[static_cast<std::size_t>(reason)];
    switch (reason) {
      case RfmReason::Abo:
        ++memStats_.aboRfms;
        break;
      case RfmReason::Acb:
        ++memStats_.acbRfms;
        break;
      case RfmReason::TimingBased:
        ++(per_bank ? memStats_.tbRfmsPb : memStats_.tbRfms);
        break;
      case RfmReason::Random:
        ++memStats_.randomRfms;
        break;
      case RfmReason::Graphene:
        ++memStats_.grapheneRfms;
        break;
      case RfmReason::PerBank:
        ++memStats_.pbRfms;
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
    ++memStats_.refreshes;
    mitigation_->onRefresh(maint_.rank, now_);
    return true;
}

template <typename Visit>
Cycle
MemoryController::forEachDemandCandidate(Visit &&visit) const
{
    const bool refresh_drain = maint_.active && !maint_.isRfm;
    const bool rfmpb_drain =
        maint_.active && maint_.isRfm && maint_.perBank;
    const bool acts_blocked =
        prac_->alertAsserted() &&
        prac_->actsSinceAlert() >= spec_.prac.aboAct;
    const std::uint32_t banks_per_rank = spec_.org.banksPerRank();
    Cycle skipped = kNeverCycle;

    for (const std::uint32_t flat : activeBanks_) {
        if (refresh_drain && flat / banks_per_rank == maint_.rank)
            continue;
        if (rfmpb_drain && flat == maint_.flatBank)
            continue;
        BankSlot &slot = slots_[flat];
        if (slot.wake > now_) {
            skipped = std::min(skipped, slot.wake);
            continue;
        }
        ++sched_.banksEvaluated;

        if (!dram_.isOpen(flat)) {
            // The ACT bounds the bank even while the ABOACT budget
            // holds it back, so the wake survives the Alert.
            slot.wake = dram_.earliestAct(flat);
            if (!acts_blocked)
                visit(Candidate{CmdType::ACT, flat, 0, slot.headSeq,
                                slot.wake});
            continue;
        }

        const std::uint32_t row = dram_.openRow(flat);
        if (!slot.summaryValid || slot.summaryRow != row)
            rebuildSummary(slot, bankQueues_[flat], row);

        // At the streak cap a hit yields to an older conflict, and a
        // conflict's PRE stops waiting for the queued hits.
        const bool at_cap = slot.hitStreak >= config_.frfcfsCap;
        Cycle wake = kNeverCycle;
        for (const bool is_read : {true, false}) {
            const Oldest &hit = is_read ? slot.read : slot.write;
            if (hit.index == kNoIndex ||
                (at_cap && slot.conflict.index < hit.index))
                continue;
            const Cycle at = dram_.earliestCas(flat, row, is_read);
            wake = std::min(wake, at);
            visit(Candidate{is_read ? CmdType::RD : CmdType::WR, flat,
                            hit.index, hit.seq, at});
        }
        const bool any_hit = slot.read.index != kNoIndex ||
                             slot.write.index != kNoIndex;
        if (slot.conflict.index != kNoIndex && (at_cap || !any_hit)) {
            const Cycle at = dram_.earliestPre(flat);
            wake = std::min(wake, at);
            visit(Candidate{CmdType::PRE, flat, slot.conflict.index,
                            slot.conflict.seq, at});
        }
        slot.wake = wake;
    }
    return skipped;
}

void
MemoryController::rebuildSummary(BankSlot &slot,
                                 const std::vector<Entry> &queue,
                                 std::uint32_t row)
{
    slot.summaryRow = row;
    slot.summaryValid = true;
    slot.read = slot.write = slot.conflict = Oldest{};
    for (std::size_t i = 0; i < queue.size(); ++i) {
        slot.note(queue[i].req, static_cast<std::uint32_t>(i),
                  queue[i].seq);
        if (slot.read.index != kNoIndex &&
            slot.write.index != kNoIndex &&
            slot.conflict.index != kNoIndex)
            break;
    }
}

Command
MemoryController::commandFor(const Candidate &cand) const
{
    const DramAddress &da =
        bankQueues_[cand.flatBank][cand.index].req.daddr;
    const bool is_cas =
        cand.type == CmdType::RD || cand.type == CmdType::WR;
    return Command{cand.type, da.rank, da.bankGroup, da.bank,
                   cand.type == CmdType::PRE ? 0 : da.row,
                   is_cas ? da.col : 0};
}

bool
MemoryController::tickDemand()
{
    // FR-FCFS: the oldest legal row hit, else the oldest legal PRE or
    // ACT.  Every candidate not legal yet, and every bank skipped for
    // its wake, bounds the next-work hint.
    Candidate hit{};
    Candidate row{};
    bool have_hit = false;
    bool have_row = false;
    const Cycle skipped = forEachDemandCandidate([&](const Candidate &cand) {
        if (cand.at > now_) {
            demandHint_ = std::min(demandHint_, cand.at);
            return;
        }
        const bool is_cas =
            cand.type == CmdType::RD || cand.type == CmdType::WR;
        Candidate &best = is_cas ? hit : row;
        bool &have = is_cas ? have_hit : have_row;
        if (!have || cand.seq < best.seq) {
            best = cand;
            have = true;
        }
    });
    demandHint_ = std::min(demandHint_, skipped);

    if (have_hit) {
        issueNow(commandFor(hit));
        BankSlot &slot = slots_[hit.flatBank];
        ++slot.hitStreak;
        ++memStats_.rowHits;
        const Cycle done = hit.type == CmdType::RD
                               ? now_ + spec_.timing.readLatency()
                               : now_ + spec_.timing.writeLatency();
        std::vector<Entry> &queue = bankQueues_[hit.flatBank];
        Entry entry = std::move(queue[hit.index]);
        queue.erase(queue.begin() + hit.index);
        --queued_;
        slot.summaryValid = false;
        if (queue.empty()) {
            const std::uint32_t pos = activeSlot_[hit.flatBank];
            activeBanks_[pos] = activeBanks_.back();
            activeSlot_[activeBanks_[pos]] = pos;
            activeBanks_.pop_back();
        } else {
            slot.headSeq = queue.front().seq;
        }
        finishRequest(entry, done);
        return true;
    }
    if (!have_row)
        return false;

    const Command cmd = commandFor(row);
    issueNow(cmd);
    slots_[row.flatBank].hitStreak = 0;
    if (cmd.type == CmdType::PRE) {
        ++memStats_.rowConflicts;
    } else {
        mitigation_->onActivate(row.flatBank, cmd.row, now_);
        ++memStats_.rowMisses;
    }
    return true;
}

void
MemoryController::tick()
{
    ++sched_.ticksFired;
    prac_->maybePeriodicReset(now_);
    demandHint_ = kNeverCycle;
    maintHint_ = kNeverCycle;

    if (now_ >= nextDoneAt_)
        deliverFinished();

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
        // A tick that issued nothing already bounded every candidate
        // the bound functions would: the declined commands' earliest-
        // issue instants and the skipped banks' wakes rebuild the
        // cache with only O(ranks) glue instead of a second sweep.
        // The hints are absolute lower bounds, so they remain valid
        // at the incremented clock.
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
    // Demand: a lower bound on the first cycle at which any command
    // tickDemand() would be willing to issue becomes legal under the
    // DRAM timing state -- the evaluated candidates' instants and the
    // skipped banks' wakes.  The candidates are the ones tickDemand()
    // weighs, and what selects them -- queue content, open rows, hit
    // streaks, the drain and Alert blocks -- is frozen while no
    // command issues, so a candidate declined today stays declined
    // until some other candidate fires first.
    Cycle next = kNeverCycle;
    const Cycle skipped = forEachDemandCandidate(
        [&next](const Candidate &cand) { next = std::min(next, cand.at); });
    return std::min(next, skipped);
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
    // Deliveries and the tREFW counter reset are absolute deadlines,
    // live in every controller state.  A delivery is an effect only
    // when someone can observe it -- a stats sink (latency histogram)
    // or a completion callback; the queue slot was already freed when
    // the CAS issued, so an unobserved flight (trace replay) needs no
    // wake-up and is collected lazily by a later tick.
    Cycle next = std::min(nextObservedDoneAt_, prac_->nextCounterResetAt());

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
