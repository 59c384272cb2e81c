#include "attack/side_channel.h"

#include <deque>
#include <memory>

#include "attack/harness.h"
#include "attack/visible_bus.h"
#include "common/log.h"
#include "common/rng.h"
#include "tprac/analysis.h"

namespace pracleak {

namespace {

/** Bank holding the monitored Te0 rows. */
constexpr std::uint32_t kTe0Rank = 0;
constexpr std::uint32_t kTe0Bg = 3;
constexpr std::uint32_t kTe0Bank = 0;
constexpr std::uint32_t kTe0RowBase = 0x1000;
constexpr std::uint32_t kVictimCol = 0;
constexpr std::uint32_t kAttackerCol = 64;

DramAddress
te0Row(int line, std::uint32_t col)
{
    return DramAddress{kTe0Rank, kTe0Bg, kTe0Bank,
                       kTe0RowBase + static_cast<std::uint32_t>(line),
                       col};
}

/** Counts ACTs in the monitored bank, per monitored row. */
class ActRecorder : public DramListener
{
  public:
    ActRecorder(const AddressMapper &mapper, bool record_timeline)
        : recordTimeline_(record_timeline)
    {
        flatBank_ = mapper.flatBank(te0Row(0, 0));
    }

    void
    onActivate(std::uint32_t flat_bank, std::uint32_t row,
               Cycle now) override
    {
        if (flat_bank != flatBank_)
            return;
        if (row < kTe0RowBase || row >= kTe0RowBase + 16)
            return;
        const int idx = static_cast<int>(row - kTe0RowBase);
        ++counts_[idx];
        if (recordTimeline_)
            timeline_.emplace_back(now, idx);
    }

    void onRefresh(std::uint32_t, Cycle) override {}

    void
    onRfm(Cycle now) override
    {
        rfmTimes_.push_back(now);
    }

    const std::array<std::uint32_t, 16> &counts() const
    {
        return counts_;
    }
    std::array<std::uint32_t, 16> snapshot() const { return counts_; }
    const std::vector<Cycle> &rfmTimes() const { return rfmTimes_; }
    const std::vector<std::pair<Cycle, int>> &timeline() const
    {
        return timeline_;
    }

  private:
    std::uint32_t flatBank_;
    bool recordTimeline_;
    std::array<std::uint32_t, 16> counts_{};
    std::vector<Cycle> rfmTimes_;
    std::vector<std::pair<Cycle, int>> timeline_;
};

/**
 * The victim process: encrypts attacker-chosen plaintexts; its
 * first-round Te0 lookups surface as serialized DRAM reads because
 * the attacker keeps the table lines flushed.
 */
class AesVictim : public MemAgent
{
  public:
    AesVictim(const AddressMapper &mapper, const Aes128T::Key &key,
              std::uint8_t p0, int encryptions, std::uint64_t seed)
        : mapper_(mapper), aes_(key), p0_(p0),
          remaining_(encryptions), rng_(seed)
    {
        aes_.setAccessHook([this](int table, std::uint8_t index,
                                  int round) {
            if (table == 0 && round == 1)
                pendingLines_.push_back(index >> 4);
        });
    }

    bool done() const { return remaining_ == 0 && queue_.empty(); }

    Cycle
    nextEventAt(Cycle now) const override
    {
        // The in-flight read's completion wakes the harness.
        return inFlight_ || done() ? kNeverCycle : now;
    }

    void
    tick(MemoryController &mem, Cycle) override
    {
        if (inFlight_)
            return;
        if (queue_.empty()) {
            if (remaining_ == 0)
                return;
            runOneEncryption();
        }
        if (queue_.empty())
            return;

        Request req;
        req.type = ReqType::Read;
        req.addr = queue_.front();
        req.onComplete = [this](const Request &) { inFlight_ = false; };
        if (mem.enqueue(std::move(req))) {
            queue_.pop_front();
            inFlight_ = true;
        }
    }

  private:
    void
    runOneEncryption()
    {
        Aes128T::Block pt;
        pt[0] = p0_;
        for (int i = 1; i < 16; ++i)
            pt[i] = static_cast<std::uint8_t>(rng_.range(256));
        pendingLines_.clear();
        aes_.encrypt(pt);
        for (const int line : pendingLines_)
            queue_.push_back(mapper_.compose(te0Row(line, kVictimCol)));
        --remaining_;
    }

    const AddressMapper &mapper_;
    Aes128T aes_;
    std::uint8_t p0_;
    int remaining_;
    Rng rng_;
    std::vector<int> pendingLines_;
    std::deque<Addr> queue_;
    bool inFlight_ = false;
};

/**
 * The attacker's prober: round-robin single activations over the 16
 * monitored rows, watching its own latencies for the RFM spike.
 */
class SideProber : public MemAgent
{
  public:
    SideProber(const AddressMapper &mapper, Cycle spike_threshold,
               bool record_timeline)
        : threshold_(spike_threshold), recordTimeline_(record_timeline)
    {
        for (int line = 0; line < 16; ++line)
            addrs_[line] = mapper.compose(te0Row(line, kAttackerCol));
    }

    void arm() { active_ = true; }

    bool spikeSeen() const { return spikeSeen_; }
    int spikeIndex() const { return spikeIndex_; }
    int completedReads() const { return completed_; }
    const std::vector<LatencySample> &timeline() const
    {
        return timeline_;
    }

    /** Attacker activations to @p row so far. */
    std::uint32_t
    actsToRow(int row) const
    {
        // Round-robin: reads i with i % 16 == row.
        return static_cast<std::uint32_t>((completed_ + 15 - row) / 16);
    }

    Cycle
    nextEventAt(Cycle now) const override
    {
        // A completion frees a slot; it wakes the harness itself.
        return wantsRead() ? now : kNeverCycle;
    }

    void
    tick(MemoryController &mem, Cycle) override
    {
        // Two reads stay in flight so the probe activates at the
        // bank's full row-cycle rate; the controller's ABOACT budget
        // (3 ACTs) then binds before the 180 ns window does, which
        // makes the spike's distance from the trigger deterministic.
        while (wantsRead()) {
            const int idx = issued_;
            Request req;
            req.type = ReqType::Read;
            req.addr = addrs_[idx % 16];
            req.onComplete = [this, idx](const Request &done) {
                --outstanding_;
                ++completed_;
                if (recordTimeline_)
                    timeline_.push_back(
                        LatencySample{done.completed, done.latency()});
                if (!spikeSeen_ && done.latency() >= threshold_) {
                    spikeSeen_ = true;
                    spikeIndex_ = idx;
                }
            };
            if (!mem.enqueue(std::move(req)))
                return;
            ++outstanding_;
            ++issued_;
        }
    }

  private:
    bool
    wantsRead() const
    {
        return active_ && !spikeSeen_ && outstanding_ < 2;
    }

    std::array<Addr, 16> addrs_{};
    Cycle threshold_;
    bool recordTimeline_;
    bool active_ = false;
    std::uint32_t outstanding_ = 0;
    bool spikeSeen_ = false;
    int spikeIndex_ = -1;
    int issued_ = 0;
    int completed_ = 0;
    std::vector<LatencySample> timeline_;
};

ControllerConfig
sideChannelConfig(const SideChannelParams &params)
{
    ControllerConfig config;
    config.mode = params.mode;
    config.prac.queue = QueueKind::Ideal; // UPRAC, as in the paper
    if (params.mode == MitigationMode::AboAcb) {
        const FeintingParams fp = FeintingParams::fromSpec(params.spec);
        config.bat = std::max<std::uint32_t>(
            16, maxSafeBat(params.nbo, true, fp));
    }
    if (params.mode == MitigationMode::Tprac) {
        if (params.tbWindowCycles)
            config.tbRfm.windowCycles = params.tbWindowCycles;
        else
            config.tbRfm =
                TbRfmConfig::forNbo(params.nbo, true, params.spec);
    }
    return config;
}

} // namespace

SideChannelResult
runAesSideChannel(const SideChannelParams &params)
{
    DramSpec spec = params.spec;
    spec.prac.nbo = params.nbo;
    spec.prac.nmit = params.nmit;

    int lag = params.probeLag;
    if (lag < 0) {
        SideChannelParams cal = params;
        cal.probeLag = 0;
        cal.key = Aes128T::Key{}; // all-zero key
        cal.p0 = 0;               // => true trigger row is 0
        cal.mode = MitigationMode::AboOnly;
        cal.recordTimeline = false;
        const SideChannelResult dry = runAesSideChannel(cal);
        if (dry.spikeObserved)
            lag = (dry.spikeProbeIndex % 16 + 16 - 0) % 16;
        else
            lag = 0;
    }

    AttackHarness harness(spec, sideChannelConfig(params));
    const AddressMapper &mapper = harness.mem().mapper();

    ActRecorder recorder(mapper, params.recordTimeline);
    harness.mem().dram().addListener(&recorder);

    AesVictim victim(mapper, params.key, params.p0, params.encryptions,
                     params.seed);
    const Cycle threshold =
        params.spikeThresholdNs > 0.0
            ? nsToCycles(params.spikeThresholdNs)
            : VisibleBusModel::fromSpec(spec).rfmSpikeThreshold();
    SideProber prober(mapper, threshold, params.recordTimeline);

    harness.add(&victim);
    harness.add(&prober);

    // Phase A: victim encrypts under attacker-controlled flushing.
    harness.runUntil([&] { return victim.done(); },
                     spec.timing.tREFW / 8);
    if (!victim.done())
        warn("AES victim did not finish its encryptions");

    SideChannelResult result;
    result.victimActsPerRow = recorder.snapshot();
    result.victimPhaseEnd = harness.now();

    // Phase B: attacker probes until the first RFM spike.
    prober.arm();
    const Cycle probe_budget =
        spec.timing.tRC * 2 * (params.nbo + 64) * 16 +
        nsToCycles(200000);
    harness.runUntil([&] { return prober.spikeSeen(); }, probe_budget);

    result.spikeObserved = prober.spikeSeen();
    result.spikeProbeIndex = prober.spikeIndex();
    if (result.spikeObserved) {
        result.estimatedTriggerRow =
            ((prober.spikeIndex() % 16) + 16 - (lag % 16)) % 16;
        result.attackerActsToTrigger =
            prober.actsToRow(result.estimatedTriggerRow);
        result.recoveredKeyNibble =
            result.estimatedTriggerRow ^ (params.p0 >> 4);
    }
    if (harness.mem().prac().alerts() > 0) {
        const std::uint32_t row = harness.mem().prac().lastAlertRow();
        if (row >= kTe0RowBase && row < kTe0RowBase + 16)
            result.trueTriggerRow = static_cast<int>(row - kTe0RowBase);
    }

    if (params.recordTimeline) {
        result.probeTimeline = prober.timeline();
        result.rfmTimes = recorder.rfmTimes();
        result.actTimeline = recorder.timeline();
    }
    return result;
}

SideChannelResult
runAesSideChannelMajority(const SideChannelParams &params, int repeats)
{
    // Attribution noise is one-sided: a refresh colliding with the
    // ABOACT window only removes probe reads between the trigger and
    // the observed spike, so the estimate can only fall *behind* the
    // true row on the 16-row ring.  The ring-maximum over repeats is
    // therefore the consistent estimator (exact as soon as one repeat
    // is collision-free).
    std::vector<int> estimates;
    SideChannelResult best;
    bool have_result = false;
    for (int r = 0; r < repeats; ++r) {
        SideChannelParams attempt = params;
        attempt.seed = params.seed + 7919ULL * r;
        SideChannelResult result = runAesSideChannel(attempt);
        if (!result.spikeObserved)
            continue;
        if (result.estimatedTriggerRow >= 0)
            estimates.push_back(result.estimatedTriggerRow);
        if (!have_result) {
            best = std::move(result);
            have_result = true;
        }
    }
    if (!have_result || estimates.empty())
        return best;

    const int reference = estimates.front();
    int max_forward = 0;
    for (const int estimate : estimates) {
        // Signed ring distance from the reference, in [-8, 8).
        int d = ((estimate - reference) % 16 + 16) % 16;
        if (d >= 8)
            d -= 16;
        max_forward = std::max(max_forward, d);
    }
    const int winner = ((reference + max_forward) % 16 + 16) % 16;
    best.estimatedTriggerRow = winner;
    best.recoveredKeyNibble = winner ^ (params.p0 >> 4);
    return best;
}

int
calibrateProbeLag(SideChannelParams params)
{
    params.probeLag = 0;
    params.key = Aes128T::Key{};
    params.p0 = 0;
    params.mode = MitigationMode::AboOnly;
    const SideChannelResult dry = runAesSideChannel(params);
    if (!dry.spikeObserved)
        return 0;
    return dry.spikeProbeIndex % 16;
}

} // namespace pracleak
