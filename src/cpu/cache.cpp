#include "cpu/cache.h"

#include <algorithm>

#include "common/log.h"

namespace pracleak {

// ------------------------------------------------------------- TagArray

TagArray::TagArray(const CacheLevelConfig &config)
    : sets_(config.sets()), ways_(config.ways),
      data_(static_cast<std::size_t>(config.sets()) * config.ways)
{
    if (sets_ == 0 || (sets_ & (sets_ - 1)) != 0)
        fatal("cache set count must be a non-zero power of two");
}

std::size_t
TagArray::setOf(Addr line) const
{
    return static_cast<std::size_t>(line & (sets_ - 1)) * ways_;
}

bool
TagArray::lookup(Addr line)
{
    const std::size_t base = setOf(line);
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Way &way = data_[base + w];
        if (way.valid && way.line == line) {
            way.lastUse = ++useClock_;
            return true;
        }
    }
    return false;
}

bool
TagArray::probe(Addr line) const
{
    const std::size_t base = setOf(line);
    for (std::uint32_t w = 0; w < ways_; ++w) {
        const Way &way = data_[base + w];
        if (way.valid && way.line == line)
            return true;
    }
    return false;
}

std::optional<TagArray::Victim>
TagArray::insert(Addr line, bool dirty)
{
    const std::size_t base = setOf(line);
    std::size_t lru = base;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Way &way = data_[base + w];
        if (way.valid && way.line == line) {
            // Already present: refresh recency, merge dirty.
            way.lastUse = ++useClock_;
            way.dirty = way.dirty || dirty;
            return std::nullopt;
        }
        if (!way.valid) {
            way.valid = true;
            way.line = line;
            way.dirty = dirty;
            way.lastUse = ++useClock_;
            return std::nullopt;
        }
        if (way.lastUse < data_[lru].lastUse)
            lru = base + w;
    }

    Way &victim = data_[lru];
    const Victim out{victim.line, victim.dirty};
    victim.line = line;
    victim.dirty = dirty;
    victim.lastUse = ++useClock_;
    return out;
}

bool
TagArray::markDirty(Addr line)
{
    const std::size_t base = setOf(line);
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Way &way = data_[base + w];
        if (way.valid && way.line == line) {
            way.dirty = true;
            way.lastUse = ++useClock_;
            return true;
        }
    }
    return false;
}

std::optional<bool>
TagArray::invalidate(Addr line)
{
    const std::size_t base = setOf(line);
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Way &way = data_[base + w];
        if (way.valid && way.line == line) {
            way.valid = false;
            return way.dirty;
        }
    }
    return std::nullopt;
}

// ------------------------------------------------------- CacheHierarchy

CacheHierarchy::CacheHierarchy(const CacheHierConfig &config,
                               std::uint32_t num_cores,
                               MemoryController *mem, StatSet *stats)
    : CacheHierarchy(config, num_cores,
                     std::vector<MemoryController *>{mem}, stats)
{
}

CacheHierarchy::CacheHierarchy(const CacheHierConfig &config,
                               std::uint32_t num_cores,
                               std::vector<MemoryController *> mems,
                               StatSet *stats)
    : config_(config), mems_(std::move(mems)),
      l1Hits_(stats, "cache.l1_hits"), l2Hits_(stats, "cache.l2_hits"),
      llcHits_(stats, "cache.llc_hits"),
      llcMisses_(stats, "cache.llc_misses"),
      writebacks_(stats, "cache.writebacks"),
      droppedWritebacks_(stats, "cache.dropped_writebacks"),
      mshrMerges_(stats, "cache.mshr_merges"), llc_(config.llc),
      mshrCapacity_(static_cast<std::size_t>(config.mshrsPerCore) *
                    num_cores)
{
    if (mems_.empty())
        fatal("CacheHierarchy needs at least one memory controller");
    if (mems_[0]->mapper().channels() != mems_.size())
        fatal("controller count must match the channel-interleave "
              "fan-out");
    l1_.reserve(num_cores);
    l2_.reserve(num_cores);
    for (std::uint32_t c = 0; c < num_cores; ++c) {
        l1_.emplace_back(config.l1);
        l2_.emplace_back(config.l2);
    }
}

MemoryController &
CacheHierarchy::memFor(Addr line)
{
    if (mems_.size() == 1)
        return *mems_[0];
    return *mems_[mems_[0]->mapper().channelOf(line << kLineShift)];
}

bool
CacheHierarchy::lookupHierarchy(std::uint32_t core, Addr line,
                                Cycle &latency)
{
    latency = config_.l1.latency;
    if (l1_[core].lookup(line)) {
        ++l1Hits_;
        return true;
    }
    latency += config_.l2.latency;
    if (l2_[core].lookup(line)) {
        ++l2Hits_;
        fill(core, line, false);
        return true;
    }
    latency += config_.llc.latency;
    if (llc_.lookup(line)) {
        ++llcHits_;
        fill(core, line, false);
        return true;
    }
    ++llcMisses_;
    return false;
}

void
CacheHierarchy::writeback(Addr line)
{
    Request wb;
    wb.type = ReqType::Write;
    wb.addr = line << kLineShift;
    if (!memFor(line).enqueue(std::move(wb))) {
        // Queue full: drop the writeback's bandwidth cost rather than
        // stalling the hierarchy; rare, and data correctness is not
        // modeled.
        ++droppedWritebacks_;
    } else {
        ++writebacks_;
    }
}

void
CacheHierarchy::fill(std::uint32_t core, Addr line, bool dirty)
{
    // Fill into every level; only LLC evictions touch DRAM
    // (non-inclusive hierarchy, L1/L2 victims are clean or will be
    // re-fetched through the LLC).
    if (auto v = l1_[core].insert(line, dirty); v && v->dirty)
        l2_[core].insert(v->line, true);
    l2_[core].insert(line, false);
    if (auto v = llc_.insert(line, false); v && v->dirty)
        writeback(v->line);
}

bool
CacheHierarchy::missToDram(std::uint32_t core, Addr line, Waiter waiter)
{
    auto it = mshrs_.find(line);
    if (it != mshrs_.end()) {
        // Merge into the outstanding miss.
        it->second.waiters.push_back(std::move(waiter));
        ++mshrMerges_;
        return true;
    }

    MemoryController &mem = memFor(line);
    if (mshrs_.size() >= mshrCapacity_ || !mem.canAccept())
        return false;

    Request req;
    req.type = ReqType::Read;
    req.addr = line << kLineShift;
    req.coreId = core;
    req.onComplete = [this, line](const Request &done_req) {
        auto node = mshrs_.extract(line);
        if (node.empty())
            panic("MSHR completion without entry");
        for (Waiter &w : node.mapped().waiters) {
            fill(w.core, line, false);
            if (w.isStore) {
                l1_[w.core].markDirty(line);
            } else if (w.done) {
                w.done(done_req.latency() + w.lookupLatency);
            }
        }
    };

    Mshr entry;
    entry.waiters.push_back(std::move(waiter));
    if (!mem.enqueue(std::move(req)))
        return false;
    mshrs_.emplace(line, std::move(entry));
    return true;
}

bool
CacheHierarchy::tryLoad(std::uint32_t core, Addr addr,
                        std::function<void(Cycle)> done)
{
    const Addr line = addr >> kLineShift;
    Cycle latency = 0;
    if (lookupHierarchy(core, line, latency)) {
        if (done)
            done(latency);
        return true;
    }
    return missToDram(core, line,
                      Waiter{core, false, std::move(done), latency});
}

bool
CacheHierarchy::tryStore(std::uint32_t core, Addr addr)
{
    const Addr line = addr >> kLineShift;
    Cycle latency = 0;
    if (lookupHierarchy(core, line, latency)) {
        l1_[core].markDirty(line);
        return true;
    }
    return missToDram(core, line, Waiter{core, true, nullptr, latency});
}

void
CacheHierarchy::flush(Addr addr)
{
    const Addr line = addr >> kLineShift;
    bool dirty = false;
    for (std::size_t c = 0; c < l1_.size(); ++c) {
        if (auto d = l1_[c].invalidate(line))
            dirty |= *d;
        if (auto d = l2_[c].invalidate(line))
            dirty |= *d;
    }
    if (auto d = llc_.invalidate(line))
        dirty |= *d;
    if (dirty)
        writeback(line);
}

} // namespace pracleak
