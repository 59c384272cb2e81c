#include "mitigation/graphene.h"

#include <algorithm>

#include "common/log.h"

namespace pracleak {

GrapheneMitigation::GrapheneMitigation(const GrapheneConfig &config,
                                       std::uint32_t num_banks,
                                       Cycle trefw, StatSet *stats)
    : config_(config),
      triggersStat_(stats, "mit.graphene.triggers"), trefw_(trefw),
      nextResetAt_(trefw), tables_(num_banks)
{
    if (config_.tableSize == 0 || config_.threshold == 0)
        fatal("Graphene requires a non-zero table size and threshold");
}

void
GrapheneMitigation::Table::setCount(std::uint32_t row,
                                    std::uint32_t from,
                                    std::uint32_t to, bool inserting)
{
    if (!inserting) {
        const auto bucket = byCount.find(from);
        bucket->second.erase(row);
        if (bucket->second.empty())
            byCount.erase(bucket);
    }
    rows[row] = to;
    byCount[to].insert(row);
}

void
GrapheneMitigation::Table::clear()
{
    rows.clear();
    byCount.clear();
}

void
GrapheneMitigation::onActivate(std::uint32_t flat_bank,
                               std::uint32_t row, Cycle now)
{
    while (now >= nextResetAt_) {
        for (Table &table : tables_)
            table.clear();
        nextResetAt_ += trefw_;
    }

    Table &table = tables_[flat_bank];
    const auto it = table.rows.find(row);
    if (it != table.rows.end()) {
        const std::uint32_t old = it->second;
        table.setCount(row, old, checkThreshold(flat_bank, old + 1),
                       false);
        return;
    }
    if (table.rows.size() < config_.tableSize) {
        table.setCount(row, 0, checkThreshold(flat_bank, 1), true);
        return;
    }

    // Table full: Space-Saving eviction.  The new row takes over the
    // lowest-row-id minimum entry and inherits its estimate plus one
    // (its true count cannot exceed that).
    const auto min_bucket = table.byCount.begin();
    const std::uint32_t victim = *min_bucket->second.begin();
    const std::uint32_t inherited = min_bucket->first + 1;
    min_bucket->second.erase(min_bucket->second.begin());
    if (min_bucket->second.empty())
        table.byCount.erase(min_bucket);
    table.rows.erase(victim);
    table.setCount(row, 0, checkThreshold(flat_bank, inherited),
                   true);
}

std::uint32_t
GrapheneMitigation::checkThreshold(std::uint32_t flat_bank,
                                   std::uint32_t count)
{
    if (count < config_.threshold)
        return count;
    // Trigger: queue the bank for an RFMpb and restart the estimate.
    pending_.push_back(flat_bank);
    ++triggers_;
    ++triggersStat_;
    return 0;
}

MaintenanceRequest
GrapheneMitigation::maintenanceCommands(Cycle)
{
    MaintenanceRequest req;
    if (pending_.empty())
        return req;
    req.wanted = true;
    req.perBank = true;
    req.reason = RfmReason::Graphene;
    req.flatBank = pending_.front();
    return req;
}

void
GrapheneMitigation::onRfmIssued(RfmReason reason, bool, Cycle)
{
    if (reason == RfmReason::Graphene && !pending_.empty())
        pending_.pop_front();
}

} // namespace pracleak
