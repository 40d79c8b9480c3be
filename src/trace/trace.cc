#include "trace/trace.hh"

#include <unordered_set>

#include "base/check.hh"

namespace acdse
{

Trace::Trace(std::string name, std::vector<TraceInstruction> instructions)
    : name_(std::move(name)), instructions_(std::move(instructions))
{
    ACDSE_CHECK(!instructions_.empty(), "trace must not be empty");
}

const TraceStats &
Trace::stats() const
{
    if (statsValid_)
        return stats_;

    TraceStats s;
    std::unordered_set<std::uint64_t> lines;
    std::unordered_set<std::uint64_t> pcs;
    double dep_total = 0.0;
    std::uint64_t dep_count = 0;
    std::uint64_t branches = 0;
    std::uint64_t taken = 0;

    for (const auto &inst : instructions_) {
        s.classFraction[static_cast<std::size_t>(inst.cls)] += 1.0;
        if (inst.srcDist1) {
            dep_total += inst.srcDist1;
            ++dep_count;
        }
        if (inst.srcDist2) {
            dep_total += inst.srcDist2;
            ++dep_count;
        }
        if (isMemClass(inst.cls))
            lines.insert(inst.addr / 32);
        pcs.insert(inst.pc);
        if (inst.cls == InstClass::Branch) {
            ++branches;
            taken += inst.taken;
        }
    }

    const double n = static_cast<double>(instructions_.size());
    for (auto &f : s.classFraction)
        f /= n;
    s.meanDepDistance = dep_count ? dep_total / dep_count : 0.0;
    s.branchFraction = branches / n;
    s.takenFraction = branches ? static_cast<double>(taken) / branches : 0.0;
    s.distinctLines = lines.size();
    s.distinctPcs = pcs.size();

    stats_ = s;
    statsValid_ = true;
    return stats_;
}

} // namespace acdse
