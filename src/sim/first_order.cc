#include "sim/first_order.hh"

#include <algorithm>
#include <cmath>

#include "sim/branch_predictor.hh"
#include "sim/cache.hh"

namespace acdse
{

FirstOrderResult
firstOrderEstimate(const MicroarchConfig &config, const Trace &trace)
{
    // --- Structural pass: miss events under this configuration --------
    CacheHierarchy hierarchy(config);
    GsharePredictor bpred(config.bpredEntries());
    Btb btb(config.btbEntries());
    HierarchyAccessEvents events;

    std::uint64_t mispredicts = 0, btb_misses = 0;
    std::uint64_t l1_misses = 0, l2_misses = 0, il1_misses = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceInstruction &inst = trace[i];
        if (isMemClass(inst.cls)) {
            const std::uint64_t l1_before = hierarchy.dl1().misses();
            const std::uint64_t l2_before = hierarchy.l2().misses();
            hierarchy.dataAccess(inst.addr,
                                 inst.cls == InstClass::Store, events);
            l1_misses += hierarchy.dl1().misses() - l1_before;
            l2_misses += hierarchy.l2().misses() - l2_before;
        } else if (inst.cls == InstClass::Branch) {
            const bool pred =
                inst.conditional ? bpred.predict(inst.pc) : true;
            bpred.update(inst.pc, inst.taken);
            if (pred != inst.taken)
                ++mispredicts;
            if (inst.taken && !btb.lookup(inst.pc)) {
                btb.update(inst.pc);
                ++btb_misses;
            }
        }
        const std::uint64_t il1_before = hierarchy.il1().misses();
        hierarchy.instAccess(inst.pc & ~31u, events);
        il1_misses += hierarchy.il1().misses() - il1_before;
    }

    // --- Closed-form combination ----------------------------------------
    const TraceStats &ts = trace.stats();
    const FixedParams &fp = fixedParams();
    const double n = static_cast<double>(trace.size());

    // Steady-state issue rate: the classic square-root law relating the
    // effective window to the dependence-chain length, clipped by the
    // machine width and the operand-read bandwidth.
    const double window = std::min<double>(
        config.robSize(),
        std::min<double>(2.0 * config.iqSize(),
                         std::max(1, config.rfSize() - fp.archRegs)));
    const double ilp =
        std::sqrt(window * std::max(1.0, ts.meanDepDistance)) / 2.0;
    const double read_bw = config.rfReadPorts() / 1.6;
    const double ipc0 = std::max(
        0.25, std::min({static_cast<double>(config.width()), ilp,
                        read_bw}));

    const double base = n / ipc0;

    // Branch penalty: pipeline refill plus partial window drain.
    const double drain = window / (2.0 * ipc0);
    const double branch_penalty =
        static_cast<double>(mispredicts) *
            (fp.frontEndStages + fp.mispredictRedirect + drain) +
        static_cast<double>(btb_misses) * fp.mispredictRedirect;

    // Memory penalty: L1 misses pay the L2 trip, L2 misses pay DRAM;
    // overlap grows with the window (memory-level parallelism).
    const double mlp =
        std::clamp(std::sqrt(window) / 3.0, 1.0, 4.0);
    const double memory_penalty =
        (static_cast<double>(l1_misses - l2_misses) *
             hierarchy.l2Latency() +
         static_cast<double>(l2_misses) * fp.memLatency +
         static_cast<double>(il1_misses) *
             (hierarchy.l2Latency() + 2.0)) /
        mlp;

    FirstOrderResult result;
    result.ipcSteadyState = ipc0;
    result.branchPenalty = branch_penalty;
    result.memoryPenalty = memory_penalty;
    result.cycles = base + branch_penalty + memory_penalty;
    return result;
}

} // namespace acdse
