#include "hwsim/clocksim.hpp"

namespace bcl {

int
ClockedPartition::cycle()
{
    int fired = clockEdge();
    stats_.cycles++;
    stats_.rulesFired += static_cast<std::uint64_t>(fired);
    if (fired > 0)
        stats_.busyCycles++;
    lastFired = fired;
    return fired;
}

std::uint64_t
ClockedPartition::stepCycles(std::uint64_t budget, std::uint64_t &fired)
{
    std::uint64_t used = 0;
    while (used < budget) {
        used++;
        int f = cycle();
        fired += static_cast<std::uint64_t>(f);
        if (f == 0) {
            // The trailing idle probe consumed real time (the return
            // value reflects it) but did no work; keep it out of
            // stats().cycles so cycle accounting is identical whether
            // the caller paces per cycle, per burst, or free-runs.
            stats_.cycles--;
            break;
        }
    }
    return used;
}

std::uint64_t
ClockedPartition::run(std::uint64_t max_cycles)
{
    std::uint64_t fired = 0;
    return stepCycles(max_cycles, fired);
}

ExecStep
ClockedPartition::step(std::uint64_t budget)
{
    ExecStep r;
    if (perCycle) {
        r.fired = static_cast<std::uint64_t>(cycle());
        r.consumed = 1;
    } else {
        r.consumed = stepCycles(budget, r.fired);
    }
    r.cycles = static_cast<double>(r.consumed);
    stepFired = r.fired;
    return r;
}

ExecStep
ClockedPartition::settledStep()
{
    if (perCycle)
        stats_.cycles++;
    lastFired = 0;
    stepFired = 0;
    ExecStep r;
    r.consumed = 1;
    r.cycles = 1;
    return r;
}

ClockSim::ClockSim(const ElabProgram &prog, Store &store)
    : I(prog, store), matrix(prog),
      numRules(static_cast<int>(prog.rules.size()))
{
    validateForHardware(prog);
    stats_.perRuleFires.assign(numRules, 0);
}

int
ClockSim::clockEdge()
{
    chosen.clear();
    int fired = 0;
    // Static priority = program order (the order rules were
    // generated); a rule joins the cycle's set when it is composable
    // after every rule already chosen and its guard holds against the
    // current (intra-cycle) state. CF/SB composition guarantees the
    // sequential in-cycle execution below is a valid witness order
    // for one-rule-at-a-time semantics.
    for (int r = 0; r < numRules; r++) {
        bool ok = true;
        for (int c : chosen) {
            if (!matrix.composableInOrder(c, r)) {
                ok = false;
                break;
            }
        }
        if (!ok)
            continue;
        if (I.fireRule(r)) {
            chosen.push_back(r);
            stats_.perRuleFires[r]++;
            fired++;
        }
    }
    return fired;
}

} // namespace bcl
