/**
 * @file
 * Rule-accurate synchronous hardware simulator. Implements the BSV
 * execution model the paper's hardware generation path relies on
 * (section 6.4): in every clock cycle a maximal set of enabled,
 * mutually non-conflicting rules fires; shadows live "in wires", i.e.
 * all updates of a cycle commit together at the clock edge. Rule
 * selection uses the static ConflictMatrix plus dynamic guard
 * evaluation, exactly the CAN_FIRE / WILL_FIRE scheme of the BSV
 * compiler.
 *
 * This simulator substitutes for the commercial BSV-to-Verilog flow +
 * FPGA in the paper's evaluation; "The simulation substitution" in
 * docs/ARCHITECTURE.md documents why the substitution preserves the
 * measured behaviour (cycle counts of rule-level pipelines).
 */
#ifndef BCL_HWSIM_CLOCKSIM_HPP
#define BCL_HWSIM_CLOCKSIM_HPP

#include <cstdint>
#include <vector>

#include "core/conflict.hpp"
#include "core/schedule.hpp"
#include "runtime/domain_executor.hpp"
#include "runtime/interp.hpp"

namespace bcl {

/**
 * Pacing and cycle accounting shared by ClockSim and the compiled
 * clock edge (hwsim/compiled_hw.hpp), written once over each
 * backend's clockEdge(), so cycle counts compare bit for bit across
 * backends (tests/test_codegen_hw.cpp).
 */
class ClockedPartition : public DomainExecutor
{
  public:
    /**
     * Simulate one clock cycle: compose and execute the maximal
     * prioritized conflict-free rule set. Always counts into
     * stats().cycles — a caller pacing the clock directly owns the
     * decision of which cycles to clock.
     * @return number of rules that fired.
     */
    int cycle();

    /**
     * Free-run until the partition is quiescent (a cycle with no
     * firing) or @p max_cycles elapse. The trailing idle probe that
     * detects quiescence is excluded from stats().cycles (it did no
     * work), exactly as stepCycles() excludes it — so cycle counts
     * are comparable no matter how the clock was paced. The return
     * value still includes it: the probe consumed real time.
     * @return cycles consumed.
     */
    std::uint64_t run(std::uint64_t max_cycles);

    /**
     * Externally paced stepping: clock up to @p budget cycles,
     * stopping after the first idle cycle. Unlike run(), the caller
     * owns the clock — the co-simulation paces bursts of cycles
     * against virtual time and polls channels between bursts, so a
     * partition never free-runs past in-flight deliveries. @p fired
     * accumulates rules fired across the burst. As in run(), the
     * trailing idle probe counts toward the returned cycles-consumed
     * (virtual time advanced) but not toward stats().cycles — one
     * accounting across run()/stepCycles() and across hardware
     * backends, never off-by-one per burst.
     * @return cycles consumed (the trailing idle cycle included).
     */
    std::uint64_t stepCycles(std::uint64_t budget,
                             std::uint64_t &fired);

    /** True when the last cycle() fired nothing. */
    bool idle() const override { return lastFired == 0; }

    /** stepCycles(budget), or one cycle() when paced per cycle (the
     *  sequential co-simulation, which observes every channel event
     *  at its exact cycle). */
    ExecStep step(std::uint64_t budget) override;
    void pacePerCycle(bool on) { perCycle = on; }

    /** The idle cycle without its edge: counted into stats().cycles
     *  when paced per cycle, as cycle() counts it; never counted in
     *  bursts, where it would be the leading, uncounted idle probe. */
    ExecStep settledStep() override;

  protected:
    /** Fire one edge's rule set. @return rules fired. */
    virtual int clockEdge() = 0;

    /** Rules fired by the whole last step(); unlike idle(), this sees
     *  a burst's firings, since a burst always ends on an idle cycle. */
    std::uint64_t lastStepFired() const { return stepFired; }

    mutable HwStats stats_;  ///< compiled: perRuleFires read lazily

  private:
    int lastFired = 1;  // assume work on first cycle
    std::uint64_t stepFired = 1;
    bool perCycle = false;
};

/** Synchronous simulator over one elaborated hardware partition. */
class ClockSim final : public ClockedPartition
{
  public:
    /**
     * @param prog Elaborated HW partition (validated: no loops/seq).
     * @param store Its state.
     */
    ClockSim(const ElabProgram &prog, Store &store);

    HwStats &stats() { return stats_; }
    const HwStats *hwStats() const override { return &stats_; }

  private:
    int clockEdge() override;

    Interp I;
    ConflictMatrix matrix;
    int numRules;
    std::vector<int> chosen;  // scratch
};

} // namespace bcl

#endif // BCL_HWSIM_CLOCKSIM_HPP
