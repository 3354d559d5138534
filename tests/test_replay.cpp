/**
 * @file
 * Failed-attempt replay (runtime/interp.hpp) and the store versions it
 * rests on (runtime/store.hpp).
 *
 * A rule attempt that failed is answered from its memo, without
 * evaluating, while no primitive the rule may use has a newer
 * version. These tests pin both halves of that contract:
 *
 *   - a replayed attempt charges exactly the ExecStats delta of the
 *     evaluated failure before it;
 *   - every path that mutates state moves a version, so the rule
 *     fires on its next attempt after another rule's commit, an
 *     action-method call, a channel pickup or delivery, an executor
 *     writing its mirror, or a ClockSim edge;
 *   - idle channel polls move no version (or every poll would
 *     re-run the rules behind the channel);
 *   - a cost-model change, a replaced rule body and an attempt that
 *     escapes with an error leave nothing to replay.
 */
#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "common/logging.hpp"
#include "core/builder.hpp"
#include "core/domains.hpp"
#include "core/elaborate.hpp"
#include "core/partition.hpp"
#include "hwsim/clocksim.hpp"
#include "hwsim/compiled_hw.hpp"
#include "platform/channel.hpp"
#include "runtime/interp.hpp"
#include "runtime/store.hpp"

namespace bcl {
namespace {

TypePtr w32() { return Type::bits(32); }

ExprPtr
regIs(const std::string &reg, std::int64_t v)
{
    return primE(PrimOp::Eq, {regRead(reg), intE(32, v)});
}

void
expectSameStats(const ExecStats &a, const ExecStats &b)
{
    EXPECT_EQ(a.work, b.work);
    EXPECT_EQ(a.wastedWork, b.wastedWork);
    EXPECT_EQ(a.rulesAttempted, b.rulesAttempted);
    EXPECT_EQ(a.rulesFired, b.rulesFired);
    EXPECT_EQ(a.guardFails, b.guardFails);
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.shadowCopies, b.shadowCopies);
}

/**
 * "wait" does real work before its last guard fails: a localGuard
 * whose body fails (rollback charge, shadow copy) and a register
 * write (shadow copy), then "when r == 1". "set" and the action
 * method "poke" are the two ways to make it fire.
 */
struct WaitRig
{
    ElabProgram elab;
    std::unique_ptr<Store> store;
    std::unique_ptr<Interp> interp;
    int wait = -1;

    WaitRig()
    {
        ModuleBuilder b("Top");
        b.addReg("r", w32());
        b.addReg("x", w32());
        b.addReg("junk", w32());
        b.addRule(
            "wait",
            seqA({localGuardA(whenA(regWrite("junk", intE(32, 5)),
                                    boolE(false))),
                  regWrite("x", primE(PrimOp::Add,
                                      {regRead("x"), intE(32, 1)})),
                  whenA(noOpA(), regIs("r", 1))}));
        b.addRule("set", regWrite("r", intE(32, 1)));
        b.addRule("dw", parA({regWrite("junk", intE(32, 1)),
                              regWrite("junk", intE(32, 2))}));
        b.addActionMethod("poke", {{"v", w32()}},
                          regWrite("r", varE("v")));
        elab = elaborate(ProgramBuilder().add(b.build()).setRoot("Top")
                             .build());
        store = std::make_unique<Store>(elab);
        interp = std::make_unique<Interp>(elab, *store);
        wait = elab.ruleByName("wait");
    }

    /** Attempt @p rule; @return the ExecStats it charged. */
    ExecStats
    attempt(int rule, bool expect_fired)
    {
        const ExecStats before = interp->stats();
        EXPECT_EQ(interp->fireRule(rule), expect_fired);
        return interp->stats() - before;
    }

    std::int64_t
    reg(const std::string &path) const
    {
        return std::as_const(*store).at(elab.primByPath(path)).val.asInt();
    }
};

TEST(Store, OnlyTheMutableAccessorMovesVersions)
{
    WaitRig rig;
    const int r = rig.elab.primByPath("r");
    const int x = rig.elab.primByPath("x");
    EXPECT_EQ(rig.store->stamp(), 0u);
    (void)std::as_const(*rig.store).at(r);
    TxnFrame frame(*rig.store);
    (void)frame.get(r);
    EXPECT_EQ(rig.store->stamp(), 0u) << "reads moved a version";

    rig.store->at(r);
    EXPECT_EQ(rig.store->version(r), 1u);
    EXPECT_EQ(rig.store->version(x), 0u);
    rig.store->at(x);
    EXPECT_GT(rig.store->version(x), rig.store->version(r));
    EXPECT_EQ(rig.store->stamp(), rig.store->version(x));
}

TEST(Replay, RepeatedFailureChargesTheSameDeltaWithoutEvaluating)
{
    WaitRig rig;
    const ExecStats first = rig.attempt(rig.wait, false);
    EXPECT_EQ(first.rulesAttempted, 1u);
    EXPECT_EQ(first.guardFails, 1u);
    EXPECT_EQ(first.shadowCopies, 2u);
    EXPECT_GT(first.wastedWork, 0u);
    EXPECT_GT(first.work, first.wastedWork);
    EXPECT_EQ(rig.interp->replayedAttempts(), 0u);
    // The failed attempt itself changed nothing.
    EXPECT_EQ(rig.store->stamp(), 0u);

    for (int i = 0; i < 3; i++) {
        SCOPED_TRACE("replay " + std::to_string(i));
        expectSameStats(rig.attempt(rig.wait, false), first);
        EXPECT_EQ(rig.interp->replayedAttempts(),
                  static_cast<std::uint64_t>(i + 1));
    }
}

TEST(Replay, AnotherRulesCommitWakesTheRule)
{
    WaitRig rig;
    rig.attempt(rig.wait, false);
    rig.attempt(rig.elab.ruleByName("set"), true);
    rig.attempt(rig.wait, true);
    EXPECT_EQ(rig.interp->replayedAttempts(), 0u);
    EXPECT_EQ(rig.reg("x"), 1);
}

TEST(Replay, ActionMethodCallWakesTheRule)
{
    WaitRig rig;
    rig.attempt(rig.wait, false);
    ASSERT_TRUE(rig.interp->callActionMethod(
        rig.elab.rootMethod("poke"), {Value::makeInt(32, 1)}));
    rig.attempt(rig.wait, true);
    EXPECT_EQ(rig.reg("x"), 1);
}

TEST(Replay, CostModelChangeDropsTheMemo)
{
    WaitRig rig;
    const ExecStats cheap = rig.attempt(rig.wait, false);
    rig.interp->costs().perRollback += 36;
    const ExecStats dear = rig.attempt(rig.wait, false);
    EXPECT_EQ(rig.interp->replayedAttempts(), 0u);
    // Two rollbacks: the localGuard's and the rule's own.
    EXPECT_EQ(dear.work, cheap.work + 2 * 36);
    EXPECT_EQ(dear.wastedWork, cheap.wastedWork + 36);
    // The new delta is what replays from now on.
    expectSameStats(rig.attempt(rig.wait, false), dear);
    EXPECT_EQ(rig.interp->replayedAttempts(), 1u);
}

TEST(Replay, ReplacedRuleBodyDropsTheMemo)
{
    WaitRig rig;
    rig.attempt(rig.wait, false);
    // In place, as liftRule does; the new body is "set"'s (elaborated).
    rig.elab.rules[static_cast<size_t>(rig.wait)].body =
        rig.elab.rules[static_cast<size_t>(rig.elab.ruleByName("set"))]
            .body;
    rig.attempt(rig.wait, true);
    EXPECT_EQ(rig.reg("r"), 1);
}

TEST(Replay, ErrorEscapingAnAttemptRecordsNothing)
{
    WaitRig rig;
    const int dw = rig.elab.ruleByName("dw");
    EXPECT_THROW(rig.interp->fireRule(dw), DoubleWriteError);
    EXPECT_THROW(rig.interp->fireRule(dw), DoubleWriteError);
    EXPECT_EQ(rig.interp->replayedAttempts(), 0u);
}

TEST(Replay, ClockSimEdgeWakesRules)
{
    // Hardware-legal: no localGuard/sequencing in a rule.
    ModuleBuilder b("Top");
    b.addReg("r", w32());
    b.addReg("x", w32());
    b.addRule("wait", whenA(regWrite("x", primE(PrimOp::Add,
                                                {regRead("x"),
                                                 intE(32, 1)})),
                            regIs("r", 1)));
    b.addRule("set", regWrite("r", intE(32, 1)));
    ElabProgram elab =
        elaborate(ProgramBuilder().add(b.build()).setRoot("Top").build());
    const int wait = elab.ruleByName("wait");
    Store store(elab);
    ClockSim sim(elab, store);
    Interp sw(elab, store);

    EXPECT_FALSE(sw.fireRule(wait));
    EXPECT_EQ(sim.cycle(), 1);  // "wait" fails, then "set" commits
    EXPECT_EQ(sim.stats().perRuleFires[static_cast<size_t>(wait)], 0u);
    // The edge's commit is visible to the clock's own next probe...
    sim.cycle();
    EXPECT_EQ(sim.stats().perRuleFires[static_cast<size_t>(wait)], 1u);
    // ...and to any other interpreter over the same store.
    EXPECT_TRUE(sw.fireRule(wait));
    EXPECT_EQ(std::as_const(store).at(elab.primByPath("x")).val.asInt(),
              2);
}

/** The echo program of the cosim tests, partitioned SW -> HW -> SW;
 *  "watch" (HW) fires while the HW half of toHw is empty. */
struct EchoRig
{
    ElabProgram elab;
    PartitionResult parts;
    ChannelSpec toHw;
    std::unique_ptr<Store> sw;
    std::unique_ptr<Store> hw;
    LinkArbiter link;

    explicit EchoRig(int sync_capacity)
    {
        ModuleBuilder b("Top");
        b.addFifo("inQ", w32(), 8);
        b.addSync("toHw", w32(), sync_capacity, "SW", "HW");
        b.addSync("fromHw", w32(), sync_capacity, "HW", "SW");
        b.addReg("seen", w32());
        b.addActionMethod("push", {{"x", w32()}},
                          callA("inQ", "enq", {varE("x")}), "SW");
        b.addRule("feed",
                  parA({callA("toHw", "enq", {callV("inQ", "first")}),
                        callA("inQ", "deq")}));
        b.addRule("compute",
                  letA("x", callV("toHw", "first"),
                       parA({callA("toHw", "deq"),
                             callA("fromHw", "enq", {varE("x")})})));
        b.addRule("watch",
                  whenA(regWrite("seen", intE(32, 1)),
                        primE(PrimOp::Not,
                              {callV("toHw", "notEmpty")})));
        elab = elaborate(ProgramBuilder().add(b.build()).setRoot("Top")
                             .build());
        parts = partitionProgram(elab, inferDomains(elab));
        for (const auto &c : parts.channels) {
            if (c.fromDomain == "SW")
                toHw = c;
        }
        sw = std::make_unique<Store>(parts.part("SW").prog);
        hw = std::make_unique<Store>(parts.part("HW").prog);
    }

    const ElabProgram &swProg() { return parts.part("SW").prog; }
    const ElabProgram &hwProg() { return parts.part("HW").prog; }
};

TEST(Replay, IdleChannelPollsLeaveVersionsAlone)
{
    EchoRig rig(2);
    ChannelTransport ch(rig.toHw, *rig.sw, *rig.hw, rig.link,
                        BusParams{});
    const int tx = rig.toHw.txPrim;
    const int rx = rig.toHw.rxPrim;
    auto versions = [&] {
        return std::make_pair(rig.sw->version(tx), rig.hw->version(rx));
    };

    // Nothing staged, nothing in flight.
    auto idle = versions();
    ch.pump(0);
    EXPECT_EQ(ch.deliver(0), false);
    EXPECT_EQ(ch.nextEventAt(), std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(versions(), idle);

    // A real pickup moves the producer's version only.
    rig.sw->at(tx).queue.push_back(Value::makeInt(32, 7));
    const std::uint64_t staged = rig.sw->version(tx);
    ch.pump(0);
    ASSERT_EQ(ch.stats().messages, 1u);
    EXPECT_GT(rig.sw->version(tx), staged);
    EXPECT_EQ(rig.hw->version(rx), idle.second);

    // In flight but not yet due: nothing moves.
    const std::uint64_t due = ch.nextEventAt();
    ASSERT_GT(due, 0u);
    idle = versions();
    ch.pump(due - 1);
    EXPECT_FALSE(ch.deliver(due - 1));
    EXPECT_EQ(versions(), idle);

    // The delivery moves the consumer's version only.
    EXPECT_TRUE(ch.deliver(due));
    EXPECT_GT(rig.hw->version(rx), idle.second);
    EXPECT_EQ(rig.sw->version(tx), idle.first);

    // Staged behind a full consumer: the deferred pickup moves nothing.
    rig.hw->at(rx).queue.push_back(Value::makeInt(32, 8));
    rig.sw->at(tx).queue.push_back(Value::makeInt(32, 9));
    idle = versions();
    ch.pump(due + 1);
    EXPECT_EQ(ch.stats().stallEvents, 1u);
    EXPECT_EQ(versions(), idle);
}

TEST(Replay, ChannelDeliveryWakesTheConsumer)
{
    EchoRig rig(2);
    ChannelTransport ch(rig.toHw, *rig.sw, *rig.hw, rig.link,
                        BusParams{});
    Interp hw(rig.hwProg(), *rig.hw);
    const int compute = rig.hwProg().ruleByName("compute");

    EXPECT_FALSE(hw.fireRule(compute));
    rig.sw->at(rig.toHw.txPrim).queue.push_back(Value::makeInt(32, 3));
    ch.pump(0);
    const std::uint64_t due = ch.nextEventAt();
    EXPECT_FALSE(ch.deliver(due - 1));
    EXPECT_FALSE(hw.fireRule(compute));
    EXPECT_EQ(hw.replayedAttempts(), 1u);
    ASSERT_TRUE(ch.deliver(due));
    EXPECT_TRUE(hw.fireRule(compute));
}

TEST(Replay, ChannelPickupWakesTheProducer)
{
    EchoRig rig(1);
    ChannelTransport ch(rig.toHw, *rig.sw, *rig.hw, rig.link,
                        BusParams{});
    Interp sw(rig.swProg(), *rig.sw);
    const int feed = rig.swProg().ruleByName("feed");
    const int push = rig.swProg().rootMethod("push");

    for (int v : {1, 2})
        ASSERT_TRUE(sw.callActionMethod(push, {Value::makeInt(32, v)}));
    EXPECT_TRUE(sw.fireRule(feed));
    // toHw (capacity 1) is full until the transport picks it up.
    EXPECT_FALSE(sw.fireRule(feed));
    EXPECT_FALSE(sw.fireRule(feed));
    EXPECT_EQ(sw.replayedAttempts(), 1u);
    ch.pump(0);
    ASSERT_EQ(ch.stats().messages, 1u);
    EXPECT_TRUE(sw.fireRule(feed));
}

TEST(Replay, CompiledExecutorWritingItsMirrorWakesRules)
{
    if (!CompiledHwPartition::hostCompilerAvailable())
        GTEST_SKIP() << "no host C++ compiler on this machine";
    EchoRig rig(2);
    const ElabProgram &hw = rig.hwProg();
    CompiledHwPartition chw(hw);
    Interp probe(hw, *rig.hw);
    const int watch = hw.ruleByName("watch");

    rig.hw->at(rig.toHw.rxPrim).queue.push_back(Value::makeInt(32, 4));
    EXPECT_FALSE(probe.fireRule(watch));
    // Feeding the instance leaves the mirror as it was.
    chw.exchangeIn(*rig.hw);
    EXPECT_FALSE(probe.fireRule(watch));
    EXPECT_EQ(probe.replayedAttempts(), 1u);
    // "compute" consumes the message; exchangeOut pops it from the
    // mirror.
    ASSERT_GE(chw.step(1).fired, 1u);
    ASSERT_TRUE(chw.exchangeOut(*rig.hw));
    EXPECT_TRUE(probe.fireRule(watch));
}

} // namespace
} // namespace bcl
