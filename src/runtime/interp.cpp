#include "runtime/interp.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "common/logging.hpp"
#include "core/rwsets.hpp"
#include "fixpt/fixpt.hpp"
#include "runtime/compile.hpp"
#include "runtime/primitives.hpp"

namespace bcl {

namespace {

/**
 * Activation record for one rule/method execution: a flat vector of
 * values indexed by the slot numbers the compiler assigned. Let pushes
 * always land on the slot recorded at compile time because every
 * evaluation path to a node runs through the same static chain of
 * binders.
 */
class Env
{
  public:
    size_t mark() const { return slots.size(); }

    void
    push(Value v)
    {
        slots.push_back(std::move(v));
    }

    void
    popTo(size_t m)
    {
        slots.resize(m);
    }

    const Value &
    at(size_t slot) const
    {
        return slots[slot];
    }

  private:
    std::vector<Value> slots;
};

} // namespace

/** One rule/method execution; holds the cost hooks. */
class InterpExec
{
  public:
    InterpExec(Interp &in, CompiledProgram &cp)
        : I(in), prog(in.prog), P(cp)
    {
    }

    void
    charge(std::uint64_t units)
    {
        I.stats_.work += units;
        localWork += units;
    }

    Value
    evalExpr(std::int32_t idx, Env &env, TxnFrame &frame)
    {
        charge(I.costs_.perNode);
        const CExpr &e = P.exprs[static_cast<size_t>(idx)];
        switch (e.kind) {
          case ExprKind::Const:
            return e.constVal;
          case ExprKind::Var:
            return env.at(static_cast<size_t>(e.slot));
          case ExprKind::Prim:
            return evalPrimOp(e, env, frame);
          case ExprKind::Cond: {
            Value p = evalExpr(kid(e, 0), env, frame);
            if (p.asBool())
                return evalExpr(kid(e, 1), env, frame);
            return evalExpr(kid(e, 2), env, frame);
          }
          case ExprKind::When: {
            // Guard evaluated first: an unready guard poisons the
            // whole expression (axioms A.6-A.8 lift it outward).
            Value g = evalExpr(kid(e, 1), env, frame);
            if (!g.asBool())
                throw GuardFail{};
            return evalExpr(kid(e, 0), env, frame);
          }
          case ExprKind::Let: {
            Value bound = evalExpr(kid(e, 0), env, frame);
            size_t m = env.mark();
            env.push(std::move(bound));
            Value out = evalExpr(kid(e, 1), env, frame);
            env.popTo(m);
            return out;
          }
          case ExprKind::CallV:
            return evalCallV(e, env, frame);
        }
        panic("unreachable expression kind");
    }

    void
    evalAction(std::int32_t idx, Env &env, TxnFrame &frame)
    {
        charge(I.costs_.perNode);
        const CAct &a = P.acts[static_cast<size_t>(idx)];
        switch (a.kind) {
          case ActKind::NoOp:
            return;
          case ActKind::Par:
            evalPar(a, env, frame);
            return;
          case ActKind::Seq:
            for (std::uint32_t i = 0; i < a.nsubs; i++)
                evalAction(sub(a, i), env, frame);
            return;
          case ActKind::If: {
            Value p = evalExpr(ex(a, 0), env, frame);
            if (p.asBool())
                evalAction(sub(a, 0), env, frame);
            return;
          }
          case ActKind::When: {
            Value g = evalExpr(ex(a, 0), env, frame);
            if (!g.asBool())
                throw GuardFail{};
            evalAction(sub(a, 0), env, frame);
            return;
          }
          case ActKind::Let: {
            Value bound = evalExpr(ex(a, 0), env, frame);
            size_t m = env.mark();
            env.push(std::move(bound));
            evalAction(sub(a, 0), env, frame);
            env.popTo(m);
            return;
          }
          case ActKind::Loop: {
            // Dynamic loops are bounded only by their condition; a
            // runaway loop is a user bug, reported once the budget
            // (CostModel::loopIterBudget body executions) is spent
            // rather than hanging.
            std::uint64_t iters = 0;
            while (true) {
                Value c = evalExpr(ex(a, 0), env, frame);
                if (!c.asBool())
                    break;
                if (iters >= I.costs_.loopIterBudget)
                    fatal("loop exceeded iteration budget (runaway "
                          "loop in rule?)");
                evalAction(sub(a, 0), env, frame);
                ++iters;
            }
            return;
          }
          case ActKind::LocalGuard: {
            TxnFrame child(frame);
            I.stats_.shadowCopies++;
            // A failure may unwind out of Let bodies whose popTo never
            // ran; restore the activation depth so the slots assigned
            // to later binders stay aligned.
            size_t m = env.mark();
            try {
                evalAction(sub(a, 0), env, child);
            } catch (const GuardFail &) {
                // Body becomes noAction; its writes are discarded.
                env.popTo(m);
                charge(I.costs_.perRollback);
                return;
            }
            child.commit();
            return;
          }
          case ActKind::CallA:
            evalCallA(a, env, frame);
            return;
        }
        panic("unreachable action kind");
    }

    /**
     * Root entry for Interp::callActionMethod: equivalent to calling
     * through a transient CallA node whose arguments are constants.
     * Charges what the seed interpreter charged for that transient
     * tree: one node for the call plus one per constant argument.
     */
    void
    callActionRoot(int meth_id, const std::vector<Value> &args,
                   TxnFrame &frame)
    {
        const ElabMethod &m = prog.methods[static_cast<size_t>(
            meth_id)];
        charge(I.costs_.perNode *
               (1 + static_cast<std::uint64_t>(args.size())));
        if (args.size() != m.params.size()) {
            panic("method " + m.name + " called with " +
                  std::to_string(args.size()) + " args, expects " +
                  std::to_string(m.params.size()));
        }
        std::int32_t root = P.methodRoot(prog, meth_id);
        Env callee;
        for (const Value &v : args)
            callee.push(v);
        evalAction(root, callee, frame);
    }

    std::uint64_t localWork = 0;

  private:
    Interp &I;
    const ElabProgram &prog;
    CompiledProgram &P;

    std::int32_t
    kid(const CExpr &e, std::uint32_t i) const
    {
        return P.kidPool[e.kids + i];
    }

    std::int32_t
    ex(const CAct &a, std::uint32_t i) const
    {
        return P.kidPool[a.exprs + i];
    }

    std::int32_t
    sub(const CAct &a, std::uint32_t i) const
    {
        return P.kidPool[a.subs + i];
    }

    void
    evalPar(const CAct &a, Env &env, TxnFrame &frame)
    {
        // Every branch observes the same pre-state; writes are
        // isolated into sibling frames and merged afterwards.
        std::vector<std::unique_ptr<TxnFrame>> frames;
        frames.reserve(a.nsubs);
        for (std::uint32_t i = 0; i < a.nsubs; i++)
            frames.push_back(std::make_unique<TxnFrame>(frame));
        I.stats_.shadowCopies += a.nsubs;
        for (std::uint32_t i = 0; i < a.nsubs; i++)
            evalAction(sub(a, i), env, *frames[i]);
        std::vector<TxnFrame *> ptrs;
        ptrs.reserve(frames.size());
        for (auto &f : frames)
            ptrs.push_back(f.get());
        TxnFrame::mergeSiblings(ptrs, prog.prims);
    }

    std::vector<Value>
    evalArgs(const CAct &a, Env &env, TxnFrame &frame)
    {
        std::vector<Value> vals;
        vals.reserve(a.nexprs);
        for (std::uint32_t i = 0; i < a.nexprs; i++)
            vals.push_back(evalExpr(ex(a, i), env, frame));
        return vals;
    }

    Value
    evalCallV(const CExpr &e, Env &env, TxnFrame &frame)
    {
        std::vector<Value> args;
        args.reserve(e.nkids);
        for (std::uint32_t i = 0; i < e.nkids; i++)
            args.push_back(evalExpr(kid(e, i), env, frame));
        if (e.isPrim) {
            const ElabPrim &prim = prog.prims[static_cast<size_t>(
                e.inst)];
            charge(I.costs_.perPrimCall);
            PrimRead r = readPrim(prim, frame.get(e.inst), e.pmeth,
                                  args);
            if (!r.ok)
                throw GuardFail{};
            // Frame-sized values cost word moves to copy out.
            chargeValueMove(r.val);
            return r.val;
        }
        const ElabMethod &m = prog.methods[static_cast<size_t>(
            e.methIdx)];
        std::int32_t root = P.methods[static_cast<size_t>(e.methIdx)]
                                .root;
        Env callee;
        bindParams(m, args, callee);
        return evalExpr(root, callee, frame);
    }

    void
    evalCallA(const CAct &a, Env &env, TxnFrame &frame)
    {
        std::vector<Value> args = evalArgs(a, env, frame);
        if (a.isPrim) {
            const ElabPrim &prim = prog.prims[static_cast<size_t>(
                a.inst)];
            charge(I.costs_.perPrimCall);
            // The change-log shadow of this primitive; modeled as one
            // snapshot (the generated code's commit granularity) even
            // though the copy-on-write store shares the payload.
            PrimState &shadow = frame.getForWrite(a.inst);
            I.stats_.shadowCopies++;
            if (!writePrim(prim, shadow, a.pmeth, args))
                throw GuardFail{};
            if (!args.empty())
                chargeValueMove(args[0]);
            // Crossing the partition boundary costs driver work on
            // the software side (marshaling descriptors, cache
            // maintenance); hardware partitions ignore work counts.
            if (a.chargeSync)
                charge(I.costs_.perSyncMessage);
            return;
        }
        const ElabMethod &m = prog.methods[static_cast<size_t>(
            a.methIdx)];
        std::int32_t root = P.methods[static_cast<size_t>(a.methIdx)]
                                .root;
        Env callee;
        bindParams(m, args, callee);
        evalAction(root, callee, frame);
    }

    void
    bindParams(const ElabMethod &m, std::vector<Value> &args, Env &env)
    {
        if (args.size() != m.params.size()) {
            panic("method " + m.name + " called with " +
                  std::to_string(args.size()) + " args, expects " +
                  std::to_string(m.params.size()));
        }
        for (auto &arg : args)
            env.push(std::move(arg));
    }

    void
    chargeValueMove(const Value &v)
    {
        int words = (v.flatWidth() + 31) / 32;
        if (words > 1)
            charge(I.costs_.perWordMove *
                   static_cast<std::uint64_t>(words));
    }

    Value
    evalPrimOp(const CExpr &e, Env &env, TxnFrame &frame)
    {
        auto ev = [&](std::uint32_t i) {
            return evalExpr(kid(e, i), env, frame);
        };

        switch (e.op) {
          case PrimOp::Add:
          case PrimOp::Sub:
          case PrimOp::Mul:
          case PrimOp::MulFx:
          case PrimOp::DivFx:
          case PrimOp::Shl:
          case PrimOp::LShr:
          case PrimOp::AShr:
          case PrimOp::And:
          case PrimOp::Or:
          case PrimOp::Xor: {
            Value a = ev(0), b = ev(1);
            return evalBinary(e, a, b);
          }
          case PrimOp::SqrtFx: {
            Value a = ev(0);
            charge(I.costs_.perMul * 5);  // iterative root unit
            std::int64_t x = a.asInt();
            if (x < 0)
                x = 0;
            std::uint64_t wide = static_cast<std::uint64_t>(x)
                                 << e.imm;
            return Value::makeInt(a.width(),
                                  static_cast<std::int64_t>(
                                      isqrt64(wide)));
          }
          case PrimOp::Neg: {
            Value a = ev(0);
            charge(I.costs_.perArith);
            return Value::makeInt(a.width(), -a.asInt());
          }
          case PrimOp::Not: {
            Value a = ev(0);
            charge(I.costs_.perArith);
            if (a.isBool())
                return Value::makeBool(!a.asBool());
            return Value::makeBits(a.width(), ~a.asUInt());
          }
          case PrimOp::Eq:
          case PrimOp::Ne: {
            Value a = ev(0), b = ev(1);
            charge(I.costs_.perArith);
            bool eq = a == b;
            return Value::makeBool(e.op == PrimOp::Eq ? eq : !eq);
          }
          case PrimOp::Lt:
          case PrimOp::Le:
          case PrimOp::Gt:
          case PrimOp::Ge: {
            Value a = ev(0), b = ev(1);
            charge(I.costs_.perArith);
            std::int64_t x = a.asInt(), y = b.asInt();
            bool r = false;
            switch (e.op) {
              case PrimOp::Lt: r = x < y; break;
              case PrimOp::Le: r = x <= y; break;
              case PrimOp::Gt: r = x > y; break;
              case PrimOp::Ge: r = x >= y; break;
              default: break;
            }
            return Value::makeBool(r);
          }
          case PrimOp::Index: {
            Value vec = ev(0), idx = ev(1);
            charge(I.costs_.perArith);
            return vec.at(idx.asUInt());
          }
          case PrimOp::Update: {
            Value vec = ev(0), idx = ev(1), val = ev(2);
            charge(I.costs_.perArith * 2);
            return std::move(vec).withElem(idx.asUInt(),
                                           std::move(val));
          }
          case PrimOp::Field: {
            Value s = ev(0);
            charge(I.costs_.perArith);
            const Value *f = s.tryFieldById(e.fieldId);
            if (!f) {
                panic("struct has no field '" + *e.name +
                      "': " + s.str());
            }
            return *f;
          }
          case PrimOp::SetField: {
            Value s = ev(0), val = ev(1);
            charge(I.costs_.perArith);
            size_t i = s.shape()->indexOf(e.fieldId);
            if (i == StructShape::npos) {
                panic("withField: no field '" + *e.name + "' in " +
                      s.str());
            }
            return std::move(s).withFieldAt(i, std::move(val));
          }
          case PrimOp::MakeVec: {
            std::vector<Value> elems;
            elems.reserve(e.nkids);
            for (std::uint32_t i = 0; i < e.nkids; i++)
                elems.push_back(ev(i));
            charge(I.costs_.perWordMove * e.nkids);
            return Value::makeVec(std::move(elems));
          }
          case PrimOp::MakeStruct: {
            std::vector<Value> vals;
            vals.reserve(e.nkids);
            for (std::uint32_t i = 0; i < e.nkids; i++)
                vals.push_back(ev(i));
            charge(I.costs_.perArith * e.nkids);
            return Value::makeStructShaped(e.shape,
                                           std::move(vals));
          }
          case PrimOp::BitRev: {
            Value a = ev(0);
            charge(I.costs_.perArith * 2);
            std::uint64_t in = a.asUInt(), out = 0;
            for (int i = 0; i < e.imm; i++) {
                out <<= 1;
                out |= (in >> i) & 1;
            }
            return Value::makeBits(a.width(), out);
          }
        }
        panic("unreachable prim op");
    }

    Value
    evalBinary(const CExpr &e, const Value &a, const Value &b)
    {
        if (a.isBool() || b.isBool()) {
            // Logical forms on Bool operands.
            charge(I.costs_.perArith);
            bool x = a.asBool(), y = b.asBool();
            switch (e.op) {
              case PrimOp::And: return Value::makeBool(x && y);
              case PrimOp::Or: return Value::makeBool(x || y);
              case PrimOp::Xor: return Value::makeBool(x != y);
              default:
                panic("operator " + std::string(primOpName(e.op)) +
                      " on Bool operands");
            }
        }
        int w = a.width();
        std::int64_t x = a.asInt(), y = b.asInt();
        switch (e.op) {
          case PrimOp::Add:
            charge(I.costs_.perArith);
            return Value::makeInt(w, x + y);
          case PrimOp::Sub:
            charge(I.costs_.perArith);
            return Value::makeInt(w, x - y);
          case PrimOp::Mul:
            charge(I.costs_.perMul);
            return Value::makeInt(w, x * y);
          case PrimOp::MulFx: {
            charge(I.costs_.perMul + I.costs_.perArith);
            __int128 prod = static_cast<__int128>(x) *
                            static_cast<__int128>(y);
            return Value::makeInt(
                w, static_cast<std::int64_t>(prod >> e.imm));
          }
          case PrimOp::DivFx: {
            charge(I.costs_.perMul * 3);  // divider unit
            if (y == 0)
                return Value::makeInt(w, 0);
            __int128 num = static_cast<__int128>(x) << e.imm;
            return Value::makeInt(
                w, static_cast<std::int64_t>(num / y));
          }
          case PrimOp::Shl:
            charge(I.costs_.perArith);
            return Value::makeBits(
                w, b.asUInt() >= 64 ? 0 : a.asUInt() << b.asUInt());
          case PrimOp::LShr:
            charge(I.costs_.perArith);
            return Value::makeBits(
                w, b.asUInt() >= 64 ? 0 : a.asUInt() >> b.asUInt());
          case PrimOp::AShr:
            charge(I.costs_.perArith);
            return Value::makeInt(
                w, x >> (b.asUInt() >= 63 ? 63 : b.asUInt()));
          case PrimOp::And:
            charge(I.costs_.perArith);
            return Value::makeBits(w, a.asUInt() & b.asUInt());
          case PrimOp::Or:
            charge(I.costs_.perArith);
            return Value::makeBits(w, a.asUInt() | b.asUInt());
          case PrimOp::Xor:
            charge(I.costs_.perArith);
            return Value::makeBits(w, a.asUInt() ^ b.asUInt());
          default:
            panic("unreachable binary op");
        }
    }
};

Interp::Interp(const ElabProgram &program, Store &store)
    : prog(program), store_(store),
      compiled_(std::make_unique<CompiledProgram>())
{
}

Interp::~Interp() = default;

Interp::RuleMemo &
Interp::memoFor(int rule_id)
{
    if (memoGeneration_ != compiled_->generation ||
        memos_.size() != prog.rules.size()) {
        memos_.assign(prog.rules.size(), RuleMemo{});
        memoGeneration_ = compiled_->generation;
    }
    RuleMemo &memo = memos_[static_cast<size_t>(rule_id)];
    if (!memo.primsBuilt) {
        RWSets rw = ruleRW(prog, rule_id);
        std::set<int> ids = std::move(rw.reads);
        ids.insert(rw.writes.begin(), rw.writes.end());
        for (const auto &[id, meth] : rw.uses)
            ids.insert(id);
        memo.prims.assign(ids.begin(), ids.end());
        memo.primsBuilt = true;
    }
    return memo;
}

bool
Interp::fireRule(int rule_id)
{
    if (rule_id < 0 || static_cast<size_t>(rule_id) >= prog.rules.size())
        panic("fireRule: bad rule id " + std::to_string(rule_id));
    std::int32_t root = compiled_->ruleRoot(prog, rule_id);
    RuleMemo &memo = memoFor(rule_id);
    if (memo.failed &&
        std::none_of(memo.prims.begin(), memo.prims.end(), [&](int id) {
            return store_.version(id) > memo.stamp;
        })) {
        stats_ += memo.delta;
        replayed_++;
        return false;
    }
    memo.failed = false;
    const ExecStats before = stats_;
    stats_.rulesAttempted++;

    TxnFrame frame(store_);
    InterpExec exec(*this, *compiled_);
    Env env;
    try {
        exec.evalAction(root, env, frame);
    } catch (const GuardFail &) {
        stats_.guardFails++;
        stats_.wastedWork += exec.localWork;
        stats_.work += costs_.perRollback;
        memo.delta = stats_ - before;
        memo.stamp = store_.stamp();
        memo.failed = true;
        return false;
    }
    stats_.work += costs_.perCommitEntry * frame.writeCount();
    frame.commit();
    stats_.rulesFired++;
    stats_.commits++;
    return true;
}

bool
Interp::callActionMethod(int meth_id, const std::vector<Value> &args)
{
    const ElabMethod &m = prog.methods[meth_id];
    if (!m.isAction)
        panic("callActionMethod on value method " + m.name);

    TxnFrame frame(store_);
    InterpExec exec(*this, *compiled_);
    try {
        exec.callActionRoot(meth_id, args, frame);
    } catch (const GuardFail &) {
        stats_.guardFails++;
        stats_.wastedWork += exec.localWork;
        return false;
    }
    stats_.work += costs_.perCommitEntry * frame.writeCount();
    frame.commit();
    stats_.commits++;
    return true;
}

Value
Interp::callValueMethod(int meth_id, const std::vector<Value> &args)
{
    const ElabMethod &m = prog.methods[meth_id];
    if (m.isAction)
        panic("callValueMethod on action method " + m.name);
    if (args.size() != m.params.size())
        panic("method " + m.name + " arg count mismatch");
    std::int32_t root = compiled_->methodRoot(prog, meth_id);

    TxnFrame frame(store_);
    InterpExec exec(*this, *compiled_);
    Env env;
    for (const Value &v : args)
        env.push(v);
    return exec.evalExpr(root, env, frame);
}

} // namespace bcl
