#include "runtime/compile.hpp"

#include "common/logging.hpp"

namespace bcl {

namespace {

/** One compilation pass; appends nodes to the owning pools. */
class Compiler
{
  public:
    Compiler(const ElabProgram &program, CompiledProgram &pools)
        : prog(program), out(pools)
    {
    }

    std::int32_t
    compileRuleBody(const ActPtr &body)
    {
        scope.clear();
        return compileAct(*body);
    }

    std::int32_t
    compileMethod(int meth_id)
    {
        // Memoized per method; bodies are immutable shared trees, so
        // a stale entry (pointer changed) is recompiled in place.
        const ElabMethod &m = prog.methods[meth_id];
        std::shared_ptr<const void> src;
        if (m.isAction)
            src = m.body;
        else
            src = m.value;
        CompiledProgram::MethodEntry &entry = out.methods[meth_id];
        if (entry.root >= 0 && entry.src == src)
            return entry.root;
        // Mark before walking: method call graphs are acyclic
        // (elaborate rejects recursive instantiation), so this only
        // guards against repeated work, not cycles.
        std::vector<const std::string *> saved = std::move(scope);
        scope.clear();
        for (const Param &p : m.params)
            scope.push_back(&p.name);
        std::int32_t root =
            m.isAction ? compileAct(*m.body) : compileExpr(*m.value);
        scope = std::move(saved);
        entry.src = std::move(src);
        entry.root = root;
        return root;
    }

  private:
    const ElabProgram &prog;
    CompiledProgram &out;
    std::vector<const std::string *> scope;

    std::int32_t
    resolveSlot(const std::string &name) const
    {
        for (size_t i = scope.size(); i-- > 0;) {
            if (*scope[i] == name)
                return static_cast<std::int32_t>(i);
        }
        panic("unbound variable '" + name + "'");
    }

    std::uint32_t
    internKids(const std::vector<std::int32_t> &kids)
    {
        std::uint32_t off =
            static_cast<std::uint32_t>(out.kidPool.size());
        out.kidPool.insert(out.kidPool.end(), kids.begin(),
                           kids.end());
        return off;
    }

    /** Split MakeStruct's comma-joined field names exactly the way
     *  the seed interpreter's per-eval parser did. */
    StructShapePtr
    makeStructShape(const Expr &e)
    {
        std::vector<std::string> names;
        size_t start = 0;
        const std::string &joined = e.strArg;
        while (start <= joined.size() &&
               names.size() < e.args.size()) {
            size_t comma = joined.find(',', start);
            names.push_back(
                joined.substr(start, comma == std::string::npos
                                         ? std::string::npos
                                         : comma - start));
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
        if (names.size() != e.args.size())
            panic("MakeStruct: field-name/operand mismatch");
        return internStructShape(names);
    }

    std::int32_t
    compileExpr(const Expr &e)
    {
        CExpr node;
        node.kind = e.kind;
        std::vector<std::int32_t> kids;
        kids.reserve(e.args.size());

        switch (e.kind) {
          case ExprKind::Const:
            node.constVal = e.constVal;
            break;
          case ExprKind::Var:
            node.slot = resolveSlot(e.name);
            node.name = &e.name;
            break;
          case ExprKind::Prim:
            node.op = e.op;
            node.imm = e.imm;
            for (const auto &a : e.args)
                kids.push_back(compileExpr(*a));
            if (e.op == PrimOp::Field || e.op == PrimOp::SetField) {
                node.fieldId = internFieldName(e.strArg);
                node.name = &e.strArg;
            } else if (e.op == PrimOp::MakeStruct) {
                node.shape = makeStructShape(e);
            }
            break;
          case ExprKind::Cond:
          case ExprKind::When:
            for (const auto &a : e.args)
                kids.push_back(compileExpr(*a));
            break;
          case ExprKind::Let: {
            kids.push_back(compileExpr(*e.args[0]));
            node.slot = static_cast<std::int32_t>(scope.size());
            scope.push_back(&e.name);
            kids.push_back(compileExpr(*e.args[1]));
            scope.pop_back();
            break;
          }
          case ExprKind::CallV: {
            for (const auto &a : e.args)
                kids.push_back(compileExpr(*a));
            node.inst = e.inst;
            node.isPrim = e.isPrim;
            node.methIdx = e.methIdx;
            node.name = &e.meth;
            if (e.isPrim) {
                node.pmeth = resolvePrimMethod(prog.prims[e.inst],
                                               e.meth, false);
            } else {
                compileMethod(e.methIdx);
            }
            break;
          }
        }

        node.kids = internKids(kids);
        node.nkids = static_cast<std::uint32_t>(kids.size());
        out.exprs.push_back(std::move(node));
        return static_cast<std::int32_t>(out.exprs.size() - 1);
    }

    std::int32_t
    compileAct(const Action &a)
    {
        CAct node;
        node.kind = a.kind;
        std::vector<std::int32_t> subs;
        std::vector<std::int32_t> exprs;
        subs.reserve(a.subs.size());
        exprs.reserve(a.exprs.size());

        switch (a.kind) {
          case ActKind::NoOp:
            break;
          case ActKind::Par:
          case ActKind::Seq:
            for (const auto &s : a.subs)
                subs.push_back(compileAct(*s));
            break;
          case ActKind::If:
          case ActKind::When:
          case ActKind::Loop:
            exprs.push_back(compileExpr(*a.exprs[0]));
            subs.push_back(compileAct(*a.subs[0]));
            break;
          case ActKind::Let: {
            exprs.push_back(compileExpr(*a.exprs[0]));
            scope.push_back(&a.name);
            subs.push_back(compileAct(*a.subs[0]));
            scope.pop_back();
            break;
          }
          case ActKind::LocalGuard:
            subs.push_back(compileAct(*a.subs[0]));
            break;
          case ActKind::CallA: {
            for (const auto &e : a.exprs)
                exprs.push_back(compileExpr(*e));
            node.inst = a.inst;
            node.isPrim = a.isPrim;
            node.methIdx = a.methIdx;
            node.name = &a.meth;
            if (a.isPrim) {
                const ElabPrim &prim = prog.prims[a.inst];
                node.pmeth = resolvePrimMethod(prim, a.meth, true);
                node.chargeSync =
                    (prim.kind == "SyncTx" && a.meth == "enq") ||
                    (prim.kind == "SyncRx" && a.meth == "deq");
            } else {
                compileMethod(a.methIdx);
            }
            break;
          }
        }

        node.exprs = internKids(exprs);
        node.nexprs = static_cast<std::uint32_t>(exprs.size());
        node.subs = internKids(subs);
        node.nsubs = static_cast<std::uint32_t>(subs.size());
        out.acts.push_back(std::move(node));
        return static_cast<std::int32_t>(out.acts.size() - 1);
    }
};

} // namespace

// Runs on every root lookup (i.e. every rule attempt). The sweep is
// raw pointer compares only — two orders of magnitude cheaper than
// evaluating even a trivial rule body (<2% of fig13_vorbis fire
// cost) — and it is what makes the cache transitively sound: a stale
// callee must be caught even when its caller's own body is unchanged.
// If program sizes ever make this show up in profiles, replace it
// with an explicit invalidation hook on the body-replacing
// transforms, not with a weaker per-entry check.
void
CompiledProgram::revalidate(const ElabProgram &prog)
{
    rules.resize(prog.rules.size());
    methods.resize(prog.methods.size());
    bool stale = false;
    for (size_t i = 0; i < rules.size() && !stale; i++) {
        if (rules[i].root >= 0 &&
            rules[i].src.get() != prog.rules[i].body.get())
            stale = true;
    }
    for (size_t i = 0; i < methods.size() && !stale; i++) {
        if (methods[i].root < 0)
            continue;
        const ElabMethod &m = prog.methods[i];
        const void *cur =
            m.isAction ? static_cast<const void *>(m.body.get())
                       : static_cast<const void *>(m.value.get());
        if (methods[i].src.get() != cur)
            stale = true;
    }
    if (!stale)
        return;
    // Any replaced body invalidates the whole program: cached callers
    // hold pool indices into callee bodies, so per-entry patching
    // cannot be sound, and rebuilding from empty pools also keeps
    // repeated replacement from growing the pools without bound.
    exprs.clear();
    acts.clear();
    kidPool.clear();
    generation++;
    for (RuleEntry &r : rules)
        r = RuleEntry{};
    for (MethodEntry &m : methods)
        m = MethodEntry{};
}

std::int32_t
CompiledProgram::ruleRoot(const ElabProgram &prog, int rule_id)
{
    revalidate(prog);
    RuleEntry &entry = rules[static_cast<size_t>(rule_id)];
    const ActPtr &src = prog.rules[static_cast<size_t>(rule_id)].body;
    if (entry.root >= 0 && entry.src == src)
        return entry.root;
    Compiler c(prog, *this);
    entry.root = c.compileRuleBody(src);
    entry.src = src;
    return entry.root;
}

std::int32_t
CompiledProgram::methodRoot(const ElabProgram &prog, int meth_id)
{
    revalidate(prog);
    Compiler c(prog, *this);
    return c.compileMethod(meth_id);
}

} // namespace bcl
