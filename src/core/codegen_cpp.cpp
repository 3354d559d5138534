#include "core/codegen_cpp.hpp"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <set>

#include "common/logging.hpp"
#include "common/strutil.hpp"
#include "core/axioms.hpp"
#include "core/inlining.hpp"
#include "core/rwsets.hpp"
#include "core/schedule.hpp"
#include "core/sequentialize.hpp"
#include "core/typecheck.hpp"

namespace bcl {

namespace {

/** Sanitize a hierarchical path into a C++ identifier. */
std::string
ident(const std::string &path)
{
    std::string out;
    for (char c : path) {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_')
            out += c;
        else
            out += '_';
    }
    return out;
}

bool
isFifoKind(const std::string &k)
{
    return k == "Fifo" || k == "Sync" || k == "SyncTx" || k == "SyncRx";
}

/** Marshaled footprint of @p t in 32-bit words. */
int
wordsOf(const TypePtr &t)
{
    return (t->flatWidth() + 31) / 32;
}

/**
 * Walk every rule and method body of a program, maintaining the
 * let/parameter type environment, and call @p on_expr for each
 * expression node with the environment in scope at that node. Used
 * to pre-collect aggregate-construction types (their C++ struct
 * definitions must exist before rule emission) and to deduce device
 * payload types.
 */
class BodyScan
{
  public:
    using ExprHook =
        std::function<void(const ExprPtr &, const std::vector<Param> &)>;
    using ActHook =
        std::function<void(const ActPtr &, const std::vector<Param> &)>;

    BodyScan(const ElabProgram &prog, ExprHook on_expr, ActHook on_act)
        : prog(prog), onExpr(std::move(on_expr)), onAct(std::move(on_act))
    {
    }

    void
    run()
    {
        for (const auto &r : prog.rules) {
            env.clear();
            walkAct(r.body);
        }
        for (const auto &m : prog.methods) {
            env = m.params;
            if (m.body)
                walkAct(m.body);
            if (m.value)
                walkExpr(m.value);
        }
    }

  private:
    void
    walkExpr(const ExprPtr &e)
    {
        if (!e)
            return;
        if (onExpr)
            onExpr(e, env);
        if (e->kind == ExprKind::Let) {
            walkExpr(e->args[0]);
            env.push_back({e->name, typeOfExpr(prog, e->args[0], env)});
            walkExpr(e->args[1]);
            env.pop_back();
            return;
        }
        for (const auto &a : e->args)
            walkExpr(a);
    }

    void
    walkAct(const ActPtr &a)
    {
        if (!a)
            return;
        if (onAct)
            onAct(a, env);
        if (a->kind == ActKind::Let) {
            walkExpr(a->exprs[0]);
            env.push_back({a->name, typeOfExpr(prog, a->exprs[0], env)});
            walkAct(a->subs[0]);
            env.pop_back();
            return;
        }
        for (const auto &e : a->exprs)
            walkExpr(e);
        for (const auto &s : a->subs)
            walkAct(s);
    }

    const ElabProgram &prog;
    ExprHook onExpr;
    ActHook onAct;
    std::vector<Param> env;
};

class CppGen
{
  public:
    CppGen(const ElabProgram &prog, std::string class_name,
           CppGenMode mode)
        : prog(prog), className(std::move(class_name)), mode(mode),
          hwValid(hardwareValidationError(prog).empty())
    {
    }

    std::vector<CppUnit>
    run()
    {
        collectTypes();
        // Rule and method bodies are emitted out of line, each on its
        // own, so they can be bin-packed into units by size.
        std::vector<std::string> bodies;
        for (size_t i = 0; i < prog.rules.size(); i++)
            bodies.push_back(
                piece([&] { emitRule(static_cast<int>(i)); }));
        for (int mid : rootActionMethods())
            bodies.push_back(piece([&] { emitMethod(mid); }));
        // The extern "C" glue picks the marshalers it calls, so it is
        // emitted first and the marshalers go ahead of it.
        const std::string glue = piece([&] { emitAbi(); });
        const std::string abi = piece([&] { emitMarshalers(); }) + glue;
        const std::string header = piece([&] { emitHeader(); });

        size_t size = header.size() + abi.size();
        for (const std::string &b : bodies)
            size += b.size();
        if (size < kCppSplitBytes) {
            std::string one = header;
            for (const std::string &b : bodies)
                one += b;
            return {{"partition", one + abi}};
        }
        std::vector<CppUnit> units{{"abi", header + abi}};
        for (const std::vector<size_t> &bin : packBodies(bodies)) {
            std::string text = header;
            for (size_t i : bin)
                text += bodies[i];
            units.push_back({"rules_" + std::to_string(units.size() - 1),
                             std::move(text)});
        }
        return units;
    }

  private:
    /** Text emitted by @p emit into a fresh writer. */
    std::string
    piece(const std::function<void()> &emit)
    {
        w = IndentWriter();
        emit();
        return w.str();
    }

    /**
     * Longest-first bin packing of @p bodies into
     * min(kCppRuleUnits, bodies) bins: each body goes to the lightest
     * bin so far (lowest index on ties). Bins list body indices in
     * program order; none is empty.
     */
    static std::vector<std::vector<size_t>>
    packBodies(const std::vector<std::string> &bodies)
    {
        const size_t nbins = std::min(bodies.size(), kCppRuleUnits);
        std::vector<size_t> order(bodies.size());
        for (size_t i = 0; i < order.size(); i++)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return bodies[a].size() > bodies[b].size();
                         });
        std::vector<std::vector<size_t>> bins(nbins);
        std::vector<size_t> load(nbins, 0);
        for (size_t i : order) {
            size_t to = static_cast<size_t>(
                std::min_element(load.begin(), load.end()) -
                load.begin());
            bins[to].push_back(i);
            load[to] += bodies[i].size();
        }
        for (auto &bin : bins)
            std::sort(bin.begin(), bin.end());
        return bins;
    }

    /**
     * The shared header every unit opens with: includes, helpers,
     * structs and the class (state, member declarations, schedulers,
     * counters).
     */
    void
    emitHeader()
    {
        w.writeLine("// Generated by the BCL compiler (partition). "
                    "Do not edit.");
        w.writeLine(std::string("// Strategy: ") + strategyName());
        w.writeLine("#include <cstdint>");
        w.writeLine("#include \"runtime/gen_support.hpp\"");
        w.blank();
        emitHelpers();
        // Hidden: the structs and the class never cross the shared
        // object's boundary (the extern "C" glue does), so calls
        // between units bind directly instead of through the PLT, and
        // the optimizer may inline a member within its unit.
        w.writeLine("#pragma GCC visibility push(hidden)");
        emitTypes();
        w.blank();
        w.openBlock("class " + className + " {");
        w.writeLine("public:");
        w.indent();
        emitState();
        w.blank();
        for (const auto &r : prog.rules)
            w.writeLine("bool rule_" + ident(r.name) + "();");
        for (int mid : rootActionMethods())
            w.writeLine("bool method_" + std::to_string(mid) + "(" +
                        methodParams(prog.methods[mid]) + ");");
        w.blank();
        emitScheduler();
        emitHwScheduler();
        w.blank();
        w.writeLine("// Execution counters (exported via bcl_gen_stat).");
        w.writeLine("std::uint64_t fired_ = 0;");
        w.writeLine("std::uint64_t attempts_ = 0;");
        if (hwValid) {
            w.writeLine("// Clock-edge fires per rule (bcl_gen_hw_fires).");
            w.writeLine("std::array<std::uint64_t, " +
                        std::to_string(prog.rules.size()) +
                        "> hw_fires_{};");
        }
        w.outdent();
        w.closeBlock("};");
        w.writeLine("#pragma GCC visibility pop");
        w.blank();
    }

    const char *
    strategyName() const
    {
        switch (mode) {
          case CppGenMode::Naive: return "naive try/catch (Figure 9)";
          case CppGenMode::Inlined:
            return "inlined, branch-to-rollback (Figure 10)";
          case CppGenMode::Lifted:
            return "guard-lifted, in-situ where complete";
        }
        return "?";
    }

    /** Static type of @p e under the current emission environment. */
    TypePtr
    typeOf(const ExprPtr &e)
    {
        return typeOfExpr(prog, e, tenv);
    }

    // ----- types ------------------------------------------------------
    std::string
    cppType(const TypePtr &t)
    {
        if (t->isBool())
            return "bool";
        if (t->isBits())
            return t->width() <= 32 ? "std::int32_t" : "std::int64_t";
        if (t->isVec()) {
            return "std::array<" + cppType(t->elem()) + ", " +
                   std::to_string(t->vecSize()) + ">";
        }
        if (t->isStruct())
            return structName(t);
        return "void";
    }

    std::string
    structName(const TypePtr &t)
    {
        // Key on the C++ field list only: BCL records are structurally
        // typed (an anonymous MakeStruct result flows into any named
        // record of the same shape), so both must map to ONE emitted
        // C++ struct or assignments between them would not compile.
        // A nested record's field type is its own struct's name, not
        // Type::str(), which is "struct{...}" for every anonymous one.
        std::string key;
        for (const auto &[n, ft] : t->fields())
            key += n + ":" + cppType(ft) + ",";
        auto it = structNames.find(key);
        if (it != structNames.end())
            return it->second;
        std::string name = t->name().empty()
                               ? "Rec" + std::to_string(structNames.size())
                               : t->name();
        structNames[key] = name;
        structOrder.push_back({name, t});
        return name;
    }

    void
    collectTypesIn(const TypePtr &t)
    {
        if (!t)
            return;
        if (t->isVec()) {
            collectTypesIn(t->elem());
        } else if (t->isStruct()) {
            for (const auto &[n, ft] : t->fields())
                collectTypesIn(ft);
            structName(t);
        }
    }

    void
    collectTypes()
    {
        for (const auto &p : prog.prims) {
            collectTypesIn(p.type);
            if (p.kind == "AudioDev")
                collectTypesIn(devicePayloadType(prog, p.id));
        }
        for (const auto &m : prog.methods) {
            for (const auto &p : m.params)
                collectTypesIn(p.type);
            collectTypesIn(m.retType);
        }
        // Aggregates constructed inside rule/method bodies may have
        // shapes that never touch primitive state (built and consumed
        // in flight); their struct definitions must exist too.
        BodyScan scan(
            prog,
            [&](const ExprPtr &e, const std::vector<Param> &env) {
                if (e->kind == ExprKind::Prim &&
                    (e->op == PrimOp::MakeStruct ||
                     e->op == PrimOp::MakeVec)) {
                    collectTypesIn(typeOfExpr(prog, e, env));
                }
            },
            nullptr);
        scan.run();
    }

    void
    emitTypes()
    {
        for (const auto &[name, t] : structOrder) {
            w.openBlock("struct " + name + " {");
            for (const auto &[fname, ft] : t->fields())
                w.writeLine(cppType(ft) + " " + fname + ";");
            w.writeLine("bool operator==(const " + name +
                        " &) const = default;");
            w.closeBlock("};");
        }
    }

    void
    emitHelpers()
    {
        w.writeLine("namespace genops {");
        w.writeLine("static inline std::int32_t wrap32(std::int64_t v) "
                    "{ return (std::int32_t)(std::uint32_t)v; }");
        w.writeLine("static inline std::int32_t mulfx(std::int32_t a, "
                    "std::int32_t b, int s) { return "
                    "(std::int32_t)(((__int128)a * b) >> s); }");
        w.writeLine("static inline std::int32_t divfx(std::int32_t a, "
                    "std::int32_t b, int s) { return b == 0 ? 0 : "
                    "(std::int32_t)(((__int128)a << s) / b); }");
        w.writeLine("static inline std::uint64_t isqrt(std::uint64_t "
                    "v) { std::uint64_t r = 0, b = 1ull << 62; while "
                    "(b > v) b >>= 2; while (b) { if (v >= r + b) { v "
                    "-= r + b; r = (r >> 1) + b; } else r >>= 1; b >>= "
                    "2; } return r; }");
        w.writeLine("static inline std::int32_t sqrtfx(std::int32_t a, "
                    "int s) { return a < 0 ? 0 : (std::int32_t)isqrt("
                    "(std::uint64_t)a << s); }");
        w.writeLine("static inline std::int64_t bitrev(std::int64_t v, "
                    "int n) { std::int64_t r = 0; for (int i = 0; i < "
                    "n; i++) { r = (r << 1) | ((v >> i) & 1); } return "
                    "r; }");
        w.writeLine("} // namespace genops");
        w.blank();
    }

    // ----- state --------------------------------------------------------
    void
    emitState()
    {
        w.writeLine("// Primitive state (one member per elaborated "
                    "instance).");
        for (const auto &p : prog.prims) {
            std::string name = ident(p.path);
            if (p.kind == "Reg") {
                std::string init =
                    p.init.valid() ? typedConstText(p.type, p.init)
                                   : "";
                w.writeLine("bcl::gen::Reg<" + cppType(p.type) + "> " +
                            name + "{" + init + "};");
            } else if (isFifoKind(p.kind)) {
                w.writeLine("bcl::gen::Fifo<" + cppType(p.type) + "> " +
                            name + "{" + std::to_string(p.capacity) +
                            "};");
            } else if (p.kind == "Bram") {
                // Initialized Brams (table ROMs) carry their contents
                // inline: the shared object stays self-contained and
                // matches the interpreter's initPrimState().
                if (p.init.valid()) {
                    std::vector<std::string> elems;
                    for (const auto &e : p.init.elems())
                        elems.push_back(typedConstText(p.type, e));
                    w.writeLine("bcl::gen::Bram<" + cppType(p.type) +
                                "> " + name + "{" +
                                std::to_string(p.size) + ", {" +
                                join(elems, ", ") + "}};");
                } else {
                    w.writeLine("bcl::gen::Bram<" + cppType(p.type) +
                                "> " + name + "{" +
                                std::to_string(p.size) + "};");
                }
            } else if (p.kind == "AudioDev") {
                w.writeLine("bcl::gen::Device<" +
                            cppType(devicePayloadType(prog, p.id)) +
                            "> " + name + "{};");
            } else if (p.kind == "Bitmap") {
                w.writeLine("bcl::gen::Bram<std::uint32_t> " + name +
                            "{" + std::to_string(p.size) + "};");
            }
        }
    }

    /**
     * A constant with its C++ type spelled out. Bare brace literals
     * only work in direct-initialization contexts; typed constants
     * work everywhere an expression does (auto lets, ternaries,
     * member access).
     */
    std::string
    typedConstText(const TypePtr &t, const Value &v)
    {
        if (v.isVec()) {
            std::vector<std::string> parts;
            for (size_t i = 0; i < v.size(); i++)
                parts.push_back(typedConstText(t->elem(), v.at(i)));
            return cppType(t) + "{{" + join(parts, ", ") + "}}";
        }
        if (v.isStruct()) {
            std::vector<std::string> parts;
            const auto &fields = t->fields();
            for (size_t i = 0; i < v.size(); i++)
                parts.push_back(
                    typedConstText(fields[i].second, v.fieldAt(i)));
            return structName(t) + "{" + join(parts, ", ") + "}";
        }
        return constText(v);
    }

    // ----- expressions ---------------------------------------------------
    std::string
    fresh(const std::string &base)
    {
        return base + "_" + std::to_string(tmpCounter++);
    }

    /**
     * Emit guard handling per strategy. Naive throws (caught by the
     * rule's try/catch); the branch strategies return false from the
     * enclosing bool context (the rule body lambda / rule function),
     * the structured equivalent of Figure 10's goto-to-rollback.
     */
    void
    emitGuardCheck(const std::string &cond)
    {
        if (mode == CppGenMode::Naive) {
            w.writeLine("if (!(" + cond +
                        ")) throw bcl::gen::GuardFail{};");
        } else {
            w.writeLine("if (!(" + cond + ")) return false;");
        }
    }

    std::string
    primCallGuard(int inst, const std::string &meth)
    {
        const ElabPrim &p = prog.prims[inst];
        std::string name = ident(p.path);
        if (isFifoKind(p.kind)) {
            if (meth == "enq")
                return name + ".canEnq()";
            if (meth == "deq" || meth == "first")
                return name + ".canDeq()";
        }
        return "";
    }

    std::string
    emitExpr(const ExprPtr &e)
    {
        switch (e->kind) {
          case ExprKind::Const:
            // Aggregate constants need their type spelled out (see
            // typedConstText); scalars come out identical either way.
            if (e->constVal.isVec() || e->constVal.isStruct())
                return typedConstText(typeOf(e), e->constVal);
            return constText(e->constVal);
          case ExprKind::Var:
            return varName(e->name);
          case ExprKind::Prim:
            return emitPrimOp(e);
          case ExprKind::Cond: {
            std::string p = emitExpr(e->args[0]);
            std::string t = emitExpr(e->args[1]);
            std::string f = emitExpr(e->args[2]);
            return "(" + p + " ? " + t + " : " + f + ")";
          }
          case ExprKind::When: {
            std::string g = emitExpr(e->args[1]);
            emitGuardCheck(g);
            return emitExpr(e->args[0]);
          }
          case ExprKind::Let: {
            TypePtr bound = typeOf(e->args[0]);
            std::string init = emitExpr(e->args[0]);
            std::string v = bindName(e->name);
            w.writeLine("auto " + v + " = " + init + ";");
            tenv.push_back({e->name, bound});
            std::string out = emitExpr(e->args[1]);
            tenv.pop_back();
            popName();
            return out;
          }
          case ExprKind::CallV: {
            std::vector<std::string> args;
            for (const auto &a : e->args)
                args.push_back(emitExpr(a));
            if (!e->isPrim) {
                panic("codegen: user value-method call survived "
                      "inlining: " + e->meth);
            }
            const ElabPrim &p = prog.prims[e->inst];
            std::string name = ident(p.path);
            if (mode != CppGenMode::Naive) {
                std::string g = primCallGuard(e->inst, e->meth);
                if (!g.empty())
                    emitGuardCheck(g);
            }
            if (e->meth == "_read")
                return name + ".read()";
            if (e->meth == "first")
                return name + ".first()";
            if (e->meth == "notEmpty")
                return name + ".notEmpty()";
            if (e->meth == "notFull")
                return name + ".notFull()";
            if (e->meth == "read" || e->meth == "get")
                return name + ".read((std::uint32_t)" + args[0] + ")";
            panic("codegen: unknown prim value method " + e->meth);
          }
        }
        panic("codegen: unreachable expr");
    }

    std::string
    constText(const Value &v)
    {
        switch (v.kind()) {
          case ValueKind::Bool:
            return v.asBool() ? "true" : "false";
          case ValueKind::Bits:
            return v.width() <= 32
                       ? "std::int32_t(" + std::to_string(v.asInt()) +
                             ")"
                       : "std::int64_t(" + std::to_string(v.asInt()) +
                             "LL)";
          case ValueKind::Vec: {
            std::vector<std::string> parts;
            for (const auto &e : v.elems())
                parts.push_back(constText(e));
            return "{{" + join(parts, ", ") + "}}";
          }
          case ValueKind::Struct: {
            std::vector<std::string> parts;
            for (size_t i = 0; i < v.size(); i++)
                parts.push_back(constText(v.fieldAt(i)));
            return "{" + join(parts, ", ") + "}";
          }
          case ValueKind::Invalid:
            panic("codegen: invalid constant");
        }
        return "";
    }

    std::string
    emitPrimOp(const ExprPtr &e)
    {
        auto a = [&](size_t i) { return emitExpr(e->args[i]); };
        switch (e->op) {
          case PrimOp::Add:
            return "genops::wrap32((std::int64_t)" + a(0) + " + " +
                   a(1) + ")";
          case PrimOp::Sub:
            return "genops::wrap32((std::int64_t)" + a(0) + " - " +
                   a(1) + ")";
          case PrimOp::Mul:
            return "genops::wrap32((std::int64_t)" + a(0) + " * " +
                   a(1) + ")";
          case PrimOp::Neg:
            return "genops::wrap32(-(std::int64_t)" + a(0) + ")";
          case PrimOp::MulFx:
            return "genops::mulfx(" + a(0) + ", " + a(1) + ", " +
                   std::to_string(e->imm) + ")";
          case PrimOp::DivFx:
            return "genops::divfx(" + a(0) + ", " + a(1) + ", " +
                   std::to_string(e->imm) + ")";
          case PrimOp::SqrtFx:
            return "genops::sqrtfx(" + a(0) + ", " +
                   std::to_string(e->imm) + ")";
          case PrimOp::Shl:
            return "genops::wrap32((std::int64_t)((std::uint32_t)" +
                   a(0) + " << " + a(1) + "))";
          case PrimOp::LShr:
            return "(std::int32_t)((std::uint32_t)" + a(0) + " >> " +
                   a(1) + ")";
          case PrimOp::AShr:
            return "(" + a(0) + " >> " + a(1) + ")";
          case PrimOp::And:
            return "(" + a(0) + " & " + a(1) + ")";
          case PrimOp::Or:
            return "(" + a(0) + " | " + a(1) + ")";
          case PrimOp::Xor:
            return "(" + a(0) + " ^ " + a(1) + ")";
          case PrimOp::Not:
            return "(!" + a(0) + ")";
          case PrimOp::Eq:
            return "(" + a(0) + " == " + a(1) + ")";
          case PrimOp::Ne:
            return "(" + a(0) + " != " + a(1) + ")";
          case PrimOp::Lt:
            return "(" + a(0) + " < " + a(1) + ")";
          case PrimOp::Le:
            return "(" + a(0) + " <= " + a(1) + ")";
          case PrimOp::Gt:
            return "(" + a(0) + " > " + a(1) + ")";
          case PrimOp::Ge:
            return "(" + a(0) + " >= " + a(1) + ")";
          case PrimOp::Index:
            return a(0) + "[(std::size_t)" + a(1) + "]";
          case PrimOp::Update: {
            std::string tmp = fresh("upd");
            std::string vec = a(0);
            std::string idx = a(1);
            std::string val = a(2);
            w.writeLine("auto " + tmp + " = " + vec + ";");
            w.writeLine(tmp + "[(std::size_t)" + idx + "] = " + val +
                        ";");
            return tmp;
          }
          case PrimOp::Field:
            return a(0) + "." + e->strArg;
          case PrimOp::SetField: {
            std::string tmp = fresh("setf");
            w.writeLine("auto " + tmp + " = " + a(0) + ";");
            w.writeLine(tmp + "." + e->strArg + " = " + a(1) + ";");
            return tmp;
          }
          case PrimOp::MakeVec: {
            // Typed construction: a bare brace literal has no type of
            // its own, so it cannot bind to `auto` lets, take field
            // access or sit in a ternary — all of which elaborated
            // rule bodies do (flushed out by the first compiled-
            // execution runs of the Vorbis partition).
            std::vector<std::string> parts;
            for (const auto &arg : e->args)
                parts.push_back(emitExpr(arg));
            return cppType(typeOf(e)) + "{{" + join(parts, ", ") +
                   "}}";
          }
          case PrimOp::MakeStruct: {
            std::vector<std::string> parts;
            for (const auto &arg : e->args)
                parts.push_back(emitExpr(arg));
            return structName(typeOf(e)) + "{" + join(parts, ", ") +
                   "}";
          }
          case PrimOp::BitRev:
            return "genops::wrap32(genops::bitrev(" + a(0) + ", " +
                   std::to_string(e->imm) + "))";
        }
        panic("codegen: unreachable op");
    }

    // ----- actions --------------------------------------------------------
    void
    emitAction(const ActPtr &a)
    {
        switch (a->kind) {
          case ActKind::NoOp:
            w.writeLine("/* noAction */;");
            return;
          case ActKind::Par:
            // Residual Par after sequentialization: conflicting
            // writes would be a dynamic error anyway; execute in
            // order (documented deviation for generated code).
            w.writeLine("// parallel composition (sequentialized)");
            for (const auto &s : a->subs)
                emitAction(s);
            return;
          case ActKind::Seq:
            for (const auto &s : a->subs)
                emitAction(s);
            return;
          case ActKind::If: {
            std::string p = emitExpr(a->exprs[0]);
            w.openBlock("if (" + p + ") {");
            emitAction(a->subs[0]);
            w.closeBlock("}");
            return;
          }
          case ActKind::When: {
            std::string g = emitExpr(a->exprs[0]);
            emitGuardCheck(g);
            emitAction(a->subs[0]);
            return;
          }
          case ActKind::Let: {
            TypePtr bound = typeOf(a->exprs[0]);
            std::string init = emitExpr(a->exprs[0]);
            std::string v = bindName(a->name);
            w.writeLine("auto " + v + " = " + init + ";");
            tenv.push_back({a->name, bound});
            emitAction(a->subs[0]);
            tenv.pop_back();
            popName();
            return;
          }
          case ActKind::Loop: {
            w.openBlock("while (true) {");
            std::string c = emitExpr(a->exprs[0]);
            w.writeLine("if (!(" + c + ")) break;");
            emitAction(a->subs[0]);
            w.closeBlock("}");
            return;
          }
          case ActKind::LocalGuard: {
            // Partial shadowing: snapshot only what the body writes.
            RWSets rw = actionRW(prog, a->subs[0]);
            w.openBlock("{");
            std::vector<std::pair<std::string, int>> shadows;
            for (int prim : rw.writes) {
                std::string s = fresh("lg");
                w.writeLine("auto " + s + " = " +
                            ident(prog.prims[prim].path) +
                            ".shadow();");
                shadows.emplace_back(s, prim);
            }
            if (mode == CppGenMode::Naive) {
                w.openBlock("try {");
                emitAction(a->subs[0]);
                w.closeBlock("} catch (const bcl::gen::GuardFail &) {");
                w.indent();
                for (const auto &[s, prim] : shadows) {
                    w.writeLine(ident(prog.prims[prim].path) +
                                ".rollback(" + s + ");");
                }
                w.outdent();
                w.writeLine("}");
            } else {
                // Branch strategy: the body runs in its own bool
                // context so its guard failures are absorbed here
                // instead of failing the whole rule.
                std::string ok = fresh("lgok");
                w.openBlock("bool " + ok + " = [&]() -> bool {");
                emitAction(a->subs[0]);
                w.writeLine("return true;");
                w.closeBlock("}();");
                w.openBlock("if (!" + ok + ") {");
                for (const auto &[s, prim] : shadows) {
                    w.writeLine(ident(prog.prims[prim].path) +
                                ".rollback(" + s + ");");
                }
                w.closeBlock("}");
            }
            w.closeBlock("}");
            return;
          }
          case ActKind::CallA: {
            std::vector<std::string> args;
            for (const auto &e : a->exprs)
                args.push_back(emitExpr(e));
            if (!a->isPrim) {
                panic("codegen: user action-method call survived "
                      "inlining: " + a->meth);
            }
            const ElabPrim &p = prog.prims[a->inst];
            std::string name = ident(p.path);
            if (mode != CppGenMode::Naive) {
                std::string g = primCallGuard(a->inst, a->meth);
                if (!g.empty())
                    emitGuardCheck(g);
            }
            if (a->meth == "_write")
                w.writeLine(name + ".write(" + args[0] + ");");
            else if (a->meth == "enq")
                w.writeLine(name + ".enq(" + args[0] + ");");
            else if (a->meth == "deq")
                w.writeLine(name + ".deq();");
            else if (a->meth == "clear")
                w.writeLine(name + ".clear();");
            else if (a->meth == "write" || a->meth == "store")
                w.writeLine(name + ".write((std::uint32_t)" + args[0] +
                            ", " + args[1] + ");");
            else if (a->meth == "output")
                w.writeLine(name + ".output(" + args[0] + ");");
            else
                panic("codegen: unknown prim action method " + a->meth);
            return;
          }
        }
        panic("codegen: unreachable action");
    }

    // ----- rules ---------------------------------------------------------
    void
    emitRule(int rule_id)
    {
        const ElabRule &orig = prog.rules[rule_id];
        // Every strategy inlines user methods first (the strategies
        // differ in guard handling, Figures 9/10).
        ActPtr body = inlineActionMethods(prog, orig.body);
        bool in_situ = false;
        ExprPtr lifted_guard;

        // Lift before sequentializing: guards hoist freely out of
        // parallel composition (A.1/A.2) but not through the ';' the
        // sequentializer introduces (A.3).
        if (mode == CppGenMode::Lifted) {
            LiftedAction lifted = liftActionGuards(prog, body);
            if (lifted.complete) {
                in_situ = true;
                body = lifted.body;
                lifted_guard = lifted.guard;
            }
        }
        body = sequentializeAction(prog, body);

        w.writeLine("// rule " + orig.name +
                    (in_situ ? " (guard fully lifted: no shadows)"
                             : ""));
        w.openBlock("bool " + className + "::rule_" + ident(orig.name) +
                    "() {");
        tenv.clear();
        resetNames({});

        if (in_situ) {
            // A complete lift leaves no guard inside: the lifted guard
            // holds only reads and pure ops, and the body no checks.
            if (!isTrueConst(lifted_guard)) {
                std::string g = emitExpr(lifted_guard);
                w.writeLine("if (!(" + g + ")) return false;");
            }
            emitAction(body);
            w.writeLine("return true;");
            w.closeBlock("}");
            w.blank();
            return;
        }

        // Partial shadowing of the write set (section 6.3).
        RWSets rw = ruleRW(prog, rule_id);
        emitTransaction(body, rw.writes);
        w.closeBlock("}");
        w.blank();
    }

    /**
     * Emit a transactional body: shadow the write set, run the body,
     * roll back on guard failure. Shared by rules and root-interface
     * action methods (which the C ABI invokes with the same
     * all-or-nothing contract as Interp::callActionMethod).
     */
    void
    emitTransaction(const ActPtr &body, const std::set<int> &writes)
    {
        std::vector<std::pair<std::string, int>> shadows;
        for (int prim : writes) {
            std::string s = "shadow_" + ident(prog.prims[prim].path);
            w.writeLine("auto " + s + " = " +
                        ident(prog.prims[prim].path) + ".shadow();");
            shadows.emplace_back(s, prim);
        }
        if (mode == CppGenMode::Naive) {
            w.openBlock("try {");
            emitAction(body);
            w.writeLine("return true;");
            w.closeBlock("} catch (const bcl::gen::GuardFail &) {");
            w.indent();
            for (const auto &[s, prim] : shadows) {
                w.writeLine(ident(prog.prims[prim].path) +
                            ".rollback(" + s + ");");
            }
            w.writeLine("return false;");
            w.outdent();
            w.writeLine("}");
        } else {
            w.openBlock("bool committed = [&]() -> bool {");
            emitAction(body);
            w.writeLine("return true;");
            w.closeBlock("}();");
            w.writeLine("if (committed) return true;");
            for (const auto &[s, prim] : shadows) {
                w.writeLine(ident(prog.prims[prim].path) +
                            ".rollback(" + s + ");");
            }
            w.writeLine("return false;");
        }
    }

    // ----- root-interface methods -----------------------------------------
    /** Ids of root-interface action methods (the C ABI surface). */
    std::vector<int>
    rootActionMethods() const
    {
        std::vector<int> out;
        for (int m : prog.mods[prog.rootMod].methodIds) {
            if (prog.methods[m].isAction)
                out.push_back(m);
        }
        return out;
    }

    /** Parameter list of root-interface method @p m. */
    std::string
    methodParams(const ElabMethod &m)
    {
        std::vector<std::string> params;
        for (const auto &p : m.params)
            params.push_back("const " + cppType(p.type) + " &" +
                             ident(p.name));
        return join(params, ", ");
    }

    /**
     * Emit root-interface action method @p mid as a transactional
     * member function (the "software up the stack" entry points a
     * host driver calls through the C ABI). Methods always keep the
     * shadow/rollback discipline — they are called per input frame,
     * far off the rule hot path, so lifting buys nothing.
     */
    void
    emitMethod(int mid)
    {
        const ElabMethod &m = prog.methods[mid];
        ActPtr body = inlineActionMethods(prog, m.body);
        body = sequentializeAction(prog, body);

        w.writeLine("// method " + m.name + " (root interface)");
        w.openBlock("bool " + className + "::method_" +
                    std::to_string(mid) + "(" + methodParams(m) +
                    ") {");
        tenv = m.params;
        resetNames(m.params);
        RWSets rw = actionRW(prog, body);
        emitTransaction(body, rw.writes);
        tenv.clear();
        w.closeBlock("}");
        w.blank();
    }

    void
    emitScheduler()
    {
        SwSchedule sched = buildSwSchedule(prog);
        w.writeLine("// Static dataflow schedule (section 6.3).");
        w.openBlock("std::uint64_t run_to_quiescence() {");
        w.writeLine("std::uint64_t fired = 0;");
        w.writeLine("bool progress = true;");
        w.openBlock("while (progress) {");
        w.writeLine("progress = false;");
        for (int r : sched.order) {
            w.writeLine("attempts_++;");
            w.writeLine("if (rule_" + ident(prog.rules[r].name) +
                        "()) { progress = true; fired++; }");
        }
        w.closeBlock("}");
        w.writeLine("fired_ += fired;");
        w.writeLine("return fired;");
        w.closeBlock("}");
    }

    /**
     * The clock-edge scheduler (hardware backend). One call = one
     * clock cycle of the BSV execution model: rules are attempted in
     * program order (static priority) and a rule joins the cycle's
     * WILL_FIRE set when no already-fired conflicting rule blocks it.
     * The conflict test against earlier-priority rules is baked at
     * generation time from the static ConflictMatrix into one
     * constant bitmask per rule — the per-cycle matrix walk of
     * hwsim/clocksim.hpp disappears, and CAN_FIRE evaluation is the
     * rule's own transactional function (guard failure rolls back),
     * so in-cycle sequential execution remains a valid witness order
     * exactly as in the interpreted simulator.
     */
    void
    emitHwScheduler()
    {
        if (!hwValid)
            return;
        const int n = static_cast<int>(prog.rules.size());
        ConflictMatrix cm(prog);
        const int nwords = (n + 63) / 64;
        w.blank();
        w.writeLine("// Clock edge: CAN_FIRE = transactional rule "
                    "bodies, WILL_FIRE baked");
        w.writeLine("// from the static ConflictMatrix (priority = "
                    "program order).");
        w.openBlock("int hw_cycle() {");
        for (int i = 0; i < nwords; i++)
            w.writeLine("std::uint64_t wf" + std::to_string(i) +
                        "_ = 0;");
        w.writeLine("int n_ = 0;");
        for (int r = 0; r < n; r++) {
            std::vector<std::uint64_t> mask(
                static_cast<size_t>(nwords), 0);
            for (int c = 0; c < r; c++) {
                if (!cm.composableInOrder(c, r))
                    mask[static_cast<size_t>(c / 64)] |=
                        1ull << (c % 64);
            }
            std::vector<std::string> terms;
            for (int i = 0; i < nwords; i++) {
                if (mask[static_cast<size_t>(i)]) {
                    terms.push_back(
                        "(wf" + std::to_string(i) + "_ & " +
                        std::to_string(mask[static_cast<size_t>(i)]) +
                        "ull)");
                }
            }
            std::string cond;
            if (!terms.empty())
                cond = "(" + join(terms, " | ") + ") == 0 && ";
            w.writeLine("if (" + cond + "rule_" +
                        ident(prog.rules[r].name) + "()) { wf" +
                        std::to_string(r / 64) + "_ |= " +
                        std::to_string(1ull << (r % 64)) +
                        "ull; hw_fires_[" + std::to_string(r) +
                        "]++; n_++; }");
        }
        for (int i = 0; i < nwords; i++)
            w.writeLine("(void)wf" + std::to_string(i) + "_;");
        w.writeLine("return n_;");
        w.closeBlock("}");
    }

    // ----- marshaled C ABI -------------------------------------------------
    /** Statements packing @p lval (of type @p t) into BitWriter w_. */
    void
    emitPackStmts(const TypePtr &t, const std::string &lval)
    {
        if (t->isBool()) {
            w.writeLine("w_.put(" + lval + " ? 1u : 0u, 1);");
        } else if (t->isBits()) {
            w.writeLine("w_.put((std::uint64_t)(std::int64_t)" + lval +
                        ", " + std::to_string(t->width()) + ");");
        } else if (t->isVec()) {
            std::string iv = fresh("i");
            w.openBlock("for (std::size_t " + iv + " = 0; " + iv +
                        " < " + std::to_string(t->vecSize()) + "; " +
                        iv + "++) {");
            emitPackStmts(t->elem(), lval + "[" + iv + "]");
            w.closeBlock("}");
        } else if (t->isStruct()) {
            for (const auto &[fname, ft] : t->fields())
                emitPackStmts(ft, lval + "." + fname);
        }
    }

    /** Statements unpacking BitReader r_ into @p lval of type @p t. */
    void
    emitUnpackStmts(const TypePtr &t, const std::string &lval)
    {
        if (t->isBool()) {
            w.writeLine(lval + " = r_.take(1) != 0;");
        } else if (t->isBits()) {
            w.writeLine(lval + " = (" + cppType(t) +
                        ")bcl::gen::sign_extend(r_.take(" +
                        std::to_string(t->width()) + "), " +
                        std::to_string(t->width()) + ");");
        } else if (t->isVec()) {
            std::string iv = fresh("i");
            w.openBlock("for (std::size_t " + iv + " = 0; " + iv +
                        " < " + std::to_string(t->vecSize()) + "; " +
                        iv + "++) {");
            emitUnpackStmts(t->elem(), lval + "[" + iv + "]");
            w.closeBlock("}");
        } else if (t->isStruct()) {
            for (const auto &[fname, ft] : t->fields())
                emitUnpackStmts(ft, lval + "." + fname);
        }
    }

    /** Message type of ABI-visible primitive @p p (the FIFO kinds and
     *  AudioDev); null for every other primitive. */
    TypePtr
    payloadType(const ElabPrim &p) const
    {
        if (isFifoKind(p.kind))
            return p.type;
        if (p.kind == "AudioDev")
            return devicePayloadType(prog, p.id);
        return nullptr;
    }

    /**
     * Suffix of the pack_/unpack_ pair for payload type @p t. Pairs are
     * keyed on the whole Type, not on its C++ type: Bit#(12) and
     * Bit#(32) are both std::int32_t but sign-extend differently.
     */
    std::string
    marshaler(const TypePtr &t)
    {
        size_t i = 0;
        while (i < marshaled.size() && !marshaled[i]->equals(*t))
            i++;
        if (i == marshaled.size())
            marshaled.push_back(t);
        return std::to_string(i);
    }

    /**
     * One marshaler pair per payload type crossing the ABI (FIFO and
     * device messages, root-method arguments): the per-message-type
     * marshaling the paper derives from the channel table (section
     * 4.4). Each keeps its bit cursor local, where the optimizer
     * holds the position in a register. Emits the pairs emitAbi asked
     * for, opening the ABI text.
     */
    void
    emitMarshalers()
    {
        w.blank();
        w.writeLine("// ---- C ABI (driven by runtime/gencc.hpp via "
                    "dlsym) ----");
        for (size_t i = 0; i < marshaled.size(); i++) {
            const TypePtr &t = marshaled[i];
            const std::string k = std::to_string(i), ct = cppType(t);
            w.writeLine("// " + t->str());
            w.openBlock("[[maybe_unused]] static " + ct + " unpack_" + k +
                        "(const std::uint32_t *words, int nwords) {");
            w.writeLine("bcl::gen::BitReader r_(words, nwords);");
            w.writeLine(ct + " v_{};");
            emitUnpackStmts(t, "v_");
            w.writeLine("return v_;");
            w.closeBlock("}");
            w.openBlock("[[maybe_unused]] static void pack_" + k +
                        "(std::uint32_t *words, int nwords, const " + ct +
                        " &v_) {");
            w.writeLine("bcl::gen::BitWriter w_(words, nwords);");
            emitPackStmts(t, "v_");
            w.closeBlock("}");
        }
    }

    /** Open `case id:` of an ABI switch with its word-count check. */
    void
    openCase(int id, int nwords)
    {
        w.writeLine("case " + std::to_string(id) + ":");
        w.indent();
        w.writeLine("if (nwords != " + std::to_string(nwords) +
                    ") return -2;");
    }

    /** Close an ABI switch on an id and its function: -1 = unknown. */
    void
    closeIdSwitch()
    {
        w.writeLine("default: return -1;");
        w.closeBlock("}");
        w.closeBlock("}");
        w.blank();
    }

    /**
     * The fixed extern "C" surface the gencc harness drives through
     * dlsym (emitMarshalers emits the pairs it calls ahead of it).
     * Word layouts on both sides of every call derive from the same
     * Type (the paper's single-source-of-truth answer to the section
     * 2.3 data-format problem): the host marshals with
     * BitSink/packWords, the generated side with the mirrored
     * BitWriter/BitReader in gen_support.hpp.
     */
    void
    emitAbi()
    {
        const std::string self =
            "static_cast<" + className + " *>(p)";
        w.writeLine("extern \"C\" {");
        w.blank();
        w.writeLine("int bcl_gen_abi_version() { return " +
                    std::to_string(kCppGenAbiVersion) + "; }");
        w.writeLine("void *bcl_gen_create() { return new " + className +
                    "(); }");
        w.writeLine("void bcl_gen_destroy(void *p) { delete " + self +
                    "; }");
        w.writeLine("std::uint64_t bcl_gen_run(void *p) { return " +
                    self + "->run_to_quiescence(); }");
        w.blank();
        w.writeLine("// which: 0 = rules fired, 1 = rules attempted.");
        w.openBlock("std::uint64_t bcl_gen_stat(void *p, int which) {");
        w.writeLine("if (which == 0) return " + self + "->fired_;");
        w.writeLine("if (which == 1) return " + self + "->attempts_;");
        w.writeLine("return 0;");
        w.closeBlock("}");
        w.blank();

        // Hardware clock-edge entry points. Every artifact carries
        // them (stubbed when the partition is not synthesizable) so
        // the host can probe capability without a separate codegen
        // path — one source, one compile, both backends.
        w.writeLine("// 1 when this partition carries a real clock-"
                    "edge scheduler.");
        w.writeLine("int bcl_gen_hw_valid() { return " +
                    std::string(hwValid ? "1" : "0") + "; }");
        w.writeLine("// Clock one edge; returns rules fired, or -1 "
                    "when not synthesizable.");
        if (hwValid) {
            w.writeLine("int bcl_gen_hw_cycle(void *p) { return " +
                        self + "->hw_cycle(); }");
        } else {
            w.writeLine("int bcl_gen_hw_cycle(void *p) { (void)p; "
                        "return -1; }");
        }
        w.writeLine("// Copy every rule's fire count into @p out: 0 = "
                    "copied, -1 = not synthesizable,");
        w.writeLine("// -2 = @p nrules is not the rule count.");
        w.openBlock("int bcl_gen_hw_fires(void *p, std::uint64_t *out, "
                    "int nrules) {");
        if (hwValid) {
            w.writeLine("if (nrules != " +
                        std::to_string(prog.rules.size()) +
                        ") return -2;");
            w.writeLine("for (int r = 0; r < nrules; r++) out[r] = " +
                        self + "->hw_fires_[r];");
            w.writeLine("return 0;");
        } else {
            w.writeLine("(void)p; (void)out; (void)nrules;");
            w.writeLine("return -1;");
        }
        w.closeBlock("}");
        w.blank();

        // Expected marshaled word count per ABI-visible primitive.
        w.openBlock("int bcl_gen_payload_words(int prim) {");
        w.openBlock("switch (prim) {");
        for (const auto &p : prog.prims) {
            if (TypePtr t = payloadType(p)) {
                w.writeLine("case " + std::to_string(p.id) +
                            ": return " + std::to_string(wordsOf(t)) +
                            ";");
            }
        }
        closeIdSwitch();

        // FIFO push: returns 1 = accepted, 0 = full, -1 = unknown id,
        // -2 = word-count mismatch.
        w.openBlock("int bcl_gen_prim_push(void *p, int prim, const "
                    "std::uint32_t *words, int nwords) {");
        w.writeLine("auto *self = " + self + ";");
        w.writeLine("(void)self; (void)words; (void)nwords;");
        w.openBlock("switch (prim) {");
        for (const auto &p : prog.prims) {
            if (!isFifoKind(p.kind))
                continue;
            const std::string name = "self->" + ident(p.path);
            openCase(p.id, wordsOf(p.type));
            w.writeLine("if (!" + name + ".canEnq()) return 0;");
            w.writeLine(name + ".enq(unpack_" + marshaler(p.type) +
                        "(words, nwords));");
            w.writeLine("return 1;");
            w.outdent();
        }
        closeIdSwitch();

        // FIFO pop and device-output (AudioDev) drain: returns
        // 1 = popped, 0 = empty, -1/-2 as above.
        w.openBlock("int bcl_gen_prim_pop(void *p, int prim, "
                    "std::uint32_t *words, int nwords) {");
        w.writeLine("auto *self = " + self + ";");
        w.writeLine("(void)self; (void)words; (void)nwords;");
        w.openBlock("switch (prim) {");
        for (const auto &p : prog.prims) {
            TypePtr t = payloadType(p);
            if (!t)
                continue;
            const bool dev = p.kind == "AudioDev";
            const std::string name = "self->" + ident(p.path);
            openCase(p.id, wordsOf(t));
            w.writeLine(dev ? "if (" + name + ".empty()) return 0;"
                            : "if (!" + name + ".canDeq()) return 0;");
            w.writeLine("pack_" + marshaler(t) + "(words, nwords, " +
                        name + (dev ? ".front());" : ".first());"));
            w.writeLine(name + (dev ? ".popFront();" : ".deq();"));
            w.writeLine("return 1;");
            w.outdent();
        }
        closeIdSwitch();

        // FIFO occupancy: returns the entry count (-1 = unknown id);
        // reserve >= 0 first sets the reserved-slot count canEnq
        // adds to it.
        w.openBlock("int bcl_gen_prim_size(void *p, int prim, int "
                    "reserve) {");
        w.writeLine("auto *self = " + self + ";");
        w.writeLine("(void)self; (void)reserve;");
        w.openBlock("switch (prim) {");
        for (const auto &p : prog.prims) {
            if (!isFifoKind(p.kind))
                continue;
            std::string name = "self->" + ident(p.path);
            w.writeLine("case " + std::to_string(p.id) + ":");
            w.indent();
            w.writeLine("if (reserve >= 0) " + name +
                        ".reserve(reserve);");
            w.writeLine("return static_cast<int>(" + name +
                        ".size());");
            w.outdent();
        }
        closeIdSwitch();

        // Root action method call: args are the per-argument
        // marshalValue() streams concatenated, each argument starting
        // on a word boundary. Returns 1 = committed, 0 = guard
        // failure, -1 = unknown id, -2 = word-count mismatch.
        w.openBlock("int bcl_gen_call_action(void *p, int meth, const "
                    "std::uint32_t *words, int nwords) {");
        w.writeLine("auto *self = " + self + ";");
        w.writeLine("(void)self; (void)words; (void)nwords;");
        w.openBlock("switch (meth) {");
        for (int mid : rootActionMethods()) {
            const ElabMethod &m = prog.methods[mid];
            std::vector<std::string> args;
            int at = 0;
            for (const auto &prm : m.params) {
                args.push_back("unpack_" + marshaler(prm.type) +
                               "(words + " + std::to_string(at) + ", " +
                               std::to_string(wordsOf(prm.type)) + ")");
                at += wordsOf(prm.type);
            }
            openCase(mid, at);
            w.writeLine("return self->method_" + std::to_string(mid) +
                        "(" + join(args, ", ") + ") ? 1 : 0;");
            w.outdent();
        }
        closeIdSwitch();
        w.writeLine("} // extern \"C\"");
    }

    const ElabProgram &prog;
    std::string className;
    CppGenMode mode;
    /** Partition passes validateForHardware: emit the clock-edge
     *  scheduler and real bcl_gen_hw_* entry points. */
    bool hwValid;
    IndentWriter w;
    int tmpCounter = 0;
    /** Let/parameter types in scope at the current emission point. */
    std::vector<Param> tenv;
    /**
     * BCL binder -> emitted C++ name, innermost last. Transformed
     * bodies may bind the same (alpha-renamed) name in sibling BCL
     * scopes that flatten into one C++ block scope, so emitted names
     * must be uniqued per function, and Var references resolved
     * through this map.
     */
    std::vector<std::pair<std::string, std::string>> nameEnv;
    std::set<std::string> usedNames;

    /** Begin a function body: parameters keep their own names. */
    void
    resetNames(const std::vector<Param> &params)
    {
        nameEnv.clear();
        usedNames.clear();
        for (const auto &p : params) {
            nameEnv.emplace_back(p.name, ident(p.name));
            usedNames.insert(ident(p.name));
        }
    }

    /** Unique C++ name for a new binder of BCL name @p name. */
    std::string
    bindName(const std::string &name)
    {
        std::string base = ident(name);
        std::string cpp = base;
        while (!usedNames.insert(cpp).second)
            cpp = base + "_" + std::to_string(tmpCounter++);
        nameEnv.emplace_back(name, cpp);
        return cpp;
    }

    void popName() { nameEnv.pop_back(); }

    std::string
    varName(const std::string &name) const
    {
        for (auto it = nameEnv.rbegin(); it != nameEnv.rend(); ++it) {
            if (it->first == name)
                return it->second;
        }
        panic("codegen: unbound variable '" + name + "'");
    }
    std::map<std::string, std::string> structNames;
    std::vector<std::pair<std::string, TypePtr>> structOrder;
    /** Payload types with a generated marshaler pair, in suffix order. */
    std::vector<TypePtr> marshaled;
};

} // namespace

std::vector<CppUnit>
generateCpp(const ElabProgram &prog, const std::string &class_name,
            CppGenMode mode)
{
    CppGen gen(prog, class_name, mode);
    return gen.run();
}

TypePtr
devicePayloadType(const ElabProgram &prog, int prim_id)
{
    TypePtr found;
    BodyScan scan(
        prog, nullptr,
        [&](const ActPtr &a, const std::vector<Param> &env) {
            if (found || a->kind != ActKind::CallA || !a->isPrim ||
                a->inst != prim_id)
                return;
            if (a->meth == "output")
                found = typeOfExpr(prog, a->exprs[0], env);
        });
    scan.run();
    return found ? found : Type::bits(32);
}

} // namespace bcl
