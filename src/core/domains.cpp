#include "core/domains.hpp"

#include <map>

#include "common/logging.hpp"
#include "core/primdecl.hpp"

namespace bcl {

namespace {

/** Union-find over domain variables carrying an optional constant. */
class DomainSolver
{
  public:
    int
    fresh()
    {
        parent.push_back(static_cast<int>(parent.size()));
        constant.emplace_back();
        return parent.back();
    }

    int
    find(int x)
    {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    }

    /**
     * Unify two variables; @p why names the rule/method forcing the
     * merge, for the error message when two constants collide.
     */
    void
    unify(int a, int b, const std::string &why)
    {
        a = find(a);
        b = find(b);
        if (a == b)
            return;
        if (!constant[a].empty() && !constant[b].empty() &&
            constant[a] != constant[b]) {
            fatal(why + " would span domains '" + constant[a] +
                  "' and '" + constant[b] +
                  "' (one-domain-per-rule violation; insert a Sync)");
        }
        if (constant[a].empty())
            std::swap(a, b);
        parent[b] = a;  // a keeps/holds the constant if any
    }

    void
    pin(int x, const std::string &dom, const std::string &why)
    {
        int c = constFor(dom);
        unify(x, c, why);
    }

    std::string
    resolved(int x)
    {
        return constant[find(x)];
    }

  private:
    int
    constFor(const std::string &dom)
    {
        auto it = constVar.find(dom);
        if (it != constVar.end())
            return it->second;
        int v = fresh();
        constant[v] = dom;
        constVar[dom] = v;
        return v;
    }

    std::vector<int> parent;
    std::vector<std::string> constant;
    std::map<std::string, int> constVar;
};

/** Collects domain constraints from an action/expression tree. */
class ConstraintWalker
{
  public:
    ConstraintWalker(const ElabProgram &prog, DomainSolver &solver,
                     const std::vector<int> &prim_var,
                     const std::vector<int> &meth_var)
        : prog(prog), solver(solver), primVar(prim_var),
          methVar(meth_var)
    {
    }

    void
    constrainPrimUse(int user_var, int prim_id, const std::string &meth,
                     const std::string &why)
    {
        const ElabPrim &prim = prog.prims[prim_id];
        const PrimDecl *decl = findPrimDecl(prim.kind);
        const PrimMethodDecl *pm = decl->findMethod(meth);
        if (!pm)
            panic("domain walk: unknown method " + prim.kind + "." + meth);
        if (decl->isSync) {
            solver.pin(user_var, pm->domainSlot == 0 ? prim.domA
                                                     : prim.domB,
                       why);
        } else if (decl->isDevice) {
            solver.pin(user_var, prim.domA, why);
        } else {
            solver.unify(user_var, primVar[prim_id], why);
        }
    }

    void
    walkExpr(const Expr &e, int var, const std::string &why)
    {
        for (const auto &sub : e.args)
            walkExpr(*sub, var, why);
        if (e.kind == ExprKind::CallV) {
            if (e.isPrim)
                constrainPrimUse(var, e.inst, e.meth, why);
            else
                solver.unify(var, methVar[e.methIdx], why);
        }
    }

    void
    walkAction(const Action &a, int var, const std::string &why)
    {
        for (const auto &e : a.exprs)
            walkExpr(*e, var, why);
        for (const auto &s : a.subs)
            walkAction(*s, var, why);
        if (a.kind == ActKind::CallA) {
            if (a.isPrim)
                constrainPrimUse(var, a.inst, a.meth, why);
            else
                solver.unify(var, methVar[a.methIdx], why);
        }
    }

  private:
    const ElabProgram &prog;
    DomainSolver &solver;
    const std::vector<int> &primVar;
    const std::vector<int> &methVar;
};

} // namespace

DomainAssignment
inferDomains(ElabProgram &prog, const std::string &default_domain)
{
    DomainSolver solver;

    std::vector<int> prim_var(prog.prims.size());
    for (size_t i = 0; i < prog.prims.size(); i++)
        prim_var[i] = solver.fresh();

    std::vector<int> meth_var(prog.methods.size());
    for (size_t i = 0; i < prog.methods.size(); i++) {
        meth_var[i] = solver.fresh();
        if (!prog.methods[i].domain.empty()) {
            solver.pin(meth_var[i], prog.methods[i].domain,
                       "method '" + prog.methods[i].name + "'");
        }
    }

    std::vector<int> rule_var(prog.rules.size());
    for (size_t i = 0; i < prog.rules.size(); i++)
        rule_var[i] = solver.fresh();

    ConstraintWalker walker(prog, solver, prim_var, meth_var);
    for (size_t i = 0; i < prog.rules.size(); i++) {
        walker.walkAction(*prog.rules[i].body, rule_var[i],
                          "rule '" + prog.rules[i].name + "'");
    }
    for (size_t i = 0; i < prog.methods.size(); i++) {
        const ElabMethod &m = prog.methods[i];
        std::string why = "method '" + m.name + "'";
        if (m.isAction)
            walker.walkAction(*m.body, meth_var[i], why);
        else
            walker.walkExpr(*m.value, meth_var[i], why);
    }

    DomainAssignment out;
    auto resolve = [&](int var) {
        std::string d = solver.resolved(var);
        return d.empty() ? default_domain : d;
    };

    out.ruleDomain.reserve(prog.rules.size());
    for (size_t i = 0; i < prog.rules.size(); i++) {
        out.ruleDomain.push_back(resolve(rule_var[i]));
        prog.rules[i].domain = out.ruleDomain.back();
        out.domains.insert(out.ruleDomain.back());
    }
    out.methodDomain.reserve(prog.methods.size());
    for (size_t i = 0; i < prog.methods.size(); i++) {
        out.methodDomain.push_back(resolve(meth_var[i]));
        prog.methods[i].domain = out.methodDomain.back();
        out.domains.insert(out.methodDomain.back());
    }
    out.primDomain.reserve(prog.prims.size());
    for (size_t i = 0; i < prog.prims.size(); i++) {
        const ElabPrim &prim = prog.prims[i];
        const PrimDecl *decl = findPrimDecl(prim.kind);
        if (decl->isSync) {
            out.primDomain.push_back("");
            out.domains.insert(prim.domA);
            out.domains.insert(prim.domB);
        } else if (decl->isDevice) {
            out.primDomain.push_back(prim.domA);
            out.domains.insert(prim.domA);
        } else {
            out.primDomain.push_back(resolve(prim_var[i]));
            out.domains.insert(out.primDomain.back());
        }
    }
    return out;
}

} // namespace bcl
