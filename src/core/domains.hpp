/**
 * @file
 * Computational-domain inference and checking (section 4.2 of the
 * paper). Every rule and method must belong to exactly one domain;
 * inter-domain dataflow is legal only through Sync primitives, whose
 * two method groups are pinned to their declared domains. Devices pin
 * their methods to the domain given at instantiation. Ordinary state
 * (Reg/Fifo/Bram) is domain-polymorphic: it floats to wherever its
 * users are, and using one from two different domains is a type error
 * (the "inadvertent inter-domain communication" the paper's type
 * system rules out).
 *
 * Implementation: union-find over domain variables (one per rule, per
 * user method, per floating primitive) with named-domain constants.
 * Unifying two distinct constants raises a FatalError naming the rule
 * that forced the merge.
 *
 * Contract: expects an elaborated (and ideally typechecked) program.
 * On success every rule and method has a non-empty domain, both in
 * the returned DomainAssignment and written back into @c prog, which
 * is exactly the precondition partitionProgram() relies on.
 */
#ifndef BCL_CORE_DOMAINS_HPP
#define BCL_CORE_DOMAINS_HPP

#include <set>
#include <string>
#include <vector>

#include "core/elaborate.hpp"

namespace bcl {

/** Result of domain inference. */
struct DomainAssignment
{
    /** Domain of each rule (index = rule id). */
    std::vector<std::string> ruleDomain;

    /** Domain of each user method (index = method id). */
    std::vector<std::string> methodDomain;

    /**
     * Domain of each primitive (index = prim id). Sync primitives
     * span two domains and get "" here (their sides are in
     * ElabPrim::domA/domB).
     */
    std::vector<std::string> primDomain;

    /** Every named domain that appears in the program. */
    std::set<std::string> domains;

    /** True when the program has more than one domain. */
    bool partitioned() const { return domains.size() > 1; }
};

/**
 * Infer and check domains for @p prog. Rules/methods/prims that no
 * constraint reaches default to @p default_domain. On success the
 * inferred domains are also written back into prog.rules[].domain and
 * prog.methods[].domain.
 *
 * @throws FatalError when a rule or method would span two domains
 * (the one-domain-per-rule invariant).
 */
DomainAssignment inferDomains(ElabProgram &prog,
                              const std::string &default_domain = "SW");

} // namespace bcl

#endif // BCL_CORE_DOMAINS_HPP
