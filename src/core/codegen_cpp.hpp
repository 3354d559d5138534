/**
 * @file
 * C++ code generation for software partitions (section 6 of the
 * paper). Emits one class per partition: primitive state as members,
 * rules as member functions, plus the static schedule driver. Three
 * strategies reproduce the cost spectrum of section 6.3:
 *
 *   Naive    - every rule body runs under try/catch against shadow
 *              objects with commit/rollback (Figure 9),
 *   Inlined  - user methods inlined, guards checked with explicit
 *              branches to rollback code, no try/catch (Figure 10),
 *   Lifted   - when-lifting first; rules whose guards lift completely
 *              test the guard once and then execute in place with no
 *              shadows at all.
 *
 * The generated source compiles against runtime/gen_support.hpp and
 * comes as a list of translation units (see generateCpp): one for a
 * small partition, several for a large one, so the host compiler can
 * build them concurrently and link one shared object.
 *
 * Contract: @p prog must be a single-domain program — typically one
 * part of a PartitionResult, where cross-domain Syncs have already
 * been replaced by SyncTx/SyncRx halves. Rules containing dynamic
 * loops or sequential composition are fine here (unlike the BSV
 * path); they simply keep their shadow frames.
 */
#ifndef BCL_CORE_CODEGEN_CPP_HPP
#define BCL_CORE_CODEGEN_CPP_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "core/elaborate.hpp"

namespace bcl {

/** Generation strategy (see file comment). */
enum class CppGenMode : std::uint8_t { Naive, Inlined, Lifted };

/** One generated C++ translation unit: a stable name and its text. */
struct CppUnit
{
    std::string name;  ///< "partition", "abi" or "rules_<i>"
    std::string text;
};

/**
 * Emitted size, in bytes, from which a partition is split into several
 * units. Measured -O2 builds (docs/ARCHITECTURE.md, "The harness"):
 * below it a split saves at most 0.16 s of wall time or loses as
 * much, from about 20 KB on it saves 0.2-0.7 s.
 */
constexpr std::size_t kCppSplitBytes = 16 * 1024;

/**
 * Rule units of a split partition (fewer only when it has fewer rule
 * and method bodies). Every unit repeats the shared header, and the
 * ABI unit bounds the build anyway: on four cores a fourth rule unit
 * made full-software Vorbis slower to build, not faster.
 */
constexpr std::size_t kCppRuleUnits = 3;

/**
 * Generate the C++ translation units for @p prog (a software
 * partition). @p class_name names the emitted class. The list depends
 * only on the program, strategy and class name (never on the host):
 * the same inputs give the same bytes.
 *
 * Every unit opens with the same shared header text — includes, the
 * `genops` helpers, the structs and the class with its state, its
 * rule/method member declarations and the schedulers — and so
 * compiles on its own. The structs and the class are declared with
 * hidden visibility (only the ABI below is exported), and the rule
 * and method bodies are defined out of line (`bool Class::rule_x()`).
 *
 *   - Under kCppSplitBytes the result is ONE unit, "partition":
 *     header, every body and the ABI glue.
 *   - Otherwise the result is an "abi" unit (header + the extern "C"
 *     glue below) followed by "rules_0".."rules_<k-1>": the bodies
 *     bin-packed longest-first into k = min(kCppRuleUnits, bodies)
 *     units of similar size, each keeping program order.
 *
 * The units together carry a fixed `extern "C"` ABI (`bcl_gen_*`)
 * that lets a host harness drive the compiled partition through
 * marshaled 32-bit words without sharing any C++ types with it:
 * create/destroy, run_to_quiescence, push/size on FIFO-kind
 * primitives (the synchronizer halves of a partition), pop on FIFO-
 * kind and device (AudioDev) primitives, and transactional
 * root-interface action-method calls. Every payload type crossing it
 * gets exactly one generated `pack_<k>`/`unpack_<k>` pair, keyed on
 * the whole Type; each switch case is a word-count check, a ready
 * check and one marshaler call. runtime/gencc.hpp is the in-tree
 * consumer: it compiles the units concurrently and links them into
 * one shared object.
 *
 * Partitions that pass the synchronous-hardware validation
 * additionally get a clock-edge scheduler (`hw_cycle`): one function
 * per clock edge with WILL_FIRE selection baked from the static
 * ConflictMatrix as constant bitmasks (program-order priority),
 * exposed as `bcl_gen_hw_valid` / `bcl_gen_hw_cycle` /
 * `bcl_gen_hw_fires` (every rule's fire count in one call).
 * Partitions that are not synthesizable keep the same symbol surface
 * as stubs (hw_valid = 0, hw_cycle = -1, hw_fires = -1), so one
 * artifact serves both software and hardware consumers of the same
 * program. hwsim/compiled_hw.hpp is the in-tree consumer.
 */
std::vector<CppUnit> generateCpp(const ElabProgram &prog,
                                 const std::string &class_name,
                                 CppGenMode mode = CppGenMode::Lifted);

/** ABI revision emitted as bcl_gen_abi_version() (bumped whenever the
 *  generated symbol contract changes incompatibly).
 *  v2: bcl_gen_hw_valid / bcl_gen_hw_cycle / a clock-edge stats read.
 *  v3: bcl_gen_prim_size (FIFO occupancy + reserved-slot count).
 *  v4: bcl_gen_prim_pop also drains devices (no separate device pop);
 *      bcl_gen_hw_fires copies every rule's fires in one call and
 *      replaces the stats read, whose cycle, fire and busy-cycle
 *      counters nobody read. */
constexpr int kCppGenAbiVersion = 4;

/**
 * The payload type a device primitive (AudioDev / Bitmap) receives:
 * deduced from the first `output` / `store` call targeting @p prim_id
 * in any rule or method body, since device prims carry no element
 * type of their own. Returns Bit#(32) when the device is never
 * written (the historical default). Both the code generator and the
 * gencc harness derive the device word layout from this one answer —
 * the same single-source-of-truth trick the paper plays with Type.
 */
TypePtr devicePayloadType(const ElabProgram &prog, int prim_id);

} // namespace bcl

#endif // BCL_CORE_CODEGEN_CPP_HPP
