/**
 * @file
 * Runtime values of the BCL kernel language. A value is one of:
 *   - Bits: a fixed-width two's-complement bit vector (width <= 64),
 *   - Bool: a boolean,
 *   - Vec: a fixed-length vector of values,
 *   - Struct: a record of named fields.
 *
 * Values have value semantics: copying a Value snapshots it. The whole
 * transactional runtime (change-log shadows, parallel-branch isolation,
 * rollback) relies on this. Internally aggregates are copy-on-write:
 * a copy shares the immutable payload and the first functional update
 * (withElem / withField) clones it. Snapshots are therefore O(1) and
 * the clone is shallow — element Values are themselves shared.
 *
 * Packed aggregates: a Vec or Struct may instead hold its marshaled
 * words plus its static Type (makePacked) — the form a message already
 * has on the compiled side of the gencc ABI. kind(), shape(),
 * fieldName() and flatWidth() are answered from the type; packWords()
 * appends the words as they are, so a message popped from one
 * compiled partition and pushed into another is never rebuilt as a
 * tree. Every other read (elems / at / size / fieldAt / field /
 * tryFieldById / str / == / withElem / withField) first builds the
 * elements with Type::unpackWords, once: copies share the payload, so
 * the unpack runs under std::call_once and any number of threads may
 * read one shared packed value at once. A functional update unpacks,
 * then detaches (or, when uniquely owned, drops the words), so it
 * never writes a payload another copy can see. A plain aggregate pays
 * one null-pointer test per access for all of this.
 *
 * Struct field names are interned process-wide: every distinct field
 * list maps to one shared StructShape, so shape comparison is pointer
 * comparison and field lookup compares integer FieldIds, never
 * strings. Aggregates cache their flattened bit width; flatWidth() is
 * O(1) for every kind.
 *
 * Contract: a Value does not know its static Type — shape agreement
 * is the typechecker's job, and primitives/interpreter may assume it.
 * The one exception is a packed aggregate, which keeps the Type its
 * words were marshaled from so it can unpack them later. Bit-level
 * packing here (word-wise via BitSink/BitCursor) is the canonical
 * flattening that platform/marshal.hpp exposes; tests round-trip
 * every value shape through it.
 */
#ifndef BCL_CORE_VALUE_HPP
#define BCL_CORE_VALUE_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace bcl {

class Type;
using TypePtr = std::shared_ptr<const Type>;

/** Interned identity of a struct field name (process-wide table). */
using FieldId = std::uint32_t;

/** Intern @p name, returning its stable id (idempotent). */
FieldId internFieldName(const std::string &name);

/**
 * The interned layout of a struct value: field names in declaration
 * order. Shapes are unique per name sequence, so two struct values
 * have equal field lists iff their shape pointers are equal.
 */
struct StructShape
{
    static constexpr size_t npos = ~static_cast<size_t>(0);

    std::vector<std::string> names;
    std::vector<FieldId> ids;

    /** Position of field @p id (npos when absent). */
    size_t
    indexOf(FieldId id) const
    {
        for (size_t i = 0; i < ids.size(); i++) {
            if (ids[i] == id)
                return i;
        }
        return npos;
    }

    /** Position of field @p name (npos when absent). Find-only: by
     *  contrast with internFieldName, a miss never grows the global
     *  intern table and takes no lock. */
    size_t
    indexOfName(const std::string &name) const
    {
        for (size_t i = 0; i < names.size(); i++) {
            if (names[i] == name)
                return i;
        }
        return npos;
    }
};

using StructShapePtr = std::shared_ptr<const StructShape>;

/** Intern the shape with the given field @p names (idempotent). */
StructShapePtr internStructShape(const std::vector<std::string> &names);

/**
 * Accumulates a little-endian bit stream into 32-bit words (LSB of
 * the first scalar is bit 0 of word 0). Appends in O(1) per scalar.
 */
class BitSink
{
  public:
    /** Append the low @p nbits of @p raw (nbits in [1,64]). */
    void put(std::uint64_t raw, int nbits);

    /** Append the first @p nbits of the stream in @p words (a whole
     *  word copy when this sink is word-aligned). */
    void putWords(const std::uint32_t *words, size_t nbits);

    /** Total bits appended so far. */
    size_t bitCount() const { return bits_; }

    /** The packed words, ceil(bitCount/32) of them. */
    std::vector<std::uint32_t> takeWords() { return std::move(words_); }

  private:
    std::vector<std::uint32_t> words_;
    size_t bits_ = 0;
};

/**
 * Reads a little-endian bit stream out of 32-bit words; the inverse
 * of BitSink. Strictly bounds-checked: consuming past the end panics
 * with a diagnostic (never yields silent zero padding).
 */
class BitCursor
{
  public:
    BitCursor(const std::uint32_t *words, size_t num_words)
        : words_(words), capBits_(num_words * 32)
    {
    }

    /** Consume @p nbits (in [1,64]); panics when exhausted. */
    std::uint64_t take(int nbits);

    /** Bits consumed so far. */
    size_t bitPos() const { return pos_; }

    /** Total bits available. */
    size_t bitCapacity() const { return capBits_; }

  private:
    const std::uint32_t *words_;
    size_t capBits_;
    size_t pos_ = 0;
};

/** Discriminator for Value. */
enum class ValueKind : std::uint8_t { Invalid, Bits, Bool, Vec, Struct };

/**
 * A BCL runtime value. See file comment for the four variants.
 *
 * Bits values store their payload truncated to the declared width; the
 * signed view (asInt) sign-extends from the top declared bit, matching
 * hardware semantics for fixed-width arithmetic.
 */
class Value
{
  public:
    /** Constructs the Invalid value (unready / poison). */
    Value() = default;

    /** @name Factory functions */
    /// @{
    static Value makeBits(int width, std::uint64_t raw);
    static Value makeInt(int width, std::int64_t v);
    static Value makeBool(bool b);
    static Value makeVec(std::vector<Value> elems);
    static Value makeStruct(
        std::vector<std::pair<std::string, Value>> fields);
    /** Fast path: an interned @p shape plus field values in shape
     *  order (the interpreter's MakeStruct and Type::unpackWords). */
    static Value makeStructShaped(StructShapePtr shape,
                                  std::vector<Value> vals);
    /** A Vec or Struct of @p type held as its marshaled @p words
     *  (exactly ceil(flatWidth/32) of them; padding bits past the
     *  flat width are cleared). See the file comment. */
    static Value makePacked(TypePtr type,
                            std::vector<std::uint32_t> words);
    /// @}

    ValueKind kind() const { return kind_; }
    bool valid() const { return kind_ != ValueKind::Invalid; }
    bool isBits() const { return kind_ == ValueKind::Bits; }
    bool isBool() const { return kind_ == ValueKind::Bool; }
    bool isVec() const { return kind_ == ValueKind::Vec; }
    bool isStruct() const { return kind_ == ValueKind::Struct; }

    /** Bit width of a Bits value. Panics on other kinds. */
    int width() const;

    /** Raw (zero-extended) payload of a Bits value. */
    std::uint64_t asUInt() const;

    /** Sign-extended payload of a Bits value. */
    std::int64_t asInt() const;

    /** Payload of a Bool value. Panics on other kinds. */
    bool asBool() const;

    /** Elements of a Vec value (panics otherwise). */
    const std::vector<Value> &elems() const;

    /** Element @p i of a Vec (panics when out of range). */
    const Value &at(size_t i) const;

    /** Number of elements of a Vec / fields of a Struct. */
    size_t size() const;

    /** Interned layout of a Struct value (panics otherwise). */
    const StructShapePtr &shape() const;

    /** Name of field @p i of a Struct. */
    const std::string &fieldName(size_t i) const;

    /** Value of field @p i of a Struct (panics when out of range). */
    const Value &fieldAt(size_t i) const;

    /** Field @p name of a Struct (panics when missing). */
    const Value &field(const std::string &name) const;

    /** Field with interned id @p id (nullptr when missing). */
    const Value *tryFieldById(FieldId id) const;

    /** Functional update: copy of this Vec with element i replaced.
     *  The rvalue overload mutates in place when uniquely owned. */
    Value withElem(size_t i, Value v) const &;
    Value withElem(size_t i, Value v) &&;

    /** Functional update: copy of this Struct with a field replaced. */
    Value withField(const std::string &name, Value v) const;
    Value withFieldAt(size_t i, Value v) const &;
    Value withFieldAt(size_t i, Value v) &&;

    /** Deep structural equality. */
    bool operator==(const Value &other) const;
    bool operator!=(const Value &other) const
    {
        return !(*this == other);
    }

    /** Human-readable rendering for diagnostics and golden tests. */
    std::string str() const;

    /**
     * Flatten into @p sink as a little-endian bit stream (LSB of the
     * first scalar first). Used by the marshaling layer; see
     * marshal.hpp.
     */
    void packWords(BitSink &sink) const;

    /** Total number of flattened bits. O(1), cached for aggregates. */
    int flatWidth() const;

    /** The marshaled words of a packed aggregate, as packWords would
     *  emit them; nullptr for every other value. */
    const std::vector<std::uint32_t> *packedWords() const;

  private:
    /** Shared aggregate payload (Vec elements / Struct fields, or
     *  the packed form); defined in value.cpp. */
    struct AggRep;

    /** The payload with its elements built (unpacks a packed one). */
    const AggRep &rep() const;

    /** Unpack, then clone agg_ unless uniquely owned (the COW
     *  barrier); afterwards agg_ is a plain aggregate. */
    void detachAgg();

    ValueKind kind_ = ValueKind::Invalid;
    int width_ = 0;
    std::uint64_t bits_ = 0;
    std::shared_ptr<AggRep> agg_;
};

/** Truncate @p raw to @p width bits (width in [1,64]). */
std::uint64_t truncToWidth(std::uint64_t raw, int width);

/** Sign-extend the low @p width bits of @p raw. */
std::int64_t signExtend(std::uint64_t raw, int width);

} // namespace bcl

#endif // BCL_CORE_VALUE_HPP
