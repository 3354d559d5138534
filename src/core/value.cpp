#include "core/value.hpp"

#include <map>
#include <mutex>

#include "common/logging.hpp"
#include "core/types.hpp"

namespace bcl {

// ---------------------------------------------------------------------------
// Field-name / struct-shape interning
// ---------------------------------------------------------------------------

namespace {

struct FieldTable
{
    std::mutex mu;
    std::map<std::string, FieldId> byName;
};

FieldTable &
fieldTable()
{
    static FieldTable table;
    return table;
}

struct ShapeTable
{
    std::mutex mu;
    std::map<std::vector<std::string>, StructShapePtr> byNames;
};

ShapeTable &
shapeTable()
{
    static ShapeTable table;
    return table;
}

} // namespace

FieldId
internFieldName(const std::string &name)
{
    FieldTable &t = fieldTable();
    std::lock_guard<std::mutex> lock(t.mu);
    auto it = t.byName.find(name);
    if (it != t.byName.end())
        return it->second;
    FieldId id = static_cast<FieldId>(t.byName.size());
    t.byName.emplace(name, id);
    return id;
}

StructShapePtr
internStructShape(const std::vector<std::string> &names)
{
    ShapeTable &t = shapeTable();
    std::lock_guard<std::mutex> lock(t.mu);
    auto it = t.byNames.find(names);
    if (it != t.byNames.end())
        return it->second;
    auto shape = std::make_shared<StructShape>();
    shape->names = names;
    shape->ids.reserve(names.size());
    for (const std::string &n : names)
        shape->ids.push_back(internFieldName(n));
    t.byNames.emplace(names, shape);
    return shape;
}

// ---------------------------------------------------------------------------
// Word-wise bit streams
// ---------------------------------------------------------------------------

void
BitSink::put(std::uint64_t raw, int nbits)
{
    if (nbits <= 0 || nbits > 64)
        panic("BitSink::put: bit count out of range: " +
              std::to_string(nbits));
    if (nbits < 64)
        raw &= (1ull << nbits) - 1;
    size_t word = bits_ / 32;
    int off = static_cast<int>(bits_ % 32);
    words_.resize((bits_ + static_cast<size_t>(nbits) + 31) / 32, 0);
    words_[word] |= static_cast<std::uint32_t>(raw << off);
    int taken = 32 - off;  // bits placed in the current word
    if (nbits > taken) {
        std::uint64_t rest = raw >> taken;
        words_[word + 1] |= static_cast<std::uint32_t>(rest);
        if (nbits > taken + 32)
            words_[word + 2] |=
                static_cast<std::uint32_t>(rest >> 32);
    }
    bits_ += static_cast<size_t>(nbits);
}

void
BitSink::putWords(const std::uint32_t *words, size_t nbits)
{
    size_t full = nbits / 32;
    if (bits_ % 32 == 0) {
        words_.insert(words_.end(), words, words + full);
        bits_ += full * 32;
    } else {
        for (size_t i = 0; i < full; i++)
            put(words[i], 32);
    }
    if (int rest = static_cast<int>(nbits % 32))
        put(words[full], rest);
}

std::uint64_t
BitCursor::take(int nbits)
{
    if (nbits <= 0 || nbits > 64)
        panic("BitCursor::take: bit count out of range: " +
              std::to_string(nbits));
    if (pos_ + static_cast<size_t>(nbits) > capBits_) {
        panic("bit stream exhausted: need " + std::to_string(nbits) +
              " bits at offset " + std::to_string(pos_) + ", only " +
              std::to_string(capBits_) + " available");
    }
    size_t word = pos_ / 32;
    int off = static_cast<int>(pos_ % 32);
    std::uint64_t out = words_[word] >> off;
    int got = 32 - off;
    if (nbits > got) {
        out |= static_cast<std::uint64_t>(words_[word + 1]) << got;
        if (nbits > got + 32)
            out |= static_cast<std::uint64_t>(words_[word + 2])
                   << (got + 32);
    }
    if (nbits < 64)
        out &= (1ull << nbits) - 1;
    pos_ += static_cast<size_t>(nbits);
    return out;
}

// ---------------------------------------------------------------------------
// Scalar helpers
// ---------------------------------------------------------------------------

std::uint64_t
truncToWidth(std::uint64_t raw, int width)
{
    if (width <= 0 || width > 64)
        panic("bit width out of range: " + std::to_string(width));
    if (width == 64)
        return raw;
    return raw & ((1ull << width) - 1);
}

std::int64_t
signExtend(std::uint64_t raw, int width)
{
    if (width <= 0 || width > 64)
        panic("bit width out of range: " + std::to_string(width));
    if (width == 64)
        return static_cast<std::int64_t>(raw);
    std::uint64_t sign_bit = 1ull << (width - 1);
    std::uint64_t trunc = truncToWidth(raw, width);
    if (trunc & sign_bit)
        return static_cast<std::int64_t>(trunc | ~((1ull << width) - 1));
    return static_cast<std::int64_t>(trunc);
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

struct Value::AggRep
{
    /** The packed form: the marshaled words of a value of `type`,
     *  unpacked into `vals` at most once. */
    struct Packed
    {
        TypePtr type;
        std::vector<std::uint32_t> words;
        std::once_flag unpacked;
    };

    /** Build `vals` from `packed` (once, whichever thread gets here
     *  first; the others wait for it). */
    void unpack();

    // `packed` sits next to `vals`: every element read tests it.
    std::unique_ptr<Packed> packed;  ///< null for a plain aggregate
    std::vector<Value> vals;  ///< empty until a packed rep unpacks
    StructShapePtr shape;     ///< Struct only (null for Vec)
    int flatWidth = 0;        ///< cached sum of vals' flat widths
};

void
Value::AggRep::unpack()
{
    std::call_once(packed->unpacked, [this] {
        BitCursor cursor(packed->words.data(), packed->words.size());
        Value v = packed->type->unpackWords(cursor);
        vals = std::move(v.agg_->vals);
    });
}

const Value::AggRep &
Value::rep() const
{
    if (agg_->packed) [[unlikely]]
        agg_->unpack();
    return *agg_;
}

Value
Value::makeBits(int width, std::uint64_t raw)
{
    Value v;
    v.kind_ = ValueKind::Bits;
    v.width_ = width;
    v.bits_ = truncToWidth(raw, width);
    return v;
}

Value
Value::makeInt(int width, std::int64_t val)
{
    return makeBits(width, static_cast<std::uint64_t>(val));
}

Value
Value::makeBool(bool b)
{
    Value v;
    v.kind_ = ValueKind::Bool;
    v.width_ = 1;
    v.bits_ = b ? 1 : 0;
    return v;
}

Value
Value::makePacked(TypePtr type, std::vector<std::uint32_t> words)
{
    if (!type || !(type->isVec() || type->isStruct()))
        panic("makePacked: needs a Vec or Struct type, got " +
              (type ? type->str() : std::string("null")));
    int fw = type->flatWidth();
    if (words.size() != static_cast<size_t>((fw + 31) / 32)) {
        panic("makePacked: " + std::to_string(words.size()) +
              " words for " + type->str() + " (" + std::to_string(fw) +
              " bits)");
    }
    if (fw % 32)
        words.back() &= (1u << (fw % 32)) - 1;
    Value v;
    v.kind_ = type->isVec() ? ValueKind::Vec : ValueKind::Struct;
    v.agg_ = std::make_shared<AggRep>();
    v.agg_->flatWidth = fw;
    if (type->isStruct())
        v.agg_->shape = type->structShape();
    v.agg_->packed = std::make_unique<AggRep::Packed>();
    v.agg_->packed->type = std::move(type);
    v.agg_->packed->words = std::move(words);
    return v;
}

Value
Value::makeVec(std::vector<Value> elems)
{
    Value v;
    v.kind_ = ValueKind::Vec;
    v.agg_ = std::make_shared<AggRep>();
    int fw = 0;
    for (const Value &e : elems)
        fw += e.flatWidth();
    v.agg_->vals = std::move(elems);
    v.agg_->flatWidth = fw;
    return v;
}

Value
Value::makeStruct(std::vector<std::pair<std::string, Value>> fields)
{
    std::vector<std::string> names;
    std::vector<Value> vals;
    names.reserve(fields.size());
    vals.reserve(fields.size());
    for (auto &[name, val] : fields) {
        names.push_back(std::move(name));
        vals.push_back(std::move(val));
    }
    return makeStructShaped(internStructShape(names), std::move(vals));
}

Value
Value::makeStructShaped(StructShapePtr shape, std::vector<Value> vals)
{
    if (!shape)
        panic("makeStructShaped: null shape");
    if (shape->names.size() != vals.size()) {
        panic("makeStructShaped: " + std::to_string(vals.size()) +
              " values for " + std::to_string(shape->names.size()) +
              " fields");
    }
    Value v;
    v.kind_ = ValueKind::Struct;
    v.agg_ = std::make_shared<AggRep>();
    int fw = 0;
    for (const Value &f : vals)
        fw += f.flatWidth();
    v.agg_->vals = std::move(vals);
    v.agg_->shape = std::move(shape);
    v.agg_->flatWidth = fw;
    return v;
}

int
Value::width() const
{
    if (kind_ != ValueKind::Bits)
        panic("width() on non-Bits value " + str());
    return width_;
}

std::uint64_t
Value::asUInt() const
{
    if (kind_ != ValueKind::Bits && kind_ != ValueKind::Bool)
        panic("asUInt() on non-scalar value " + str());
    return bits_;
}

std::int64_t
Value::asInt() const
{
    if (kind_ != ValueKind::Bits)
        panic("asInt() on non-Bits value " + str());
    return signExtend(bits_, width_);
}

bool
Value::asBool() const
{
    if (kind_ != ValueKind::Bool)
        panic("asBool() on non-Bool value " + str());
    return bits_ != 0;
}

const std::vector<Value> &
Value::elems() const
{
    if (kind_ != ValueKind::Vec)
        panic("elems() on non-Vec value " + str());
    return rep().vals;
}

const Value &
Value::at(size_t i) const
{
    const auto &es = elems();
    if (i >= es.size()) {
        panic("vector index " + std::to_string(i) + " out of range " +
              std::to_string(es.size()));
    }
    return es[i];
}

size_t
Value::size() const
{
    if (kind_ == ValueKind::Vec || kind_ == ValueKind::Struct)
        return rep().vals.size();
    panic("size() on scalar value " + str());
}

const StructShapePtr &
Value::shape() const
{
    if (kind_ != ValueKind::Struct)
        panic("shape() on non-Struct value " + str());
    return agg_->shape;
}

const std::string &
Value::fieldName(size_t i) const
{
    const StructShapePtr &s = shape();
    if (i >= s->names.size())
        panic("field index " + std::to_string(i) + " out of range");
    return s->names[i];
}

const Value &
Value::fieldAt(size_t i) const
{
    if (kind_ != ValueKind::Struct)
        panic("fieldAt() on non-Struct value " + str());
    const AggRep &r = rep();
    if (i >= r.vals.size())
        panic("field index " + std::to_string(i) + " out of range");
    return r.vals[i];
}

const Value &
Value::field(const std::string &name) const
{
    if (kind_ != ValueKind::Struct)
        panic("field() on non-Struct value " + str());
    size_t i = agg_->shape->indexOfName(name);
    if (i == StructShape::npos)
        panic("struct has no field '" + name + "': " + str());
    return rep().vals[i];
}

const Value *
Value::tryFieldById(FieldId id) const
{
    if (kind_ != ValueKind::Struct)
        panic("field access on non-Struct value " + str());
    size_t i = agg_->shape->indexOf(id);
    if (i == StructShape::npos)
        return nullptr;
    return &rep().vals[i];
}

void
Value::detachAgg()
{
    const AggRep &r = rep();
    if (agg_.use_count() == 1) {
        agg_->packed.reset();
        return;
    }
    auto copy = std::make_shared<AggRep>();
    copy->vals = r.vals;
    copy->shape = r.shape;
    copy->flatWidth = r.flatWidth;
    agg_ = std::move(copy);
}

Value
Value::withElem(size_t i, Value v) const &
{
    Value copy(*this);
    return std::move(copy).withElem(i, std::move(v));
}

Value
Value::withElem(size_t i, Value v) &&
{
    if (kind_ != ValueKind::Vec || !agg_ || i >= rep().vals.size())
        panic("withElem out of range on " + str());
    detachAgg();
    agg_->flatWidth += v.flatWidth() - agg_->vals[i].flatWidth();
    agg_->vals[i] = std::move(v);
    return std::move(*this);
}

Value
Value::withField(const std::string &name, Value v) const
{
    if (kind_ != ValueKind::Struct)
        panic("withField on non-Struct " + str());
    size_t i = agg_->shape->indexOfName(name);
    if (i == StructShape::npos)
        panic("withField: no field '" + name + "' in " + str());
    return withFieldAt(i, std::move(v));
}

Value
Value::withFieldAt(size_t i, Value v) const &
{
    Value copy(*this);
    return std::move(copy).withFieldAt(i, std::move(v));
}

Value
Value::withFieldAt(size_t i, Value v) &&
{
    if (kind_ != ValueKind::Struct || !agg_ ||
        i >= rep().vals.size())
        panic("withFieldAt out of range on " + str());
    detachAgg();
    agg_->flatWidth += v.flatWidth() - agg_->vals[i].flatWidth();
    agg_->vals[i] = std::move(v);
    return std::move(*this);
}

bool
Value::operator==(const Value &other) const
{
    if (kind_ != other.kind_)
        return false;
    switch (kind_) {
      case ValueKind::Invalid:
        return true;
      case ValueKind::Bits:
        return width_ == other.width_ && bits_ == other.bits_;
      case ValueKind::Bool:
        return bits_ == other.bits_;
      case ValueKind::Vec:
      case ValueKind::Struct: {
        // The pointer check also makes moved-from aggregates (null
        // agg_) safe to compare.
        if (agg_ == other.agg_)
            return true;
        if (!agg_ || !other.agg_)
            return false;
        // Shapes are interned: pointer equality iff same field list
        // (both null for Vec).
        if (agg_->shape != other.agg_->shape)
            return false;
        // Two packings of one type are equal iff their words are
        // (makePacked clears the padding bits).
        const AggRep::Packed *a = agg_->packed.get();
        const AggRep::Packed *b = other.agg_->packed.get();
        if (a && b && a->type == b->type)
            return a->words == b->words;
        return rep().vals == other.rep().vals;
      }
    }
    return false;
}

std::string
Value::str() const
{
    switch (kind_) {
      case ValueKind::Invalid:
        return "<invalid>";
      case ValueKind::Bits:
        return std::to_string(asInt()) + "'b" + std::to_string(width_);
      case ValueKind::Bool:
        return bits_ ? "true" : "false";
      case ValueKind::Vec: {
        if (!agg_)
            return "<moved-from Vec>";
        std::string out = "[";
        const auto &es = rep().vals;
        for (size_t i = 0; i < es.size(); i++) {
            if (i)
                out += ", ";
            out += es[i].str();
        }
        return out + "]";
      }
      case ValueKind::Struct: {
        if (!agg_)
            return "<moved-from Struct>";
        std::string out = "{";
        const auto &es = rep().vals;
        for (size_t i = 0; i < es.size(); i++) {
            if (i)
                out += ", ";
            out += agg_->shape->names[i] + ": " + es[i].str();
        }
        return out + "}";
      }
    }
    return "<?>";
}

void
Value::packWords(BitSink &sink) const
{
    switch (kind_) {
      case ValueKind::Invalid:
        panic("packWords on invalid value");
      case ValueKind::Bits:
        sink.put(bits_, width_);
        return;
      case ValueKind::Bool:
        sink.put(bits_, 1);
        return;
      case ValueKind::Vec:
      case ValueKind::Struct:
        if (const AggRep::Packed *p = agg_->packed.get()) {
            sink.putWords(p->words.data(),
                          static_cast<size_t>(agg_->flatWidth));
            return;
        }
        for (const Value &e : agg_->vals)
            e.packWords(sink);
        return;
    }
}

int
Value::flatWidth() const
{
    switch (kind_) {
      case ValueKind::Invalid:
        return 0;
      case ValueKind::Bits:
        return width_;
      case ValueKind::Bool:
        return 1;
      case ValueKind::Vec:
      case ValueKind::Struct:
        return agg_->flatWidth;
    }
    return 0;
}

const std::vector<std::uint32_t> *
Value::packedWords() const
{
    if (agg_ && agg_->packed)
        return &agg_->packed->words;
    return nullptr;
}

} // namespace bcl
