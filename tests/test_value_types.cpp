/**
 * @file
 * Unit tests for runtime values and static types: construction,
 * signed/unsigned views, structural equality, functional update,
 * bit-level pack/unpack round trips (the marshaling substrate), and
 * the packed aggregate form (Value::makePacked) against built values.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>

#include "common/logging.hpp"
#include "core/types.hpp"
#include "core/value.hpp"

namespace bcl {
namespace {

TEST(Value, BitsTruncatesToWidth)
{
    Value v = Value::makeBits(8, 0x1ff);
    EXPECT_EQ(v.asUInt(), 0xffu);
    EXPECT_EQ(v.width(), 8);
}

TEST(Value, SignedViewSignExtends)
{
    Value v = Value::makeBits(8, 0xff);
    EXPECT_EQ(v.asInt(), -1);
    Value w = Value::makeBits(8, 0x7f);
    EXPECT_EQ(w.asInt(), 127);
}

TEST(Value, MakeIntNegativeRoundTrips)
{
    for (int width : {4, 8, 16, 32, 64}) {
        std::int64_t lo = width == 64
            ? std::numeric_limits<std::int64_t>::min()
            : -(1ll << (width - 1));
        Value v = Value::makeInt(width, lo);
        EXPECT_EQ(v.asInt(), lo) << "width " << width;
    }
}

TEST(Value, BoolBasics)
{
    EXPECT_TRUE(Value::makeBool(true).asBool());
    EXPECT_FALSE(Value::makeBool(false).asBool());
    EXPECT_TRUE(Value::makeBool(true).isBool());
}

TEST(Value, InvalidIsNotValid)
{
    Value v;
    EXPECT_FALSE(v.valid());
    EXPECT_EQ(v.kind(), ValueKind::Invalid);
}

TEST(Value, VectorIndexAndFunctionalUpdate)
{
    Value v = Value::makeVec({Value::makeBits(8, 1),
                              Value::makeBits(8, 2),
                              Value::makeBits(8, 3)});
    EXPECT_EQ(v.at(1).asUInt(), 2u);
    Value w = v.withElem(1, Value::makeBits(8, 9));
    EXPECT_EQ(w.at(1).asUInt(), 9u);
    // Original untouched (value semantics).
    EXPECT_EQ(v.at(1).asUInt(), 2u);
}

TEST(Value, StructFieldAccessAndUpdate)
{
    Value s = Value::makeStruct(
        {{"re", Value::makeBits(32, 5)}, {"im", Value::makeBits(32, 7)}});
    EXPECT_EQ(s.field("im").asUInt(), 7u);
    Value t = s.withField("re", Value::makeBits(32, 11));
    EXPECT_EQ(t.field("re").asUInt(), 11u);
    EXPECT_EQ(s.field("re").asUInt(), 5u);
}

TEST(Value, EqualityIsDeepStructural)
{
    Value a = Value::makeVec({Value::makeBits(4, 3)});
    Value b = Value::makeVec({Value::makeBits(4, 3)});
    Value c = Value::makeVec({Value::makeBits(4, 4)});
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(a, Value::makeBits(4, 3));
}

TEST(Value, PanicsOnKindMismatch)
{
    EXPECT_THROW(Value::makeBool(true).asInt(), PanicError);
    EXPECT_THROW(Value::makeBits(4, 1).asBool(), PanicError);
    EXPECT_THROW(Value::makeBits(4, 1).elems(), PanicError);
    EXPECT_THROW(Value::makeBool(true).field("x"), PanicError);
}

TEST(Value, PackWordsLittleEndianPerScalar)
{
    Value v = Value::makeBits(4, 0b1010);
    BitSink sink;
    v.packWords(sink);
    ASSERT_EQ(sink.bitCount(), 4u);
    std::vector<std::uint32_t> words = sink.takeWords();
    ASSERT_EQ(words.size(), 1u);
    EXPECT_EQ(words[0], 0b1010u);
}

TEST(Value, PackWordsSpansWordBoundaries)
{
    // Three 24-bit scalars straddle two 32-bit words.
    BitSink sink;
    Value::makeBits(24, 0xabcdef).packWords(sink);
    Value::makeBits(24, 0x123456).packWords(sink);
    Value::makeBits(24, 0xfedcba).packWords(sink);
    ASSERT_EQ(sink.bitCount(), 72u);
    std::vector<std::uint32_t> words = sink.takeWords();
    ASSERT_EQ(words.size(), 3u);
    BitCursor cur(words.data(), words.size());
    EXPECT_EQ(cur.take(24), 0xabcdefu);
    EXPECT_EQ(cur.take(24), 0x123456u);
    EXPECT_EQ(cur.take(24), 0xfedcbau);
}

TEST(Value, BitSink64BitScalars)
{
    BitSink sink;
    sink.put(1, 1);  // misalign by one bit
    std::uint64_t big = 0xdeadbeefcafef00dull;
    sink.put(big, 64);
    std::vector<std::uint32_t> words = sink.takeWords();
    BitCursor cur(words.data(), words.size());
    EXPECT_EQ(cur.take(1), 1u);
    EXPECT_EQ(cur.take(64), big);
}

TEST(Value, FlatWidthSumsNestedStructure)
{
    Value cplx = Value::makeStruct({{"re", Value::makeBits(32, 0)},
                                    {"im", Value::makeBits(32, 0)}});
    Value frame = Value::makeVec(std::vector<Value>(4, cplx));
    EXPECT_EQ(frame.flatWidth(), 4 * 64);
}

TEST(SignExtend, EdgeWidths)
{
    EXPECT_EQ(signExtend(0x1, 1), -1);
    EXPECT_EQ(signExtend(0x0, 1), 0);
    EXPECT_EQ(signExtend(0x8000000000000000ull, 64),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_THROW(signExtend(0, 0), PanicError);
    EXPECT_THROW(truncToWidth(0, 65), PanicError);
}

TEST(Type, ScalarConstruction)
{
    EXPECT_TRUE(Type::boolean()->isBool());
    EXPECT_EQ(Type::bits(12)->width(), 12);
    EXPECT_TRUE(Type::unit()->isUnit());
    EXPECT_THROW(Type::bits(0), FatalError);
    EXPECT_THROW(Type::bits(65), FatalError);
}

TEST(Type, VectorAndStruct)
{
    TypePtr cplx = Type::record(
        "Complex", {{"re", Type::bits(32)}, {"im", Type::bits(32)}});
    TypePtr frame = Type::vec(64, cplx);
    EXPECT_EQ(frame->vecSize(), 64);
    EXPECT_EQ(frame->flatWidth(), 64 * 64);
    EXPECT_EQ(cplx->field("im")->width(), 32);
    EXPECT_THROW(cplx->field("xy"), PanicError);
}

TEST(Type, EqualsIsStructuralWithNames)
{
    TypePtr a = Type::record("C", {{"x", Type::bits(8)}});
    TypePtr b = Type::record("C", {{"x", Type::bits(8)}});
    TypePtr c = Type::record("D", {{"x", Type::bits(8)}});
    EXPECT_TRUE(a->equals(*b));
    EXPECT_FALSE(a->equals(*c));
    EXPECT_TRUE(Type::vec(3, Type::bits(4))
                    ->equals(*Type::vec(3, Type::bits(4))));
    EXPECT_FALSE(Type::vec(3, Type::bits(4))
                     ->equals(*Type::vec(4, Type::bits(4))));
}

TEST(Type, AdmitsChecksShape)
{
    TypePtr t = Type::vec(2, Type::bits(8));
    EXPECT_TRUE(t->admits(Value::makeVec(
        {Value::makeBits(8, 1), Value::makeBits(8, 2)})));
    EXPECT_FALSE(t->admits(Value::makeVec({Value::makeBits(8, 1)})));
    EXPECT_FALSE(t->admits(Value::makeBits(16, 1)));
}

TEST(Type, ZeroValueInhabitsType)
{
    TypePtr cplx = Type::record(
        "Complex", {{"re", Type::bits(32)}, {"im", Type::bits(32)}});
    TypePtr t = Type::vec(3, cplx);
    Value z = t->zeroValue();
    EXPECT_TRUE(t->admits(z));
    EXPECT_EQ(z.at(2).field("re").asInt(), 0);
}

TEST(Type, PackUnpackRoundTrip)
{
    TypePtr cplx = Type::record(
        "Complex", {{"re", Type::bits(32)}, {"im", Type::bits(32)}});
    TypePtr t = Type::vec(3, cplx);
    Value v = Value::makeVec(
        {Value::makeStruct({{"re", Value::makeInt(32, -5)},
                            {"im", Value::makeInt(32, 99)}}),
         Value::makeStruct({{"re", Value::makeInt(32, 1 << 20)},
                            {"im", Value::makeInt(32, -(1 << 30))}}),
         Value::makeStruct({{"re", Value::makeInt(32, 0)},
                            {"im", Value::makeInt(32, -1)}})});
    BitSink sink;
    v.packWords(sink);
    ASSERT_EQ(static_cast<int>(sink.bitCount()), t->flatWidth());
    std::vector<std::uint32_t> words = sink.takeWords();
    BitCursor cur(words.data(), words.size());
    Value u = t->unpackWords(cur);
    EXPECT_EQ(cur.bitPos(), static_cast<size_t>(t->flatWidth()));
    EXPECT_EQ(u, v);
}

TEST(Type, UnpackWordsExhaustionPanics)
{
    // One word holds 32 bits; a 33rd bit must panic, not read zeros.
    std::vector<std::uint32_t> words{0xffffffffu};
    BitCursor cur(words.data(), words.size());
    (void)cur.take(30);
    EXPECT_THROW(Type::bits(8)->unpackWords(cur), PanicError);
}

TEST(Value, StructShapesAreInterned)
{
    Value a = Value::makeStruct({{"re", Value::makeBits(8, 1)},
                                 {"im", Value::makeBits(8, 2)}});
    Value b = Value::makeStruct({{"re", Value::makeBits(8, 3)},
                                 {"im", Value::makeBits(8, 4)}});
    Value c = Value::makeStruct({{"x", Value::makeBits(8, 3)}});
    EXPECT_EQ(a.shape(), b.shape());
    EXPECT_NE(a.shape(), c.shape());
    EXPECT_EQ(a.shape()->indexOf(internFieldName("im")), 1u);
    EXPECT_EQ(a.shape()->indexOf(internFieldName("nope")),
              StructShape::npos);
}

TEST(Value, CopyOnWriteSharesUntilUpdated)
{
    Value v = Value::makeVec({Value::makeBits(8, 1),
                              Value::makeBits(8, 2)});
    Value snapshot = v;  // O(1): shares the payload
    Value w = std::move(v).withElem(0, Value::makeBits(8, 7));
    // The snapshot still observes the original contents.
    EXPECT_EQ(snapshot.at(0).asUInt(), 1u);
    EXPECT_EQ(w.at(0).asUInt(), 7u);
    EXPECT_EQ(w.at(1).asUInt(), 2u);
}

TEST(Value, FlatWidthStaysConsistentAcrossUpdates)
{
    TypePtr cplx = Type::record(
        "Complex", {{"re", Type::bits(32)}, {"im", Type::bits(32)}});
    Value v = Type::vec(4, cplx)->zeroValue();
    EXPECT_EQ(v.flatWidth(), 4 * 64);
    Value w = v.withElem(
        2, Value::makeStruct({{"re", Value::makeInt(32, 1)},
                              {"im", Value::makeInt(32, 2)}}));
    EXPECT_EQ(w.flatWidth(), 4 * 64);
    EXPECT_EQ(v.flatWidth(), 4 * 64);
}

// ---------------------------------------------------------------------------
// Packed aggregates (Value::makePacked): the marshaled-words form a
// message keeps between compiled partitions.
// ---------------------------------------------------------------------------

TypePtr
complexType()
{
    return Type::record(
        "Complex", {{"re", Type::bits(32)}, {"im", Type::bits(32)}});
}

Value
complexValue(std::int64_t re, std::int64_t im)
{
    return Value::makeStruct({{"re", Value::makeInt(32, re)},
                              {"im", Value::makeInt(32, im)}});
}

std::vector<std::uint32_t>
wordsOf(const Value &v)
{
    BitSink sink;
    v.packWords(sink);
    return sink.takeWords();
}

TEST(PackedValue, EqualsBuiltValueInBothOrders)
{
    TypePtr t = Type::vec(3, complexType());
    Value built = Value::makeVec({complexValue(-5, 99),
                                  complexValue(1 << 20, -(1 << 30)),
                                  complexValue(0, -1)});
    Value packed = Value::makePacked(t, wordsOf(built));
    // Answered from the type, without unpacking.
    EXPECT_TRUE(packed.isVec());
    EXPECT_EQ(packed.flatWidth(), built.flatWidth());
    ASSERT_NE(packed.packedWords(), nullptr);
    EXPECT_EQ(*packed.packedWords(), wordsOf(built));
    EXPECT_EQ(built.packedWords(), nullptr);

    EXPECT_TRUE(packed == built);
    EXPECT_TRUE(built == packed);
    EXPECT_EQ(packed.str(), built.str());
    EXPECT_EQ(packed.size(), 3u);
    EXPECT_EQ(packed.at(1).fieldAt(1).asInt(), -(1 << 30));
    EXPECT_EQ(packed.at(2).field("im").asInt(), -1);
    EXPECT_NE(packed, Value::makePacked(t, wordsOf(built.withElem(
                          0, complexValue(-5, 98)))));

    Value s = complexValue(7, -8);
    Value ps = Value::makePacked(complexType(), wordsOf(s));
    EXPECT_TRUE(ps.isStruct());
    EXPECT_EQ(ps.shape(), s.shape());
    EXPECT_EQ(ps.fieldName(1), "im");
    EXPECT_EQ(ps, s);
    EXPECT_EQ(s, ps);
    EXPECT_EQ(ps.size(), 2u);
    EXPECT_EQ(ps.fieldAt(0).asInt(), 7);
    EXPECT_EQ(ps.tryFieldById(internFieldName("im"))->asInt(), -8);
    EXPECT_EQ(ps.str(), s.str());
}

TEST(PackedValue, UpdateOnCopyUnpacksAndDetaches)
{
    TypePtr t = Type::vec(2, Type::bits(8));
    Value packed = Value::makePacked(t, {0x0201u});
    Value copy = packed;
    Value w = copy.withElem(0, Value::makeBits(8, 7));
    EXPECT_EQ(w.at(0).asUInt(), 7u);
    EXPECT_EQ(w.at(1).asUInt(), 2u);
    EXPECT_EQ(w.packedWords(), nullptr);
    // The original and the copy keep reading the old contents, still
    // packed.
    EXPECT_EQ(packed.at(0).asUInt(), 1u);
    EXPECT_EQ(copy.at(0).asUInt(), 1u);
    ASSERT_NE(packed.packedWords(), nullptr);
    EXPECT_EQ(wordsOf(packed), std::vector<std::uint32_t>{0x0201u});
    EXPECT_EQ(wordsOf(w), std::vector<std::uint32_t>{0x0207u});

    // Uniquely owned: updated in place, and the stale words dropped.
    Value q = Value::makePacked(complexType(), {5u, 6u});
    Value r = std::move(q).withFieldAt(1, Value::makeInt(32, -1));
    EXPECT_EQ(r.packedWords(), nullptr);
    EXPECT_EQ(r, complexValue(5, -1));
    EXPECT_EQ(wordsOf(r), (std::vector<std::uint32_t>{5u, 0xffffffffu}));
}

TEST(PackedValue, OddWidthsRoundTripAndIgnorePadding)
{
    TypePtr v3 = Type::vec(3, Type::bits(5));  // 15 bits
    TypePtr bb = Type::record(
        "", {{"b", Type::boolean()}, {"x", Type::bits(33)}});  // 34 bits
    Value vb = Value::makeVec({Value::makeBits(5, 31),
                               Value::makeBits(5, 0),
                               Value::makeBits(5, 21)});
    Value sb = Value::makeStruct(
        {{"b", Value::makeBool(true)},
         {"x", Value::makeBits(33, 0x1'8000'0001ull)}});
    for (const auto &[type, built] :
         {std::pair{v3, vb}, std::pair{bb, sb}}) {
        std::vector<std::uint32_t> clean = wordsOf(built);
        ASSERT_EQ(clean.size(),
                  static_cast<size_t>((type->flatWidth() + 31) / 32));
        std::vector<std::uint32_t> dirty = clean;
        dirty.back() |= ~0u << (type->flatWidth() % 32);
        Value a = Value::makePacked(type, clean);
        Value b = Value::makePacked(type, dirty);
        EXPECT_EQ(a, b) << type->str();
        EXPECT_EQ(b, built) << type->str();
        EXPECT_EQ(built, b) << type->str();
        EXPECT_EQ(*b.packedWords(), clean) << type->str();
        EXPECT_EQ(wordsOf(b), clean) << type->str();
        BitSink sink;
        b.packWords(sink);
        EXPECT_EQ(sink.bitCount(),
                  static_cast<size_t>(type->flatWidth()));
        BitCursor cur(clean.data(), clean.size());
        EXPECT_EQ(type->unpackWords(cur), b) << type->str();
    }
    EXPECT_THROW(Value::makePacked(v3, {0u, 0u}), PanicError);
    EXPECT_THROW(Value::makePacked(Type::bits(8), {0u}), PanicError);
}

TEST(PackedValue, NestedPackedValuePacksAtUnalignedOffsets)
{
    TypePtr v3 = Type::vec(3, Type::bits(5));
    TypePtr bb = Type::record(
        "", {{"b", Type::boolean()}, {"x", Type::bits(33)}});
    Value vb = Value::makeVec({Value::makeBits(5, 17),
                               Value::makeBits(5, 9),
                               Value::makeBits(5, 30)});
    Value sb = Value::makeStruct(
        {{"b", Value::makeBool(true)},
         {"x", Value::makeBits(33, 0x1'dead'beefull)}});
    Value pv = Value::makePacked(v3, wordsOf(vb));
    Value ps = Value::makePacked(bb, wordsOf(sb));
    // 15-bit and 34-bit packed elements behind a 3-bit scalar: every
    // packed element starts off a word boundary.
    Value nested = Value::makeVec({Value::makeBits(3, 5), pv, ps, pv, ps});
    Value built = Value::makeVec({Value::makeBits(3, 5), vb, sb, vb, sb});
    EXPECT_EQ(nested.flatWidth(), 3 + 2 * (15 + 34));
    EXPECT_EQ(wordsOf(nested), wordsOf(built));
    EXPECT_EQ(nested, built);

    TypePtr outer = Type::vec(4, bb);
    Value po = Value::makePacked(outer, wordsOf(Value::makeVec(
                                            {ps, sb, ps, sb})));
    EXPECT_EQ(po.at(3).field("x").asUInt(), 0x1'dead'beefull);
    EXPECT_EQ(wordsOf(Value::makeVec({Value::makeBool(false), po})),
              wordsOf(Value::makeVec({Value::makeBool(false),
                                      Value::makeVec({sb, sb, sb, sb})})));
}

TEST(PackedValue, ConcurrentReadersShareOneUnpack)
{
    TypePtr t = Type::vec(16, complexType());
    std::vector<Value> elems;
    for (int i = 0; i < 16; i++)
        elems.push_back(complexValue(i, -i));
    Value built = Value::makeVec(elems);
    const Value shared = Value::makePacked(t, wordsOf(built));
    // Each reader gets its own copy of the payload's owner up front,
    // then all start together: no reference-count traffic orders one
    // reader's unpack before another's read, so only the unpack's own
    // synchronization keeps them apart (a race TSan reports).
    std::vector<Value> copies(4, shared);
    std::atomic<int> arrived{0};
    std::vector<std::string> seen(4);
    std::vector<std::int64_t> sums(4, 0);
    std::vector<std::thread> readers;
    for (int k = 0; k < 4; k++) {
        readers.emplace_back([&, k] {
            arrived.fetch_add(1);
            while (arrived.load() < 4)
                std::this_thread::yield();
            const Value &mine = copies[static_cast<size_t>(k)];
            std::int64_t sum = 0;
            for (size_t i = 0; i < mine.size(); i++)
                sum += mine.at(i).field("re").asInt() -
                       shared.at(i).fieldAt(1).asInt();
            sums[k] = sum;
            seen[k] = (mine == built ? "" : "mismatch ") + mine.str();
        });
    }
    for (std::thread &r : readers)
        r.join();
    for (int k = 0; k < 4; k++) {
        EXPECT_EQ(sums[k], 2 * (15 * 16 / 2)) << "reader " << k;
        EXPECT_EQ(seen[k], built.str()) << "reader " << k;
    }
}

} // namespace
} // namespace bcl
