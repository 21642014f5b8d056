#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "util/cuckoo_hash.hpp"
#include "util/distance.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace msrp {
namespace {

// ---------------------------------------------------------------- distance

TEST(Distance, SatAddPropagatesInfinity) {
  EXPECT_EQ(sat_add(kInfDist, 0), kInfDist);
  EXPECT_EQ(sat_add(0, kInfDist), kInfDist);
  EXPECT_EQ(sat_add(kInfDist, kInfDist), kInfDist);
  EXPECT_EQ(sat_add(kInfDist, 1, 2), kInfDist);
}

TEST(Distance, SatAddClampsOverflow) {
  EXPECT_EQ(sat_add(kInfDist - 1, kInfDist - 1), kInfDist);
  EXPECT_EQ(sat_add(kInfDist - 1, 1), kInfDist);
}

TEST(Distance, SatAddFiniteValues) {
  EXPECT_EQ(sat_add(3, 4), 7u);
  EXPECT_EQ(sat_add(1, 2, 3), 6u);
  EXPECT_TRUE(is_finite(7));
  EXPECT_FALSE(is_finite(kInfDist));
}

// --------------------------------------------------------------------- fnv

// mix_u64 folds a value below 256 in one multiply; every value must still
// hash exactly as its eight little-endian bytes do, or every content digest
// and Determinism pin moves.
TEST(Fnv, MixU64IsTheByteWiseFoldOfItsLittleEndianBytes) {
  Rng rng(7);
  std::vector<std::uint64_t> values = {256, 257, 0xFFFF, kInfDist, ~std::uint64_t{0}};
  for (std::uint64_t v = 0; v < 256; ++v) values.push_back(v);
  for (int i = 0; i < 200; ++i) values.push_back(rng.next_u64() >> (i % 64));
  std::uint64_t h = fnv::kOffset;
  for (const std::uint64_t v : values) {
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    const std::uint64_t expect = fnv::mix_bytes(h, bytes, 8);
    ASSERT_EQ(fnv::mix_u64(h, v), expect) << "value " << v;
    h = expect;
  }
}

// --------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(13), 13u);
  }
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bernoulli(0.0));
    EXPECT_TRUE(rng.next_bernoulli(1.0));
    EXPECT_FALSE(rng.next_bernoulli(-0.5));
    EXPECT_TRUE(rng.next_bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.next_bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(9);
  const auto s = rng.sample_without_replacement(100, 20);
  EXPECT_EQ(s.size(), 20u);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  std::set<std::uint32_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (const auto v : s) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleFullPopulation) {
  Rng rng(9);
  const auto s = rng.sample_without_replacement(10, 10);
  EXPECT_EQ(s.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(s[i], i);
}

TEST(Rng, SampleTooManyThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(21);
  Rng c1 = parent.split();
  Rng c2 = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (c1.next_u64() == c2.next_u64());
  EXPECT_LT(same, 3);
}

// ------------------------------------------------------------- cuckoo hash

TEST(CuckooHash, PutFindBasic) {
  CuckooHash<int> h;
  EXPECT_TRUE(h.empty());
  h.put(1, 10);
  h.put(2, 20);
  ASSERT_NE(h.find(1), nullptr);
  EXPECT_EQ(*h.find(1), 10);
  ASSERT_NE(h.find(2), nullptr);
  EXPECT_EQ(*h.find(2), 20);
  EXPECT_EQ(h.find(3), nullptr);
  EXPECT_EQ(h.size(), 2u);
}

TEST(CuckooHash, OverwriteKeepsSingleCopy) {
  CuckooHash<int> h;
  h.put(7, 1);
  h.put(7, 2);
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(*h.find(7), 2);
}

TEST(CuckooHash, EraseAndReinsert) {
  CuckooHash<int> h;
  h.put(5, 50);
  EXPECT_TRUE(h.erase(5));
  EXPECT_FALSE(h.erase(5));
  EXPECT_EQ(h.find(5), nullptr);
  EXPECT_EQ(h.size(), 0u);
  h.put(5, 55);
  EXPECT_EQ(*h.find(5), 55);
}

TEST(CuckooHash, GetOrFallback) {
  CuckooHash<Dist> h;
  h.put(pack_key(1, 2, 3), 42);
  EXPECT_EQ(h.get_or(pack_key(1, 2, 3), kInfDist), 42u);
  EXPECT_EQ(h.get_or(pack_key(3, 2, 1), kInfDist), kInfDist);
}

TEST(CuckooHash, GrowsUnderLoad) {
  CuckooHash<std::uint64_t> h(4);
  for (std::uint64_t k = 0; k < 5000; ++k) h.put(k * 2654435761ULL, k);
  EXPECT_EQ(h.size(), 5000u);
  for (std::uint64_t k = 0; k < 5000; ++k) {
    ASSERT_NE(h.find(k * 2654435761ULL), nullptr);
    EXPECT_EQ(*h.find(k * 2654435761ULL), k);
  }
}

TEST(CuckooHash, MatchesUnorderedMapUnderRandomOps) {
  CuckooHash<std::uint32_t> h;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  Rng rng(77);
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t key = rng.next_below(500);
    switch (rng.next_below(3)) {
      case 0: {
        const auto val = static_cast<std::uint32_t>(rng.next_below(1000));
        h.put(key, val);
        ref[key] = val;
        break;
      }
      case 1: {
        EXPECT_EQ(h.erase(key), ref.erase(key) > 0);
        break;
      }
      default: {
        const auto it = ref.find(key);
        const auto* p = h.find(key);
        if (it == ref.end()) {
          EXPECT_EQ(p, nullptr);
        } else {
          ASSERT_NE(p, nullptr);
          EXPECT_EQ(*p, it->second);
        }
      }
    }
    EXPECT_EQ(h.size(), ref.size());
  }
}

TEST(CuckooHash, ForEachVisitsEverything) {
  CuckooHash<int> h;
  for (int k = 0; k < 100; ++k) h.put(k, k * k);
  std::set<std::uint64_t> keys;
  h.for_each([&](std::uint64_t k, int v) {
    keys.insert(k);
    EXPECT_EQ(v, static_cast<int>(k * k));
  });
  EXPECT_EQ(keys.size(), 100u);
}

TEST(CuckooHash, PackKeyIsInjectiveOnFields) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t a = 0; a < 8; ++a) {
    for (std::uint64_t b = 0; b < 8; ++b) {
      for (std::uint64_t c = 0; c < 8; ++c) {
        EXPECT_TRUE(seen.insert(pack_key(a, b, c)).second);
      }
    }
  }
}

// ------------------------------------------------------------------- timer

TEST(Timer, MeasuresElapsed) {
  Timer t;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GT(sink, 0.0);
  const double first = t.seconds();
  const double second = t.seconds();
  EXPECT_GE(first, 0.0);
  EXPECT_LE(first, second);  // monotonic, callable repeatedly
  EXPECT_NEAR(t.millis(), t.seconds() * 1e3, 1.0);
  t.reset();
  EXPECT_GE(t.seconds(), 0.0);
}

TEST(PhaseTimers, AccumulatesScopes) {
  PhaseTimers pt;
  { auto s = pt.scope("a"); }
  { auto s = pt.scope("a"); }
  { auto s = pt.scope("b"); }
  EXPECT_GE(pt.total("a"), 0.0);
  EXPECT_EQ(pt.totals().size(), 2u);
  EXPECT_EQ(pt.total("missing"), 0.0);
  pt.clear();
  EXPECT_TRUE(pt.totals().empty());
}

}  // namespace
}  // namespace msrp
