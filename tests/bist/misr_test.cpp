#include "bist/misr.h"

#include <gtest/gtest.h>

#include "circuits/registry.h"
#include "util/rng.h"

namespace fbist::bist {
namespace {

TEST(Misr, ConstructionValidated) {
  EXPECT_THROW(Misr(0), std::invalid_argument);
  EXPECT_THROW(Misr(4, {9}), std::invalid_argument);
  Misr ok(8);
  EXPECT_FALSE(ok.taps().empty());
}

TEST(Misr, StepWidthChecked) {
  Misr m(8);
  EXPECT_THROW(m.step(util::WideWord(4), util::WideWord(8)),
               std::invalid_argument);
}

TEST(Misr, EmptyStreamGivesZeroSignature) {
  Misr m(8);
  EXPECT_TRUE(m.signature({}).is_zero());
}

TEST(Misr, SignatureDeterministic) {
  Misr m(16);
  util::Rng rng(3);
  std::vector<util::WideWord> stream;
  for (int i = 0; i < 50; ++i) stream.push_back(util::WideWord::random(16, rng));
  EXPECT_EQ(m.signature(stream), m.signature(stream));
}

TEST(Misr, SignatureIsLinearOverGf2) {
  // With a zero seed, sig(x ⊕ y) == sig(x) ⊕ sig(y) stream-wise.
  Misr m(12);
  util::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<util::WideWord> x, y, xy;
    const int len = 20;
    for (int i = 0; i < len; ++i) {
      x.push_back(util::WideWord::random(12, rng));
      y.push_back(util::WideWord::random(12, rng));
      util::WideWord z = x.back();
      z.bxor(y.back());
      xy.push_back(z);
    }
    util::WideWord expect = m.signature(x);
    expect.bxor(m.signature(y));
    EXPECT_EQ(m.signature(xy), expect) << "trial " << trial;
  }
}

TEST(Misr, SingleBitResponseChangePerturbsSignature) {
  // Flipping the last response word always changes the signature (no
  // later cycles to alias it away).
  Misr m(10);
  util::Rng rng(11);
  std::vector<util::WideWord> stream;
  for (int i = 0; i < 30; ++i) stream.push_back(util::WideWord::random(10, rng));
  const auto base = m.signature(stream);
  stream.back().set_bit(3, !stream.back().get_bit(3));
  EXPECT_NE(m.signature(stream), base);
}

TEST(GoldenSignature, MatchesManualComposition) {
  const auto nl = circuits::make_c17();
  util::Rng rng(5);
  const auto ps = sim::PatternSet::random(5, 20, rng);
  const Misr misr(nl.num_outputs());
  const auto resp = golden_responses(nl, ps);
  ASSERT_EQ(resp.size(), 20u);
  EXPECT_EQ(golden_signature(nl, ps, misr), misr.signature(resp));
}

TEST(Misr, NarrowResponseZeroExtended) {
  Misr m(8);
  const util::WideWord state(8, 0);
  const util::WideWord resp(3, 0b101);
  const auto next = m.step(state, resp);
  EXPECT_EQ(next, util::WideWord(8, 0b101));
  // Response wider than the register is rejected.
  EXPECT_THROW(m.step(state, util::WideWord(9)), std::invalid_argument);
}

}  // namespace
}  // namespace fbist::bist
