// Functional verification of the datapath generators: every block is
// built as a tiny combinational design and simulated exhaustively (or on
// dense sweeps) against a software reference model.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "netlist/builder.hpp"
#include "netlist/generators.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace vipvt {
namespace {

/// Combinational testbench harness: builds a design with input buses and
/// evaluates output buses through the logic simulator.
class CombTb {
 public:
  CombTb() : design_("tb", lib_), builder_(design_) {}

  NetlistBuilder& b() { return builder_; }
  Design& design() { return design_; }

  Bus in(const std::string& name, int width) {
    return builder_.input_bus(name, width);
  }

  void finish(const Bus& out) {
    builder_.output(out);
    design_.check();
    sim_ = std::make_unique<LogicSimulator>(design_);
  }

  void set(const Bus& bus, std::uint64_t value) {
    for (std::size_t i = 0; i < bus.size(); ++i) {
      sim_->set_input(bus[i], (value >> i) & 1);
    }
  }

  std::uint64_t eval(const Bus& out) {
    sim_->step();
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      v |= static_cast<std::uint64_t>(sim_->value(out[i])) << i;
    }
    return v;
  }

 private:
  Library lib_ = make_st65lp_like();
  Design design_;
  NetlistBuilder builder_;
  std::unique_ptr<LogicSimulator> sim_;
};

TEST(RippleAdder, Exhaustive4Bit) {
  CombTb tb;
  Bus a = tb.in("a", 4), b = tb.in("b", 4);
  const NetId cin = tb.b().input("cin");
  auto add = ripple_adder(tb.b(), a, b, cin);
  Bus out = add.sum;
  out.push_back(add.cout);
  tb.finish(out);
  for (std::uint64_t x = 0; x < 16; ++x) {
    for (std::uint64_t y = 0; y < 16; ++y) {
      for (std::uint64_t c = 0; c < 2; ++c) {
        tb.set(a, x);
        tb.set(b, y);
        tb.set({cin}, c);
        EXPECT_EQ(tb.eval(out), x + y + c) << x << "+" << y << "+" << c;
      }
    }
  }
}

TEST(ClaAdder, Exhaustive5BitCrossGroup) {
  CombTb tb;  // 5 bits spans a 4-bit group boundary
  Bus a = tb.in("a", 5), b = tb.in("b", 5);
  const NetId cin = tb.b().input("cin");
  auto add = cla_adder(tb.b(), a, b, cin);
  Bus out = add.sum;
  out.push_back(add.cout);
  tb.finish(out);
  for (std::uint64_t x = 0; x < 32; ++x) {
    for (std::uint64_t y = 0; y < 32; ++y) {
      tb.set(a, x);
      tb.set(b, y);
      tb.set({cin}, (x ^ y) & 1);
      EXPECT_EQ(tb.eval(out), x + y + ((x ^ y) & 1));
    }
  }
}

TEST(ClaAdder, Random16Bit) {
  CombTb tb;
  Bus a = tb.in("a", 16), b = tb.in("b", 16);
  auto add = cla_adder(tb.b(), a, b, tb.b().const0());
  Bus out = add.sum;
  out.push_back(add.cout);
  tb.finish(out);
  Rng rng(21);
  for (int k = 0; k < 400; ++k) {
    const std::uint64_t x = rng.below(1u << 16);
    const std::uint64_t y = rng.below(1u << 16);
    tb.set(a, x);
    tb.set(b, y);
    EXPECT_EQ(tb.eval(out), x + y);
  }
}

TEST(Subtractor, DiffAndBorrow) {
  CombTb tb;
  Bus a = tb.in("a", 6), b = tb.in("b", 6);
  auto sub = subtractor(tb.b(), a, b);
  Bus out = sub.diff;
  out.push_back(sub.no_borrow);
  tb.finish(out);
  for (std::uint64_t x = 0; x < 64; x += 3) {
    for (std::uint64_t y = 0; y < 64; y += 5) {
      tb.set(a, x);
      tb.set(b, y);
      const std::uint64_t got = tb.eval(out);
      EXPECT_EQ(got & 63u, (x - y) & 63u);
      EXPECT_EQ((got >> 6) & 1u, x >= y ? 1u : 0u);  // no-borrow == a>=b
    }
  }
}

TEST(Comparators, EqualLessZero) {
  CombTb tb;
  Bus a = tb.in("a", 5), b = tb.in("b", 5);
  const NetId eq = equal(tb.b(), a, b);
  const NetId lt = less_than(tb.b(), a, b);
  const NetId z = is_zero(tb.b(), a);
  Bus out = {eq, lt, z};
  tb.finish(out);
  for (std::uint64_t x = 0; x < 32; ++x) {
    for (std::uint64_t y = 0; y < 32; ++y) {
      tb.set(a, x);
      tb.set(b, y);
      const std::uint64_t got = tb.eval(out);
      EXPECT_EQ(got & 1, x == y ? 1u : 0u);
      EXPECT_EQ((got >> 1) & 1, x < y ? 1u : 0u);
      EXPECT_EQ((got >> 2) & 1, x == 0 ? 1u : 0u);
    }
  }
}

TEST(BarrelShifter, LogicalBothDirections) {
  for (bool left : {false, true}) {
    CombTb tb;
    Bus a = tb.in("a", 8);
    Bus amt = tb.in("amt", 3);
    Bus out = barrel_shifter(tb.b(), a, amt, left);
    tb.finish(out);
    Rng rng(5);
    for (int k = 0; k < 200; ++k) {
      const std::uint64_t x = rng.below(256);
      const std::uint64_t s = rng.below(8);
      tb.set(a, x);
      tb.set(amt, s);
      const std::uint64_t want =
          left ? (x << s) & 0xffu : (x >> s);
      EXPECT_EQ(tb.eval(out), want) << "x=" << x << " s=" << s
                                    << " left=" << left;
    }
  }
}

TEST(BarrelShifter, ArithmeticRight) {
  CombTb tb;
  Bus a = tb.in("a", 8);
  Bus amt = tb.in("amt", 3);
  Bus out = barrel_shifter(tb.b(), a, amt, /*left=*/false, /*arith=*/true);
  tb.finish(out);
  for (std::uint64_t x : {0x80ull, 0xffull, 0x7full, 0x01ull, 0xa5ull}) {
    for (std::uint64_t s = 0; s < 8; ++s) {
      tb.set(a, x);
      tb.set(amt, s);
      const auto sx = static_cast<std::int8_t>(x);
      const auto want = static_cast<std::uint64_t>(
                            static_cast<std::uint8_t>(sx >> s));
      EXPECT_EQ(tb.eval(out), want) << "x=" << x << " s=" << s;
    }
  }
}

TEST(Multiplier, Exhaustive4x4) {
  CombTb tb;
  Bus a = tb.in("a", 4), b = tb.in("b", 4);
  Bus out = multiplier(tb.b(), a, b);
  ASSERT_EQ(out.size(), 8u);
  tb.finish(out);
  for (std::uint64_t x = 0; x < 16; ++x) {
    for (std::uint64_t y = 0; y < 16; ++y) {
      tb.set(a, x);
      tb.set(b, y);
      EXPECT_EQ(tb.eval(out), x * y) << x << "*" << y;
    }
  }
}

TEST(Multiplier, Random8x8) {
  CombTb tb;
  Bus a = tb.in("a", 8), b = tb.in("b", 8);
  Bus out = multiplier(tb.b(), a, b);
  tb.finish(out);
  Rng rng(17);
  for (int k = 0; k < 300; ++k) {
    const std::uint64_t x = rng.below(256);
    const std::uint64_t y = rng.below(256);
    tb.set(a, x);
    tb.set(b, y);
    EXPECT_EQ(tb.eval(out), x * y);
  }
}

TEST(CarrySaveSum, ManyRows) {
  CombTb tb;
  std::vector<Bus> rows;
  for (int r = 0; r < 5; ++r) {
    std::string name = "r";
    name += std::to_string(r);
    rows.push_back(tb.in(name, 6));
  }
  std::vector<Bus> rows_copy = rows;
  Bus out = carry_save_sum(tb.b(), rows_copy, 9);
  tb.finish(out);
  Rng rng(31);
  for (int k = 0; k < 200; ++k) {
    std::uint64_t want = 0;
    for (auto& row : rows) {
      const std::uint64_t v = rng.below(64);
      tb.set(row, v);
      want += v;
    }
    EXPECT_EQ(tb.eval(out), want & 0x1ffu);
  }
}

TEST(Decoder, OneHotExhaustive) {
  CombTb tb;
  Bus sel = tb.in("sel", 4);
  Bus out = decoder_onehot(tb.b(), sel);
  ASSERT_EQ(out.size(), 16u);
  tb.finish(out);
  for (std::uint64_t s = 0; s < 16; ++s) {
    tb.set(sel, s);
    EXPECT_EQ(tb.eval(out), 1ull << s);
  }
}

TEST(MuxTree, SelectsEachOption) {
  CombTb tb;
  std::vector<Bus> options;
  for (int i = 0; i < 6; ++i) {  // non-power-of-two option count
    std::string name = "o";
    name += std::to_string(i);
    options.push_back(tb.in(name, 4));
  }
  Bus sel = tb.in("sel", 3);
  Bus out = mux_tree(tb.b(), options, sel);
  tb.finish(out);
  for (std::uint64_t s = 0; s < 6; ++s) {
    for (std::size_t i = 0; i < options.size(); ++i) {
      tb.set(options[i], (i * 5 + 3) & 0xf);
    }
    tb.set(sel, s);
    EXPECT_EQ(tb.eval(out), (s * 5 + 3) & 0xf) << "s=" << s;
  }
}

TEST(Extend, SignAndZero) {
  CombTb tb;
  Bus a = tb.in("a", 4);
  Bus sx = extend(tb.b(), a, 8, /*sign=*/true);
  Bus zx = extend(tb.b(), a, 8, /*sign=*/false);
  Bus out = sx;
  out.insert(out.end(), zx.begin(), zx.end());
  tb.finish(out);
  tb.set(a, 0b1010);
  const std::uint64_t got = tb.eval(out);
  EXPECT_EQ(got & 0xff, 0b11111010u);
  EXPECT_EQ((got >> 8) & 0xff, 0b00001010u);
}

TEST(Generators, RejectDegenerateInputs) {
  CombTb tb;
  Bus a = tb.in("a", 4), b3 = tb.in("b", 3);
  EXPECT_THROW(ripple_adder(tb.b(), a, b3, tb.b().const0()),
               std::invalid_argument);
  EXPECT_THROW(cla_adder(tb.b(), a, b3, tb.b().const0()),
               std::invalid_argument);
  EXPECT_THROW(equal(tb.b(), a, b3), std::invalid_argument);
  EXPECT_THROW(multiplier(tb.b(), Bus{}, a), std::invalid_argument);
  EXPECT_THROW(mux_tree(tb.b(), {}, a), std::invalid_argument);
  std::vector<Bus> too_many(5, a);
  Bus sel1 = tb.in("s1", 2);
  EXPECT_THROW(mux_tree(tb.b(), too_many, sel1), std::invalid_argument);
}

}  // namespace
}  // namespace vipvt
