// SAT-level semantics of the UPEC-SSC property macros: what
// Victim_Task_Executing permits and forbids, the symbolic victim range
// well-formedness, and the per-word exemption condition.
#include <gtest/gtest.h>

#include "upec/engine.h"

namespace upec {
namespace {

class Macros : public ::testing::Test {
protected:
  Macros()
      : soc_(soc::build_pulpissimo(small())),
        ctx_(soc_) {}

  static soc::SocConfig small() {
    soc::SocConfig cfg;
    cfg.pub_ram_words = 16;
    cfg.priv_ram_words = 8;
    return cfg;
  }

  // CPU interface images of both instances at frame 0.
  struct CpuPair {
    encode::Bits req_a, addr_a, we_a, wdata_a;
    encode::Bits req_b, addr_b, we_b, wdata_b;
  };
  CpuPair cpu_pair() {
    const rtlir::Design& d = *soc_.design;
    auto idx = [&](const char* name) -> std::uint32_t {
      for (std::uint32_t i = 0; i < d.inputs().size(); ++i) {
        if (d.net(d.inputs()[i].net).name == name) return i;
      }
      throw std::runtime_error("input?");
    };
    CpuPair p;
    p.req_a = ctx_.miter.inst_a().input_at(0, idx("soc.cpu.req"));
    p.addr_a = ctx_.miter.inst_a().input_at(0, idx("soc.cpu.addr"));
    p.we_a = ctx_.miter.inst_a().input_at(0, idx("soc.cpu.we"));
    p.wdata_a = ctx_.miter.inst_a().input_at(0, idx("soc.cpu.wdata"));
    p.req_b = ctx_.miter.inst_b().input_at(0, idx("soc.cpu.req"));
    p.addr_b = ctx_.miter.inst_b().input_at(0, idx("soc.cpu.addr"));
    p.we_b = ctx_.miter.inst_b().input_at(0, idx("soc.cpu.we"));
    p.wdata_b = ctx_.miter.inst_b().input_at(0, idx("soc.cpu.wdata"));
    return p;
  }

  void pin(const encode::Bits& image, std::uint64_t v, std::vector<encode::Lit>& as) {
    for (std::size_t i = 0; i < image.size(); ++i) {
      as.push_back((v >> i) & 1 ? image[i] : ~image[i]);
    }
  }

  // One query through the context's scheduler: true iff satisfiable.
  bool solve(const std::vector<encode::Lit>& as) {
    return ctx_.scheduler.check(as).status == ipc::CheckStatus::Violated;
  }

  soc::Soc soc_;
  UpecContext ctx_;
};

TEST_F(Macros, ProtectedAccessesMayDiffer) {
  // A accesses a private-RAM word, B idles: allowed when the victim range
  // covers that word.
  const CpuPair p = cpu_pair();
  std::vector<encode::Lit> as = ctx_.macros.assumptions(1);
  const std::uint32_t priv = soc_.map.region(soc::AddrMap::kPrivRam).base;
  pin(p.req_a, 1, as);
  pin(p.addr_a, priv + 4, as);
  pin(p.req_b, 0, as);
  EXPECT_TRUE(solve(as));
}

TEST_F(Macros, NonProtectedAccessesForcedEqual) {
  // A makes a peripheral access (never inside the victim range), B idles:
  // VTE must reject the pair.
  const CpuPair p = cpu_pair();
  std::vector<encode::Lit> as = ctx_.macros.assumptions(1);
  const std::uint32_t gpio = soc_.map.region(soc::AddrMap::kGpio).base;
  pin(p.req_a, 1, as);
  pin(p.addr_a, gpio, as);
  pin(p.req_b, 0, as);
  EXPECT_FALSE(solve(as));
}

TEST_F(Macros, NonProtectedPayloadForcedEqual) {
  // Both access the same non-protected address but with different data.
  const CpuPair p = cpu_pair();
  std::vector<encode::Lit> as = ctx_.macros.assumptions(1);
  const std::uint32_t gpio = soc_.map.region(soc::AddrMap::kGpio).base;
  pin(p.req_a, 1, as);
  pin(p.addr_a, gpio, as);
  pin(p.we_a, 1, as);
  pin(p.wdata_a, 0x1111, as);
  pin(p.req_b, 1, as);
  pin(p.addr_b, gpio, as);
  pin(p.we_b, 1, as);
  pin(p.wdata_b, 0x2222, as);
  EXPECT_FALSE(solve(as));
}

TEST_F(Macros, EqualNonProtectedTrafficAccepted) {
  const CpuPair p = cpu_pair();
  std::vector<encode::Lit> as = ctx_.macros.assumptions(1);
  const std::uint32_t gpio = soc_.map.region(soc::AddrMap::kGpio).base;
  for (auto* image : {&p.req_a, &p.req_b}) pin(*image, 1, as);
  for (auto* image : {&p.addr_a, &p.addr_b}) pin(*image, gpio, as);
  for (auto* image : {&p.we_a, &p.we_b}) pin(*image, 1, as);
  for (auto* image : {&p.wdata_a, &p.wdata_b}) pin(*image, 0x77, as);
  EXPECT_TRUE(solve(as));
}

TEST_F(Macros, VictimRangeConfinedToAllowedRegions) {
  // The symbolic range cannot start in a peripheral block.
  std::vector<encode::Lit> as = ctx_.macros.assumptions(1);
  const std::uint32_t timer = soc_.map.region(soc::AddrMap::kTimer).base;
  pin(ctx_.macros.victim_lo(), timer, as);
  EXPECT_FALSE(solve(as));
}

TEST_F(Macros, VictimRangeMustBeOrdered) {
  std::vector<encode::Lit> as = ctx_.macros.assumptions(1);
  const std::uint32_t pub = soc_.map.region(soc::AddrMap::kPubRam).base;
  pin(ctx_.macros.victim_lo(), pub + 8, as);
  pin(ctx_.macros.victim_hi(), pub + 4, as); // hi < lo
  EXPECT_FALSE(solve(as));
}

TEST_F(Macros, VictimRangeCannotSpanRegions) {
  std::vector<encode::Lit> as = ctx_.macros.assumptions(1);
  const std::uint32_t priv = soc_.map.region(soc::AddrMap::kPrivRam).base;
  const std::uint32_t pub = soc_.map.region(soc::AddrMap::kPubRam).base;
  pin(ctx_.macros.victim_lo(), priv, as);
  pin(ctx_.macros.victim_hi(), pub + 4, as);
  EXPECT_FALSE(solve(as));
}

TEST_F(Macros, ExemptionCoversExactlyTheRange) {
  // Pin the range to the first two private words; word 0 must be exemptable,
  // word 4 must not.
  const std::uint32_t priv = soc_.map.region(soc::AddrMap::kPrivRam).base;
  const rtlir::StateVarId w0 = rtlir::StateVarTable(*soc_.design).of_mem_word(
      soc_.priv_ram_mem, 0);
  const rtlir::StateVarId w4 = rtlir::StateVarTable(*soc_.design).of_mem_word(
      soc_.priv_ram_mem, 4);
  const encode::Lit ex0 = ctx_.miter.exempt_lit(w0);
  const encode::Lit ex4 = ctx_.miter.exempt_lit(w4);

  std::vector<encode::Lit> as = ctx_.macros.assumptions(1);
  pin(ctx_.macros.victim_lo(), priv, as);
  pin(ctx_.macros.victim_hi(), priv + 7, as);
  auto with = [&](encode::Lit extra) {
    std::vector<encode::Lit> v = as;
    v.push_back(extra);
    return v;
  };
  EXPECT_TRUE(solve(with(ex0))) << "word 0 is inside the range";
  EXPECT_FALSE(solve(with(~ex0))) << "word 0 cannot be non-exempt";
  EXPECT_FALSE(solve(with(ex4))) << "word 4 is outside the range";
}

TEST_F(Macros, RegistersAreNeverExempt) {
  const rtlir::StateVarTable svt(*soc_.design);
  const auto reg = static_cast<std::uint32_t>(soc_.design->find_register("soc.hwpe.progress_q"));
  const encode::Lit ex = ctx_.miter.exempt_lit(svt.of_register(reg));
  EXPECT_TRUE(ctx_.miter.cnf().is_false(ex));
}

TEST_F(Macros, PostVictimFramesForceEqualInterfaces) {
  // Frame 2 is outside the "during t..t+1" victim window: requests must be
  // identical across instances.
  const rtlir::Design& d = *soc_.design;
  std::uint32_t in_req = 0;
  for (std::uint32_t i = 0; i < d.inputs().size(); ++i) {
    if (d.net(d.inputs()[i].net).name == "soc.cpu.req") in_req = i;
  }
  std::vector<encode::Lit> as = ctx_.macros.assumptions(3);
  pin(ctx_.miter.inst_a().input_at(2, in_req), 1, as);
  pin(ctx_.miter.inst_b().input_at(2, in_req), 0, as);
  EXPECT_FALSE(solve(as));
}

} // namespace
} // namespace upec
