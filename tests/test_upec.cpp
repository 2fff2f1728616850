// The headline results of the paper, as executable checks:
//  (1) UPEC-SSC on the baseline SoC finds the timer-free BUSted variant —
//      victim-dependent differences reach persistent, attacker-accessible
//      HWPE/memory state (Sec 4.1),
//  (2) the unrolled procedure needs k=2 to expose the HWPE delay explicitly,
//  (3) with the Sec 4.2 countermeasure (victim range in the private memory
//      device + DMA firmware constraints) the SoC is proven secure, in the
//      same three-iteration shape the paper reports,
//  (4) the firmware-constraint invariants are themselves inductive.
#include <gtest/gtest.h>

#include <memory>

#include "ipc/invariant.h"
#include "upec/report.h"

namespace upec {
namespace {

soc::Soc small_soc() {
  soc::SocConfig cfg;
  cfg.pub_ram_words = 16;
  cfg.priv_ram_words = 8;
  return soc::build_pulpissimo(cfg);
}

// S_pers restriction reproducing exactly the Sec 4.1 scenario: accelerator +
// memory device (no timer, no DMA status involved).
VerifyOptions hwpe_scenario_options(const soc::Soc& soc) {
  VerifyOptions options;
  auto svt = std::make_shared<rtlir::StateVarTable>(*soc.design);
  options.s_pers_filter = [svt](rtlir::StateVarId sv) {
    const std::string name = svt->name(sv);
    return name.find(".hwpe.") != std::string::npos ||
           name.find("pub_ram.mem[") != std::string::npos;
  };
  return options;
}

TEST(UpecSsc, BaselineSocIsVulnerable) {
  const soc::Soc soc = small_soc();
  UpecContext ctx(soc);
  const Alg1Result result = run_alg1(ctx);
  ASSERT_EQ(result.verdict, Verdict::Vulnerable) << render_report(ctx, result);
  EXPECT_FALSE(result.persistent_hits.empty());
  // Every reported hit must be persistent + attacker-accessible per Def. 2.
  for (rtlir::StateVarId sv : result.persistent_hits) {
    EXPECT_TRUE(ctx.pers.in_s_pers(sv)) << ctx.svt.name(sv);
  }
}

TEST(UpecSsc, VulnerabilityNamesHwpeOrMemoryState) {
  const soc::Soc soc = small_soc();
  UpecContext ctx(soc, hwpe_scenario_options(soc));
  const Alg1Result result = run_alg1(ctx);
  ASSERT_EQ(result.verdict, Verdict::Vulnerable) << render_report(ctx, result);
  for (rtlir::StateVarId sv : result.persistent_hits) {
    const std::string name = ctx.svt.name(sv);
    EXPECT_TRUE(name.find(".hwpe.") != std::string::npos ||
                name.find("pub_ram.mem[") != std::string::npos)
        << name;
  }
  // The HWPE leak needs one propagation step through the staged interconnect:
  // iteration 1 removes only transient state, the hit lands in iteration 2.
  ASSERT_GE(result.iterations.size(), 2u);
  EXPECT_EQ(result.iterations.front().pers_hits, 0u);
}

TEST(UpecSsc, UnrolledDetectsAtK2WithExplicitTrace) {
  const soc::Soc soc = small_soc();
  UpecContext ctx(soc, hwpe_scenario_options(soc));
  const Alg2Result result = run_alg2(ctx);
  ASSERT_EQ(result.verdict, Verdict::Vulnerable) << render_report(ctx, result);
  // "We unrolled for 2 clock cycles to observe the delay of the HWPE memory
  // access" — at k=1 only transient interconnect state can differ.
  EXPECT_EQ(result.final_k, 2u);
  ASSERT_TRUE(result.waveform.has_value());
  // The explicit counterexample shows at least one diverging signal.
  bool diverges = false;
  for (const auto& sig : result.waveform->signals) diverges |= sig.diverges();
  EXPECT_TRUE(diverges);
}

TEST(UpecSsc, CountermeasureProvesSecure) {
  const soc::Soc soc = small_soc();
  UpecContext ctx(soc, countermeasure_options());
  const Alg1Result result = run_alg1(ctx);
  ASSERT_EQ(result.verdict, Verdict::Secure) << render_report(ctx, result);
  // Paper (Sec 4.2): "After 3 iterations, the procedure proved the system to
  // be secure."
  EXPECT_EQ(result.iterations.size(), 3u);
  // The final set is inductive and still contains all of S_pers.
  for (rtlir::StateVarId sv : ctx.s_pers.to_vector()) {
    EXPECT_TRUE(result.final_s.contains(sv)) << ctx.svt.name(sv);
  }
}

TEST(UpecSsc, CountermeasureSecureUnderUnrolling) {
  const soc::Soc soc = small_soc();
  UpecContext ctx(soc, countermeasure_options());
  const Alg2Result result = run_alg2(ctx);
  EXPECT_EQ(result.verdict, Verdict::Secure) << render_report(ctx, result);
  ASSERT_TRUE(result.induction.has_value());
  EXPECT_EQ(result.induction->verdict, Verdict::Secure);
}

TEST(UpecSsc, CountermeasureSecureUnderUnrollingWithWorkers) {
  // The same proof on two scheduler workers. Every unrolling step grows the
  // store, so the workers move to a new simplified generation each time and
  // carry their learnt clauses across the switch.
  soc::SocConfig cfg;
  cfg.pub_ram_words = 2;
  cfg.priv_ram_words = 2;
  const soc::Soc soc = soc::build_pulpissimo(cfg);
  VerifyOptions options = countermeasure_options();
  options.threads = 2;
  UpecContext ctx(soc, options);
  const Alg2Result result = run_alg2(ctx);
  ASSERT_EQ(result.verdict, Verdict::Secure) << render_report(ctx, result);
  EXPECT_EQ(result.final_k, 3u);
  ASSERT_TRUE(result.induction.has_value());
  EXPECT_EQ(result.induction->verdict, Verdict::Secure);
  EXPECT_GE(result.metrics.get("sat.simplify.runs"), 3u);
  EXPECT_EQ(result.metrics.get("sat.simplify.frozen_eliminations"), 0u);
  EXPECT_GT(result.metrics.get("sat.solver.total.carried_learnts"), 0u);
}

TEST(UpecSsc, HardwareGuardAlsoSecure) {
  // Ablation: the hardware clamp (DMA physically cut off the private xbar)
  // must be as secure as the firmware-constraint variant.
  soc::SocConfig cfg;
  cfg.pub_ram_words = 16;
  cfg.priv_ram_words = 8;
  cfg.hw_private_guard = true;
  const soc::Soc soc = soc::build_pulpissimo(cfg);
  UpecContext ctx(soc, countermeasure_options());
  const Alg1Result result = run_alg1(ctx);
  EXPECT_EQ(result.verdict, Verdict::Secure) << render_report(ctx, result);
}

TEST(UpecSsc, VictimRangeInPublicRamDefeatsCountermeasure) {
  // Negative control: firmware constraints alone do not help if the
  // security-critical region stays in the public RAM.
  const soc::Soc soc = small_soc();
  VerifyOptions options = countermeasure_options();
  options.macros.victim_regions = {soc::AddrMap::kPubRam};
  UpecContext ctx(soc, options);
  const Alg1Result result = run_alg1(ctx);
  EXPECT_EQ(result.verdict, Verdict::Vulnerable);
}

// The derived invariant used by the countermeasure proof must itself be
// inductive: legal DMA configurations keep the DMA off the private crossbar,
// hence the private response routing never points at it (Sec 3.4's
// "invariants are straightforward to formulate").
TEST(UpecSsc, FirmwareConstraintInvariantIsInductive) {
  const soc::Soc soc = small_soc();
  const rtlir::Design& d = *soc.design;
  rtlir::StateVarTable svt(d);

  const soc::Region& pub = soc.map.region(soc::AddrMap::kPubRam);
  const soc::Region& dma_region = soc.map.region(soc::AddrMap::kDma);
  const auto src_reg = static_cast<std::uint32_t>(d.find_register("soc.dma.src_q"));
  const auto dst_reg = static_cast<std::uint32_t>(d.find_register("soc.dma.dst_q"));
  const auto rsel1 = static_cast<std::uint32_t>(d.find_register("soc.xbar_priv.s0.rsel_master_q"));
  const auto rsel2 =
      static_cast<std::uint32_t>(d.find_register("soc.xbar_priv.s0.rsel_master_q2"));
  const auto cfg_req = static_cast<std::uint32_t>(d.find_register("soc.xbar_pub.s3.sreq_q"));
  const auto cfg_addr = static_cast<std::uint32_t>(d.find_register("soc.xbar_pub.s3.saddr_q"));
  const auto cfg_we = static_cast<std::uint32_t>(d.find_register("soc.xbar_pub.s3.swe_q"));
  const auto cfg_wdata = static_cast<std::uint32_t>(d.find_register("soc.xbar_pub.s3.swdata_q"));

  std::uint32_t in_req = 0, in_addr = 0, in_we = 0, in_wdata = 0;
  for (std::uint32_t i = 0; i < d.inputs().size(); ++i) {
    const std::string& n = d.net(d.inputs()[i].net).name;
    if (n == "soc.cpu.req") in_req = i;
    if (n == "soc.cpu.addr") in_addr = i;
    if (n == "soc.cpu.we") in_we = i;
    if (n == "soc.cpu.wdata") in_wdata = i;
  }

  const soc::Region& priv = soc.map.region(soc::AddrMap::kPrivRam);
  const std::uint32_t safe_low = priv.base - (0x10000u << 2);

  ipc::Invariant inv;
  inv.name = "dma-legal-config-and-private-rsel";
  inv.build = [&](encode::CnfBuilder& cnf, encode::UnrolledInstance& inst,
                  unsigned frame) -> encode::Lit {
    // Same legality predicate the countermeasure assumptions use: the pointer
    // can never generate an address inside the private RAM.
    auto legal_dma_ptr = [&](const encode::Bits& v) {
      const encode::Lit below = cnf.v_ult(v, cnf.constant_vec(BitVec(32, safe_low)));
      const encode::Lit ge = ~cnf.v_ult(v, cnf.constant_vec(BitVec(32, pub.base)));
      const encode::Lit lt = cnf.v_ult(v, cnf.constant_vec(BitVec(32, pub.end())));
      return cnf.or2(below, cnf.and2(ge, lt));
    };
    // State part: legal config, in-flight (staged) config writes legal, and
    // routing never points at the DMA. The staged predicate matches the
    // peripheral's actual decode (offset bits only — the slave does not
    // re-check the region).
    const encode::Bits sreq = inst.reg_at(frame, cfg_req);
    const encode::Bits saddr = inst.reg_at(frame, cfg_addr);
    const encode::Bits swe = inst.reg_at(frame, cfg_we);
    const encode::Bits swdata = inst.reg_at(frame, cfg_wdata);
    const encode::Bits soff = cnf.v_slice(saddr, 2, 4);
    const encode::Lit s_off01 =
        cnf.or2(cnf.v_eq(soff, cnf.constant_vec(BitVec(4, 0))),
                cnf.v_eq(soff, cnf.constant_vec(BitVec(4, 1))));
    const encode::Lit staged_write = cnf.and_all({sreq[0], swe[0], s_off01});
    const encode::Lit staged_legal = cnf.or2(~staged_write, legal_dma_ptr(swdata));
    return cnf.and_all(
        {legal_dma_ptr(inst.reg_at(frame, src_reg)), legal_dma_ptr(inst.reg_at(frame, dst_reg)),
         staged_legal, ~inst.reg_at(frame, rsel1)[0], ~inst.reg_at(frame, rsel2)[0]});
  };
  // Environment constraint (firmware legality of configuration writes): the
  // CPU never stores an illegal pointer into the DMA SRC/DST registers. This
  // conditions the step proof; it is a firmware-development obligation, not a
  // hardware property.
  inv.constrain = [&](encode::CnfBuilder& cnf, encode::UnrolledInstance& inst,
                      unsigned frame) -> encode::Lit {
    auto legal_dma_ptr = [&](const encode::Bits& v) {
      const encode::Lit below = cnf.v_ult(v, cnf.constant_vec(BitVec(32, safe_low)));
      const encode::Lit ge = ~cnf.v_ult(v, cnf.constant_vec(BitVec(32, pub.base)));
      const encode::Lit lt = cnf.v_ult(v, cnf.constant_vec(BitVec(32, pub.end())));
      return cnf.or2(below, cnf.and2(ge, lt));
    };
    const encode::Bits req = inst.input_at(frame, in_req);
    const encode::Bits addr = inst.input_at(frame, in_addr);
    const encode::Bits we = inst.input_at(frame, in_we);
    const encode::Bits wdata = inst.input_at(frame, in_wdata);
    const encode::Lit in_region =
        cnf.and2(~cnf.v_ult(addr, cnf.constant_vec(BitVec(32, dma_region.base))),
                 cnf.v_ult(addr, cnf.constant_vec(BitVec(32, dma_region.end()))));
    const encode::Bits off = cnf.v_slice(addr, 2, 4);
    const encode::Lit off01 = cnf.or2(cnf.v_eq(off, cnf.constant_vec(BitVec(4, 0))),
                                      cnf.v_eq(off, cnf.constant_vec(BitVec(4, 1))));
    const encode::Lit cfg_write = cnf.and_all({req[0], we[0], in_region, off01});
    return cnf.or2(~cfg_write, legal_dma_ptr(wdata));
  };

  EXPECT_EQ(ipc::check_inductive(d, svt, inv), "");
}

TEST(UpecSsc, PersistenceClassificationShape) {
  const soc::Soc soc = small_soc();
  UpecContext ctx(soc);
  // Spot-check the Def. 2 classification.
  auto classify = [&](const std::string& name) {
    for (rtlir::StateVarId sv = 0; sv < ctx.svt.size(); ++sv) {
      if (ctx.svt.name(sv) == name) return ctx.pers.classify(sv);
    }
    ADD_FAILURE() << "no such state var: " << name;
    return Persistence::Unknown;
  };
  EXPECT_EQ(classify("soc.hwpe.progress_q"), Persistence::PersistentAccessible);
  EXPECT_EQ(classify("soc.timer.count_q"), Persistence::PersistentAccessible);
  EXPECT_EQ(classify("soc.pub_ram.mem[0]"), Persistence::PersistentAccessible);
  EXPECT_EQ(classify("soc.priv_ram.mem[0]"), Persistence::PersistentInaccessible);
  EXPECT_EQ(classify("soc.xbar_pub.s0.saddr_q"), Persistence::Transient);
  EXPECT_EQ(classify("soc.pub_ram.rdata_q"), Persistence::Transient);
  EXPECT_EQ(classify("soc.hwpe.stream_stage_q"), Persistence::Transient);
  EXPECT_EQ(classify("soc.dma.rlatch_q"), Persistence::Unknown);
}


TEST(UpecSsc, TransienceAuditSeparatesTrivialFromConditional) {
  const soc::Soc soc = small_soc();
  UpecContext ctx(soc);
  const TransienceAudit audit = audit_transients(ctx.svt, ctx.pers);
  auto names = [&](const std::vector<rtlir::StateVarId>& ids) {
    std::string out;
    for (auto id : ids) out += ctx.svt.name(id) + ";";
    return out;
  };
  const std::string trivial = names(audit.trivially_transient);
  const std::string conditional = names(audit.conditionally_written);
  // Request-valid latches and pulse registers are rewritten every cycle.
  EXPECT_NE(trivial.find("xbar_pub.s0.sreq_q"), std::string::npos) << trivial;
  EXPECT_NE(trivial.find("hwpe.stream_stage_q"), std::string::npos) << trivial;
  EXPECT_NE(trivial.find("dma.done_q"), std::string::npos) << trivial;
  // Payload latches hold their value while idle: flagged for justification
  // (they are inert whenever their trivially-transient valid bit is low).
  EXPECT_NE(conditional.find("xbar_pub.s0.saddr_q"), std::string::npos) << conditional;
  EXPECT_NE(conditional.find("pub_ram.rdata_q"), std::string::npos) << conditional;
}

} // namespace
} // namespace upec
