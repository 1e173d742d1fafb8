//===- cat.cpp - Tests for the cat DSL interpreter ---------------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parser/evaluator unit tests, plus the headline cross-validation: the
/// shipped .cat files must agree with the native C++ models on every
/// candidate execution of the figure catalogue (Fig. 38 is exactly our
/// Power model).
///
//===----------------------------------------------------------------------===//

#include "campaign/Merge.h"
#include "cat/CatAdapter.h"
#include "cat/CatModel.h"
#include "cat/CatParser.h"
#include "diy/Enumerate.h"
#include "herd/Simulator.h"
#include "litmus/Catalog.h"
#include "model/HwModel.h"
#include "model/Registry.h"
#include "sweep/SweepEngine.h"

#include <gtest/gtest.h>

using namespace cats;
using namespace cats::cat;

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(CatParser, ParsesFig38Skeleton) {
  auto File = parseCat(R"(
(* sc per location *) acyclic po-loc|rf|fr|co
let dp = addr|data
let rdw = po-loc & (fre;rfe)
let rec ii = ii0|ci|(ic;ci)|(ii;ii)
and ic = ic0|ii|cc|(ic;cc)|(ii;ic)
and ci = ci0|(ci;ii)|(cc;ci)
and cc = cc0|ci|(ci;ic)|(cc;cc)
let ii0 = dp
let ic0 = 0
let ci0 = ctrlisync
let cc0 = dp|po-loc|ctrl|(addr;po)
)",
                       "fig38");
  ASSERT_TRUE(static_cast<bool>(File)) << File.message();
  ASSERT_EQ(File->Statements.size(), 8u);
  EXPECT_EQ(File->Statements[0].Kind, StmtKind::Acyclic);
  EXPECT_EQ(File->Statements[3].Kind, StmtKind::LetRec);
  EXPECT_EQ(File->Statements[3].Bindings.size(), 4u);
}

TEST(CatParser, NestedComments) {
  auto File = parseCat("(* a (* nested *) comment *)\nlet x = po\n", "m");
  ASSERT_TRUE(static_cast<bool>(File)) << File.message();
  EXPECT_EQ(File->Statements.size(), 1u);
}

TEST(CatParser, UnterminatedCommentFails) {
  auto File = parseCat("(* oops\nlet x = po\n", "m");
  EXPECT_FALSE(static_cast<bool>(File));
}

TEST(CatParser, PostfixBindsTighterThanSeq) {
  auto File = parseCat("irreflexive fre;prop;hb* as obs\nlet prop = po\n"
                       "let hb = po\n",
                       "m");
  ASSERT_TRUE(static_cast<bool>(File)) << File.message();
  // fre;(prop;(hb*)): the check must be a Seq whose rightmost child is a
  // Star.
  const Expr &Check = *File->Statements[0].Check;
  EXPECT_EQ(Check.Kind, ExprKind::Seq);
  EXPECT_EQ(Check.Rhs->Kind, ExprKind::Star);
}

TEST(CatParser, PrecedenceUnionLoosest) {
  auto File = parseCat("let x = po-loc & fre;rfe | addr\n", "m");
  ASSERT_TRUE(static_cast<bool>(File)) << File.message();
  const Expr &Body = *File->Statements[0].Bindings[0].Body;
  // (po-loc & (fre;rfe)) | addr
  EXPECT_EQ(Body.Kind, ExprKind::Union);
  EXPECT_EQ(Body.Lhs->Kind, ExprKind::Inter);
  EXPECT_EQ(Body.Lhs->Rhs->Kind, ExprKind::Seq);
}

TEST(CatParser, AsLabels) {
  auto File = parseCat("acyclic po as my-check\n", "m");
  ASSERT_TRUE(static_cast<bool>(File)) << File.message();
  EXPECT_EQ(File->Statements[0].CheckName, "my-check");
}

TEST(CatParser, DirFilterParses) {
  auto File = parseCat("let ppo = RR(po)|RW(po)\n", "m");
  ASSERT_TRUE(static_cast<bool>(File)) << File.message();
  EXPECT_EQ(File->Statements[0].Bindings[0].Body->Kind, ExprKind::Union);
  EXPECT_EQ(File->Statements[0].Bindings[0].Body->Lhs->Kind,
            ExprKind::DirFilter);
}

TEST(CatParser, RejectsGarbage) {
  EXPECT_FALSE(static_cast<bool>(parseCat("let = po\n", "m")));
  EXPECT_FALSE(static_cast<bool>(parseCat("let x po\n", "m")));
  EXPECT_FALSE(static_cast<bool>(parseCat("acyclic (po\n", "m")));
  EXPECT_FALSE(static_cast<bool>(parseCat("frob po\n", "m")));
}

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

TEST(CatValidate, UnknownNameRejected) {
  auto M = CatModel::fromSource("let x = nonsense\n", "m");
  EXPECT_FALSE(static_cast<bool>(M));
  EXPECT_NE(M.message().find("nonsense"), std::string::npos);
}

TEST(CatValidate, RecGroupMembersVisible) {
  auto M = CatModel::fromSource(
      "let rec a = b|po\nand b = a|rf\nacyclic a\n", "m");
  EXPECT_TRUE(static_cast<bool>(M)) << M.message();
}

TEST(CatValidate, ForwardReferenceOutsideRecRejected) {
  auto M = CatModel::fromSource("let a = b\nlet b = po\n", "m");
  EXPECT_FALSE(static_cast<bool>(M));
}

//===----------------------------------------------------------------------===//
// Hostile nesting: an error naming the line, never a stack overflow.
//===----------------------------------------------------------------------===//

namespace {

void expectTooDeep(const std::string &Expr) {
  auto M = CatModel::fromSource("let x = po\nacyclic " + Expr + "\n", "deep");
  ASSERT_FALSE(static_cast<bool>(M));
  EXPECT_NE(M.message().find(
                "at line 2: expression nested deeper than 256 levels"),
            std::string::npos)
      << M.message();
}

std::string repeat(const std::string &Piece, size_t Count) {
  std::string Out;
  Out.reserve(Piece.size() * Count);
  for (size_t I = 0; I < Count; ++I)
    Out += Piece;
  return Out;
}

} // namespace

TEST(CatDepth, DeepParenthesesRejected) {
  expectTooDeep(repeat("(", 10000) + "po" + repeat(")", 10000));
}

TEST(CatDepth, LongUnionChainRejected) {
  expectTooDeep("po" + repeat("|po", 100000));
}

TEST(CatDepth, LongPostfixChainRejected) {
  expectTooDeep("po" + repeat("+", 100000));
}

TEST(CatDepth, ExpressionsAtTheBoundParse) {
  // 255 parentheses inside the statement's own level; a 256-term chain is
  // a tree of height 256.
  for (const std::string &Expr :
       {repeat("(", 255) + "po" + repeat(")", 255),
        "po" + repeat("|po", 255), "po" + repeat("+", 255)}) {
    auto M = CatModel::fromSource("acyclic " + Expr + "\n", "edge");
    EXPECT_TRUE(static_cast<bool>(M)) << M.message();
  }
  expectTooDeep(repeat("(", 256) + "po" + repeat(")", 256));
  expectTooDeep("po" + repeat("|po", 256));
  expectTooDeep("po" + repeat("+", 256));
}

//===----------------------------------------------------------------------===//
// Evaluation on a known execution
//===----------------------------------------------------------------------===//

namespace {

/// First consistent candidate of a catalogue test that satisfies its
/// final condition.
Candidate witnessOf(const char *TestName) {
  const CatalogEntry *Entry = catalogEntry(TestName);
  EXPECT_NE(Entry, nullptr) << TestName;
  auto Compiled = CompiledTest::compile(Entry->Test);
  EXPECT_TRUE(static_cast<bool>(Compiled));
  Candidate Witness;
  bool Found = false;
  forEachCandidate(*Compiled, [&](const Candidate &Cand) {
    if (!Found && Cand.Consistent &&
        Cand.Out.satisfies(Entry->Test.Final)) {
      Witness = Cand;
      Found = true;
    }
    return true;
  });
  EXPECT_TRUE(Found);
  return Witness;
}

} // namespace

TEST(CatEval, FixpointMatchesClosure) {
  // let rec r = po | (r;r) computes po+.
  auto M = CatModel::fromSource("let rec r = po|(r;r)\nacyclic r\n", "m");
  ASSERT_TRUE(static_cast<bool>(M)) << M.message();
  Candidate Witness = witnessOf("mp");
  auto R = M->evaluate("r", Witness.Exe);
  ASSERT_TRUE(static_cast<bool>(R)) << R.message();
  EXPECT_EQ(*R, Witness.Exe.Po.transitiveClosure());
}

TEST(CatEval, DirFilterSemantics) {
  auto M = CatModel::fromSource("let wr = WR(po)\nlet rr = RR(po)\n", "m");
  ASSERT_TRUE(static_cast<bool>(M)) << M.message();
  Candidate Witness = witnessOf("sb");
  auto Wr = M->evaluate("wr", Witness.Exe);
  ASSERT_TRUE(static_cast<bool>(Wr));
  EXPECT_EQ(*Wr, Witness.Exe.Po.restrict(Witness.Exe.writes(),
                                         Witness.Exe.reads()));
  auto Rr = M->evaluate("rr", Witness.Exe);
  ASSERT_TRUE(static_cast<bool>(Rr));
  EXPECT_TRUE(Rr->empty()) << "sb has no read-read po pairs";
}

TEST(CatEval, InverseAndDifference) {
  auto M = CatModel::fromSource(
      "let back = rf~\nlet fr2 = rf~;co\nlet nothing = po \\ po\n", "m");
  ASSERT_TRUE(static_cast<bool>(M)) << M.message();
  Candidate Witness = witnessOf("mp");
  auto Back = M->evaluate("back", Witness.Exe);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(*Back, Witness.Exe.Rf.inverse());
  auto Fr2 = M->evaluate("fr2", Witness.Exe);
  ASSERT_TRUE(static_cast<bool>(Fr2));
  EXPECT_EQ(*Fr2, Witness.Exe.fr());
  auto Nothing = M->evaluate("nothing", Witness.Exe);
  ASSERT_TRUE(static_cast<bool>(Nothing));
  EXPECT_TRUE(Nothing->empty());
}

TEST(CatEval, ChecksReportNames) {
  auto M = CatModel::fromSource(
      "acyclic po as order\nirreflexive po;rf as silly\n", "m");
  ASSERT_TRUE(static_cast<bool>(M)) << M.message();
  Candidate Witness = witnessOf("mp");
  auto Results = M->check(Witness.Exe);
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_EQ(Results[0].Name, "order");
  EXPECT_TRUE(Results[0].Holds);
  EXPECT_EQ(Results[1].Name, "silly");
}

TEST(CatEval, LetAndIsSimultaneous) {
  // The bodies of a plain let group see the outer scope: b's a is the
  // earlier a (po), not its sibling (rf).
  auto M = CatModel::fromSource("let a = po\nlet a = rf and b = a\n", "m");
  ASSERT_TRUE(static_cast<bool>(M)) << M.message();
  Candidate Witness = witnessOf("mp");
  auto B = M->evaluate("b", Witness.Exe);
  ASSERT_TRUE(static_cast<bool>(B)) << B.message();
  EXPECT_EQ(*B, Witness.Exe.Po);
  auto A = M->evaluate("a", Witness.Exe);
  ASSERT_TRUE(static_cast<bool>(A)) << A.message();
  EXPECT_EQ(*A, Witness.Exe.Rf);
  // With no outer a, b's a names nothing.
  auto Alone = CatModel::fromSource("let a = rf and b = a\n", "m");
  ASSERT_FALSE(static_cast<bool>(Alone));
  EXPECT_EQ(Alone.message(), "cat model m: unknown relation 'a' at line 1");
}

TEST(CatEval, RedefinitionShadowsLexically) {
  auto M = CatModel::fromSource("let x = po\nlet y = x\nlet x = rf\n", "m");
  ASSERT_TRUE(static_cast<bool>(M)) << M.message();
  Candidate Witness = witnessOf("mp");
  auto Y = M->evaluate("y", Witness.Exe);
  ASSERT_TRUE(static_cast<bool>(Y)) << Y.message();
  EXPECT_EQ(*Y, Witness.Exe.Po);
  auto X = M->evaluate("x", Witness.Exe);
  ASSERT_TRUE(static_cast<bool>(X)) << X.message();
  EXPECT_EQ(*X, Witness.Exe.Rf);
}

TEST(CatEval, EmptyCheck) {
  auto M = CatModel::fromSource("empty po \\ po as nothing\n", "m");
  ASSERT_TRUE(static_cast<bool>(M)) << M.message();
  Candidate Witness = witnessOf("mp");
  auto Results = M->check(Witness.Exe);
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_TRUE(Results[0].Holds);
}

//===----------------------------------------------------------------------===//
// The shipped models agree with the native models on the whole catalogue.
//===----------------------------------------------------------------------===//

struct CrossCase {
  const char *Stem;       ///< models/<stem>.cat
  const char *NativeName; ///< registry name
};

/// gtest puts the printed parameter into each listed test name. Without
/// this it dumps the struct's bytes, i.e. two string addresses that move
/// with every build and every ASLR slide. The stem is already the case
/// name, so only the native model is printed.
void PrintTo(const CrossCase &Case, std::ostream *OS) {
  *OS << Case.NativeName;
}

class CatCrossValidation : public ::testing::TestWithParam<CrossCase> {};

TEST_P(CatCrossValidation, AgreesWithNativeModelOnCatalog) {
  auto Cat = CatModel::builtin(GetParam().Stem);
  ASSERT_TRUE(static_cast<bool>(Cat)) << Cat.message();
  const Model *Native = modelByName(GetParam().NativeName);
  ASSERT_NE(Native, nullptr);
  for (const CatalogEntry &Entry : figureCatalog()) {
    auto Compiled = CompiledTest::compile(Entry.Test);
    ASSERT_TRUE(static_cast<bool>(Compiled));
    forEachCandidate(*Compiled, [&](const Candidate &Cand) {
      if (!Cand.Consistent)
        return true;
      EXPECT_EQ(Cat->allows(Cand.Exe), Native->allows(Cand.Exe))
          << GetParam().Stem << " vs " << GetParam().NativeName << " on "
          << Entry.Test.Name << "\n"
          << Cand.Exe.toString();
      return true;
    });
  }
}

namespace {

std::string shippedModelPath(const std::string &Stem) {
  return std::string(CATS_LITMUS_DIR) + "/../models/" + Stem + ".cat";
}

} // namespace

TEST_P(CatCrossValidation, AdapterViolatesTheNativeAxioms) {
  auto Cat = CatAdapterModel::fromFile(shippedModelPath(GetParam().Stem));
  ASSERT_TRUE(static_cast<bool>(Cat)) << Cat.message();
  const Model *Native = modelByName(GetParam().NativeName);
  ASSERT_NE(Native, nullptr);
  unsigned Compared = 0;
  for (const CatalogEntry &Entry : figureCatalog()) {
    auto Compiled = CompiledTest::compile(Entry.Test);
    ASSERT_TRUE(static_cast<bool>(Compiled));
    forEachCandidate(*Compiled, [&](const Candidate &Cand) {
      if (!Cand.Consistent)
        return true;
      EXPECT_EQ(Cat->check(Cand.Exe).Violated,
                Native->check(Cand.Exe).Violated)
          << GetParam().Stem << " on " << Entry.Test.Name << "\n"
          << Cand.Exe.toString();
      ++Compared;
      return true;
    });
  }
  EXPECT_GT(Compared, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Models, CatCrossValidation,
    ::testing::Values(CrossCase{"sc", "SC"}, CrossCase{"tso", "TSO"},
                      CrossCase{"cxx-ra", "C++RA"},
                      CrossCase{"power", "Power"}, CrossCase{"arm", "ARM"},
                      CrossCase{"arm-llh", "ARM llh"}),
    [](const ::testing::TestParamInfo<CrossCase> &Info) {
      std::string Name = Info.param.Stem;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// The adapter through the engine: what e2ebench runs, on a smaller corpus.
//===----------------------------------------------------------------------===//

namespace {

/// The catalogue, or the first 150 size-5 Power diy tests.
std::vector<LitmusTest> engineCorpus(bool Catalogue) {
  std::vector<LitmusTest> Tests;
  if (Catalogue) {
    for (const CatalogEntry &Entry : figureCatalog())
      Tests.push_back(Entry.Test);
    return Tests;
  }
  EnumerateOptions Opts;
  Opts.Target = Arch::Power;
  Opts.MinEdges = Opts.MaxEdges = 5;
  Opts.Limit = 150;
  auto Source = makeDiyTestSource(Opts);
  EXPECT_TRUE(static_cast<bool>(Source)) << Source.message();
  for (LitmusTest Test; Source && (*Source)(Test);)
    Tests.push_back(Test);
  return Tests;
}

/// Loads models/<stem>.cat for each stem.
std::vector<CatAdapterModel> loadAdapters(std::vector<std::string> Stems) {
  std::vector<CatAdapterModel> Out;
  for (const std::string &Stem : Stems) {
    auto M = CatAdapterModel::fromFile(shippedModelPath(Stem));
    EXPECT_TRUE(static_cast<bool>(M)) << M.message();
    if (M)
      Out.push_back(M.take());
  }
  return Out;
}

} // namespace

TEST(CatAdapterEngine, SimulateAllMatchesNativeTwins) {
  const std::vector<CatAdapterModel> Cats =
      loadAdapters({"sc", "tso", "cxx-ra", "power", "arm", "arm-llh"});
  ASSERT_EQ(Cats.size(), 6u);
  std::vector<const Model *> CatModels, Natives;
  for (const CatAdapterModel &M : Cats)
    CatModels.push_back(&M);
  for (const char *Name : {"SC", "TSO", "C++RA", "Power", "ARM", "ARM llh"})
    Natives.push_back(modelByName(Name));
  for (bool Catalogue : {true, false}) {
    const std::vector<LitmusTest> Tests = engineCorpus(Catalogue);
    ASSERT_GT(Tests.size(), 40u);
    for (const LitmusTest &Test : Tests) {
      auto Compiled = CompiledTest::compile(Test);
      ASSERT_TRUE(static_cast<bool>(Compiled)) << Test.Name;
      const MultiSimulationResult FromCat = simulateAll(*Compiled, CatModels);
      const MultiSimulationResult FromNative = simulateAll(*Compiled, Natives);
      for (size_t I = 0; I < Cats.size(); ++I) {
        const SimulationResult &C = FromCat.PerModel[I];
        const SimulationResult &N = FromNative.PerModel[I];
        const std::string Where = Test.Name + " under " + C.ModelName;
        EXPECT_STREQ(C.verdict(), N.verdict()) << Where;
        EXPECT_EQ(C.CandidatesAllowed, N.CandidatesAllowed) << Where;
        EXPECT_TRUE(C.AllowedOutcomes == N.AllowedOutcomes) << Where;
      }
    }
  }
}

TEST(CatAdapterEngine, SweepIsWorkerCountInvariant) {
  const std::vector<CatAdapterModel> Cats =
      loadAdapters({"sc", "tso", "cxx-ra", "power", "power-nodetour", "arm",
                    "arm-llh"});
  ASSERT_EQ(Cats.size(), 7u);
  std::vector<const Model *> Models;
  for (const CatAdapterModel &M : Cats)
    Models.push_back(&M);
  const std::vector<SweepJob> Jobs = makeJobs(engineCorpus(false), Models);
  SweepReport One = SweepEngine({1}).run(Jobs);
  SweepReport Four = SweepEngine({4}).run(Jobs);
  ASSERT_TRUE(One.allOk());
  ASSERT_TRUE(Four.allOk());
  One.Jobs = Four.Jobs = 1; // The one field that names the worker count.
  EXPECT_EQ(zeroWallTimes(sweepReportToJson(Four)).dump(),
            zeroWallTimes(sweepReportToJson(One)).dump());
}

TEST(CatBuiltin, MissingModelFileFails) {
  auto M = CatModel::builtin("no-such-model");
  EXPECT_FALSE(static_cast<bool>(M));
}

TEST(CatVariants, NoDetourMatchesStaticConfig) {
  // models/power-nodetour.cat is the Sec. 8.2 static-ppo variant; it must
  // agree with the native HwModel configured without rdw/detour.
  auto Cat = CatModel::builtin("power-nodetour");
  ASSERT_TRUE(static_cast<bool>(Cat)) << Cat.message();
  HwConfig Config = HwConfig::power();
  Config.PpoUsesRdwDetour = false;
  HwModel Native(Config);
  for (const CatalogEntry &Entry : figureCatalog()) {
    auto Compiled = CompiledTest::compile(Entry.Test);
    ASSERT_TRUE(static_cast<bool>(Compiled));
    forEachCandidate(*Compiled, [&](const Candidate &Cand) {
      if (!Cand.Consistent)
        return true;
      EXPECT_EQ(Cat->allows(Cand.Exe), Native.allows(Cand.Exe))
          << Entry.Test.Name << "\n" << Cand.Exe.toString();
      return true;
    });
  }
}

TEST(CatVariants, NoDetourWeakerThanPower) {
  auto Cat = CatModel::builtin("power-nodetour");
  ASSERT_TRUE(static_cast<bool>(Cat));
  const Model &Power = *modelByName("Power");
  for (const CatalogEntry &Entry : figureCatalog()) {
    auto Compiled = CompiledTest::compile(Entry.Test);
    ASSERT_TRUE(static_cast<bool>(Compiled));
    forEachCandidate(*Compiled, [&](const Candidate &Cand) {
      if (!Cand.Consistent)
        return true;
      // Removing ppo edges only weakens: Power-allowed => variant-allowed.
      // (Braces: EXPECT_TRUE expands to an if/else and would otherwise
      // bind to the outer if under -Wdangling-else.)
      if (Power.allows(Cand.Exe)) {
        EXPECT_TRUE(Cat->allows(Cand.Exe)) << Entry.Test.Name;
      }
      return true;
    });
  }
}

TEST(Herd, HerdStyleReportFormat) {
  const CatalogEntry *Entry = catalogEntry("mp");
  ASSERT_NE(Entry, nullptr);
  SimulationResult R = simulate(Entry->Test, *modelByName("Power"));
  std::string Report = herdStyleReport(R, Entry->Test.Final);
  EXPECT_NE(Report.find("Test mp Allowed"), std::string::npos) << Report;
  EXPECT_NE(Report.find("States 4"), std::string::npos) << Report;
  EXPECT_NE(Report.find("Ok"), std::string::npos);
  EXPECT_NE(Report.find("Condition exists"), std::string::npos);
  SimulationResult RSc = simulate(Entry->Test, *modelByName("SC"));
  std::string ReportSc = herdStyleReport(RSc, Entry->Test.Final);
  EXPECT_NE(ReportSc.find("Test mp Forbidden"), std::string::npos);
  EXPECT_NE(ReportSc.find("No"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Sec. 4.9: the axioms are bricks — disable or weaken them in cat text.
//===----------------------------------------------------------------------===//

TEST(CatAdaptability, DroppingNoThinAirAllowsLb) {
  // A Power model whose NO THIN AIR check is simply deleted (the Sec. 4.9
  // "one can very simply disable the NO THIN AIR check" claim) must allow
  // lb+addrs while keeping mp+lwsync+addr forbidden.
  auto M = CatModel::fromSource(R"(
acyclic po-loc|rf|fr|co as sc-per-location
let dp = addr|data
let rdw = po-loc & (fre;rfe)
let detour = po-loc & (coe;rfe)
let ii0 = dp|rdw|rfi
let ic0 = 0
let ci0 = ctrlisync|detour
let cc0 = dp|po-loc|ctrl|(addr;po)
let rec ii = ii0|ci|(ic;ci)|(ii;ii)
and ic = ic0|ii|cc|(ic;cc)|(ii;ic)
and ci = ci0|(ci;ii)|(cc;ci)
and cc = cc0|ci|(ci;ic)|(cc;cc)
let ppo = RR(ii)|RW(ic)
let fence = RM(lwsync)|WW(lwsync)|sync
let hb = ppo|fence|rfe
let prop-base = (fence|(rfe;fence));hb*
let prop = WW(prop-base)|(com*;prop-base*;sync;hb*)
irreflexive fre;prop;hb* as observation
acyclic co|prop as propagation
)",
                                "power-no-thin-air");
  ASSERT_TRUE(static_cast<bool>(M)) << M.message();

  auto CheckReachable = [&](const char *TestName) {
    const CatalogEntry *Entry = catalogEntry(TestName);
    EXPECT_NE(Entry, nullptr);
    auto Compiled = CompiledTest::compile(Entry->Test);
    EXPECT_TRUE(static_cast<bool>(Compiled));
    bool Reachable = false;
    forEachCandidate(*Compiled, [&](const Candidate &Cand) {
      if (Cand.Consistent && Cand.Out.satisfies(Entry->Test.Final) &&
          M->allows(Cand.Exe))
        Reachable = true;
      return true;
    });
    return Reachable;
  };

  EXPECT_TRUE(CheckReachable("lb+addrs"))
      << "without NO THIN AIR, lb becomes allowed (the Java/C++ stance)";
  EXPECT_FALSE(CheckReachable("mp+lwsync+addr"))
      << "OBSERVATION still forbids mp";
}

TEST(CatAdaptability, RestrictingScPerLocationAllowsCoRR) {
  // The Sec. 4.9 load-load-hazard weakening, as one line of cat.
  auto M = CatModel::fromSource(R"(
let po-loc-llh = po-loc \ RR(po-loc)
acyclic po-loc-llh|rf|fr|co as sc-per-location
)",
                                "llh-only");
  ASSERT_TRUE(static_cast<bool>(M)) << M.message();
  const CatalogEntry *CoRR = catalogEntry("coRR");
  ASSERT_NE(CoRR, nullptr);
  bool Reachable = false;
  auto Compiled = CompiledTest::compile(CoRR->Test);
  ASSERT_TRUE(static_cast<bool>(Compiled));
  forEachCandidate(*Compiled, [&](const Candidate &Cand) {
    if (Cand.Consistent && Cand.Out.satisfies(CoRR->Test.Final) &&
        M->allows(Cand.Exe))
      Reachable = true;
    return true;
  });
  EXPECT_TRUE(Reachable);
}
