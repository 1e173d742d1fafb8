//===- event.cpp - Tests for executions and derived relations --------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "event/Execution.h"

#include <gtest/gtest.h>

using namespace cats;

namespace {

/// Builds the canonical message-passing execution of Fig. 4:
///   T0: a: Wx=1 ; b: Wy=1        T1: c: Ry=1 ; d: Rx=0
/// with rf = {(b,c), (ix,d)} and co per location init-before-update.
struct MpFixture {
  Execution Exe;
  EventId Ix, Iy, A, B, C, D;

  MpFixture() {
    Location X = Exe.internLocation("x");
    Location Y = Exe.internLocation("y");
    Ix = Exe.addEvent({.Thread = InitThread,
                       .Kind = EventKind::Write,
                       .Loc = X,
                       .Val = 0,
                       .IsInit = true});
    Iy = Exe.addEvent({.Thread = InitThread,
                       .Kind = EventKind::Write,
                       .Loc = Y,
                       .Val = 0,
                       .IsInit = true});
    A = Exe.addEvent(
        {.Thread = 0, .InstrIndex = 0, .Kind = EventKind::Write, .Loc = X,
         .Val = 1});
    B = Exe.addEvent(
        {.Thread = 0, .InstrIndex = 1, .Kind = EventKind::Write, .Loc = Y,
         .Val = 1});
    C = Exe.addEvent(
        {.Thread = 1, .InstrIndex = 0, .Kind = EventKind::Read, .Loc = Y,
         .Val = 1});
    D = Exe.addEvent(
        {.Thread = 1, .InstrIndex = 1, .Kind = EventKind::Read, .Loc = X,
         .Val = 0});
    Exe.finalizeStructure(2);
    Exe.Rf.set(B, C);
    Exe.Rf.set(Ix, D);
    Exe.Co.set(Ix, A);
    Exe.Co.set(Iy, B);
  }
};

} // namespace

TEST(Execution, ProgramOrderPerThread) {
  MpFixture F;
  EXPECT_TRUE(F.Exe.Po.test(F.A, F.B));
  EXPECT_TRUE(F.Exe.Po.test(F.C, F.D));
  EXPECT_FALSE(F.Exe.Po.test(F.B, F.A));
  // No po across threads, none involving init writes.
  EXPECT_FALSE(F.Exe.Po.test(F.A, F.C));
  EXPECT_FALSE(F.Exe.Po.test(F.Ix, F.A));
}

TEST(Execution, EventSets) {
  MpFixture F;
  EXPECT_EQ(F.Exe.reads().count(), 2u);
  EXPECT_EQ(F.Exe.writes().count(), 4u);
  EXPECT_EQ(F.Exe.initWrites().count(), 2u);
  EXPECT_TRUE(F.Exe.reads().contains(F.C));
  EXPECT_TRUE(F.Exe.writes().contains(F.Ix));
}

TEST(Execution, FromReadDerivation) {
  MpFixture F;
  // d reads from init x, which is co-before a => (d, a) in fr.
  Relation Fr = F.Exe.fr();
  EXPECT_TRUE(Fr.test(F.D, F.A));
  EXPECT_EQ(Fr.countPairs(), 1u);
}

TEST(Execution, CommunicationsUnion) {
  MpFixture F;
  Relation Com = F.Exe.com();
  EXPECT_TRUE(Com.test(F.B, F.C));  // rf
  EXPECT_TRUE(Com.test(F.Ix, F.A)); // co
  EXPECT_TRUE(Com.test(F.D, F.A));  // fr
}

TEST(Execution, InternalExternalSplit) {
  MpFixture F;
  // rf(b, c) crosses threads => external.
  EXPECT_TRUE(F.Exe.rfe().test(F.B, F.C));
  EXPECT_TRUE(F.Exe.rfi().empty());
  // Init writes count as external sources.
  EXPECT_TRUE(F.Exe.rfe().test(F.Ix, F.D));
  EXPECT_TRUE(F.Exe.fre().test(F.D, F.A));
}

TEST(Execution, PoLocOnlySameLocation) {
  MpFixture F;
  // a:Wx, b:Wy touch different locations: po-loc empty on T0.
  EXPECT_TRUE(F.Exe.poLoc().empty());
}

TEST(Execution, PoLocDetectsSameLocation) {
  Execution Exe;
  Location X = Exe.internLocation("x");
  EventId E0 = Exe.addEvent(
      {.Thread = 0, .InstrIndex = 0, .Kind = EventKind::Write, .Loc = X,
       .Val = 1});
  EventId E1 = Exe.addEvent(
      {.Thread = 0, .InstrIndex = 1, .Kind = EventKind::Read, .Loc = X,
       .Val = 1});
  Exe.finalizeStructure(1);
  EXPECT_TRUE(Exe.poLoc().test(E0, E1));
}

TEST(Execution, InternLocationIsIdempotent) {
  Execution Exe;
  Location X1 = Exe.internLocation("x");
  Location X2 = Exe.internLocation("x");
  Location Y = Exe.internLocation("y");
  EXPECT_EQ(X1, X2);
  EXPECT_NE(X1, Y);
  EXPECT_EQ(Exe.LocationNames.size(), 2u);
}

TEST(Execution, WritesToAndInitLookup) {
  MpFixture F;
  auto WritesX = F.Exe.writesTo(0);
  ASSERT_EQ(WritesX.size(), 2u);
  EXPECT_EQ(F.Exe.initWriteOf(0), static_cast<int>(F.Ix));
  EXPECT_EQ(F.Exe.initWriteOf(1), static_cast<int>(F.Iy));
}

TEST(Execution, RdwRelation) {
  // Fig. 27: T0: a: Wx=2. T1: b: Rx=1 (from init... actually from an external
  // write co-before a); c: Rx=2 (from a). Build with an extra writer thread.
  Execution Exe;
  Location X = Exe.internLocation("x");
  EventId Init = Exe.addEvent({.Thread = InitThread,
                               .Kind = EventKind::Write,
                               .Loc = X,
                               .Val = 0,
                               .IsInit = true});
  EventId A = Exe.addEvent(
      {.Thread = 0, .InstrIndex = 0, .Kind = EventKind::Write, .Loc = X,
       .Val = 2});
  EventId B = Exe.addEvent(
      {.Thread = 1, .InstrIndex = 0, .Kind = EventKind::Read, .Loc = X,
       .Val = 0});
  EventId C = Exe.addEvent(
      {.Thread = 1, .InstrIndex = 1, .Kind = EventKind::Read, .Loc = X,
       .Val = 2});
  Exe.finalizeStructure(2);
  Exe.Rf.set(Init, B);
  Exe.Rf.set(A, C);
  Exe.Co.set(Init, A);
  // b fr-before a (external), c reads a externally, b po-loc-before c.
  EXPECT_TRUE(Exe.rdw().test(B, C));
}

TEST(Execution, DetourRelation) {
  // Fig. 28: T0: b: Wx=1 then c: Rx=2; T1: a: Wx=2 with b co-before a.
  Execution Exe;
  Location X = Exe.internLocation("x");
  EventId Init = Exe.addEvent({.Thread = InitThread,
                               .Kind = EventKind::Write,
                               .Loc = X,
                               .Val = 0,
                               .IsInit = true});
  EventId B = Exe.addEvent(
      {.Thread = 0, .InstrIndex = 0, .Kind = EventKind::Write, .Loc = X,
       .Val = 1});
  EventId C = Exe.addEvent(
      {.Thread = 0, .InstrIndex = 1, .Kind = EventKind::Read, .Loc = X,
       .Val = 2});
  EventId A = Exe.addEvent(
      {.Thread = 1, .InstrIndex = 0, .Kind = EventKind::Write, .Loc = X,
       .Val = 2});
  Exe.finalizeStructure(2);
  Exe.Rf.set(A, C);
  Exe.Co.set(Init, B);
  Exe.Co.set(B, A);
  Exe.Co.set(Init, A);
  EXPECT_TRUE(Exe.detour().test(B, C));
}

TEST(Execution, ClearDerivedDropsStaleMemos) {
  MpFixture F;
  F.Exe.enableDerivedCache();
  int Computes = 0;
  const int Tag = 0;
  auto Memo = [&] {
    return F.Exe.modelMemo(&Tag, 0, [&] {
      ++Computes;
      return F.Exe.fr();
    });
  };
  EXPECT_EQ(F.Exe.fr().countPairs(), 1u);
  const Relation OldCom = F.Exe.com();
  Memo();
  Memo();
  EXPECT_EQ(Computes, 1);

  // Drop co(ix, a): d no longer fr-precedes a. Until cleared, the memos
  // still answer for the old candidate.
  F.Exe.Co = Relation(F.Exe.numEvents());
  F.Exe.Co.set(F.Iy, F.B);
  EXPECT_EQ(F.Exe.com(), OldCom);

  F.Exe.clearDerived();
  MpFixture Fresh;
  Fresh.Exe.Co = F.Exe.Co;
  EXPECT_EQ(F.Exe.com(), Fresh.Exe.com());
  EXPECT_NE(F.Exe.com(), OldCom);
  EXPECT_TRUE(F.Exe.fr().empty());
  EXPECT_TRUE(Memo().empty());
  EXPECT_EQ(Computes, 2);
}

TEST(Execution, FenceRelationLookupMissing) {
  MpFixture F;
  EXPECT_TRUE(F.Exe.fenceRelation("sync").empty());
}

TEST(Event, ToStringRendersPaperStyle) {
  MpFixture F;
  std::string S = F.Exe.event(F.A).toString(F.Exe.LocationNames);
  EXPECT_NE(S.find("Wx=1"), std::string::npos);
  EXPECT_NE(S.find("T0"), std::string::npos);
}
