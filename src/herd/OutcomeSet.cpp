//===- OutcomeSet.cpp - Interned outcome tables and subsets ---------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "herd/OutcomeSet.h"

#include "support/Bits.h"

#include <cassert>

using namespace cats;

OutcomeSet::OutcomeSet(std::shared_ptr<const OutcomeTable> TableIn,
                       Bits MembersIn)
    : Table(std::move(TableIn)), Members(std::move(MembersIn)) {
  assert(Members.size() == (tableSize() + 63) / 64 &&
         "membership words do not match the table");
  for (uint64_t Word : Members)
    Count += popcount(Word);
}

OutcomeSet OutcomeSet::all(std::shared_ptr<const OutcomeTable> Table) {
  const size_t N = Table ? Table->size() : 0;
  Bits Members(N / 64, ~0ull);
  if (N % 64)
    Members.push_back((1ull << (N % 64)) - 1);
  return OutcomeSet(std::move(Table), std::move(Members));
}

size_t OutcomeSet::next(size_t From) const {
  const size_t N = tableSize();
  if (From >= N)
    return N;
  size_t W = From / 64;
  uint64_t Word = Members[W] & (~0ull << (From % 64));
  while (!Word) {
    if (++W == Members.size())
      return N;
    Word = Members[W];
  }
  return W * 64 + countrZero(Word);
}

bool OutcomeSet::operator==(const OutcomeSet &Other) const {
  if (Count != Other.Count)
    return false;
  if (Table == Other.Table)
    return Members == Other.Members;
  // Separately built tables (a reparsed report, another backend): compare
  // the members pairwise; both sides iterate in key order.
  for (auto A = begin(), B = Other.begin(); A != end(); ++A, ++B)
    if (*A != *B)
      return false;
  return true;
}
