//===- OutcomeSet.h - Interned outcome tables and subsets -----*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result representation of one test (Sec. 8.3): the candidates are
/// enumerated once, so every model's allowed outcomes are a subset of the
/// test's consistent outcomes. The distinct consistent outcomes are
/// interned once into an immutable table of their Outcome::key() strings,
/// sorted ascending; the consistent set and each model's allowed set are
/// membership bitsets over that shared table. Copying a set copies a
/// pointer and its bits, never a key.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_HERD_OUTCOMESET_H
#define CATS_HERD_OUTCOMESET_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

namespace cats {

/// The Outcome::key() strings of one test's distinct consistent outcomes,
/// strictly ascending. Immutable once built; shared by every OutcomeSet
/// over it.
using OutcomeTable = std::vector<std::string>;

/// A subset of one OutcomeTable. Iterates its members in ascending key
/// order; equality compares contents, so sets over separately built
/// tables compare equal when they hold the same keys.
class OutcomeSet {
public:
  /// Membership words: bit I of word I / 64 stands for Table[I].
  using Bits = std::vector<uint64_t>;

  /// The empty set.
  OutcomeSet() = default;

  /// The members of \p Table whose bit is set in \p Members, which holds
  /// exactly (Table->size() + 63) / 64 words.
  OutcomeSet(std::shared_ptr<const OutcomeTable> Table, Bits Members);

  /// Every outcome of \p Table.
  static OutcomeSet all(std::shared_ptr<const OutcomeTable> Table);

  class const_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::string;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::string *;
    using reference = const std::string &;

    const_iterator() = default;
    reference operator*() const { return (*Set->Table)[Index]; }
    pointer operator->() const { return &**this; }
    const_iterator &operator++() {
      Index = Set->next(Index + 1);
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator Old = *this;
      ++*this;
      return Old;
    }
    bool operator==(const const_iterator &O) const { return Index == O.Index; }
    bool operator!=(const const_iterator &O) const { return Index != O.Index; }

  private:
    friend class OutcomeSet;
    const_iterator(const OutcomeSet *Set, size_t Index)
        : Set(Set), Index(Index) {}
    const OutcomeSet *Set = nullptr;
    size_t Index = 0;
  };
  using iterator = const_iterator;

  const_iterator begin() const { return {this, next(0)}; }
  const_iterator end() const { return {this, tableSize()}; }
  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  bool operator==(const OutcomeSet &Other) const;
  bool operator!=(const OutcomeSet &Other) const { return !(*this == Other); }

private:
  size_t tableSize() const { return Table ? Table->size() : 0; }
  /// The first member index at or after \p From; tableSize() if none.
  size_t next(size_t From) const;

  std::shared_ptr<const OutcomeTable> Table;
  Bits Members;
  size_t Count = 0;
};

} // namespace cats

#endif // CATS_HERD_OUTCOMESET_H
