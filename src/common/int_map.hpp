// IntMap — an open-addressing hash map from 64-bit integer keys to values:
// the table behind the read path's chunk-key lookups (the Agar cache's
// configured set and entries, the LRU, LFU and ARC engines' indexes, the
// coalescing table's in-flight fetches).
//
// Keys live in one flat slot vector (linear probing, power-of-two size,
// at most half full); erasing shifts the rest of the probe run back, so
// there are no tombstones and no per-entry node. Nothing allocates except
// growth, and `clear` keeps the capacity, so a table reused period after
// period reaches a steady size and stays there.
//
// Ordering contract: `for_each` visits slots in table order, a function
// of the keys' hashes and the insert/erase history. It is deterministic,
// but it is not key order: use it only where the visit order cannot
// reach an output (counters, eviction sweeps), and sort where it can.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace agar {

template <typename V>
class IntMap {
 public:
  using Key = std::uint64_t;

  /// The value stored under `key`, or null. Valid until the next insert
  /// or erase.
  [[nodiscard]] V* find(Key key) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == kEmpty) return nullptr;
    }
  }
  [[nodiscard]] const V* find(Key key) const {
    return const_cast<IntMap*>(this)->find(key);
  }
  [[nodiscard]] bool contains(Key key) const { return find(key) != nullptr; }

  /// The value under `key`, value-initialized first if the key is new;
  /// the flag says whether it was. Valid until the next insert or erase.
  std::pair<V*, bool> try_emplace(Key key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = home(key);
    for (; slots_[i].key != kEmpty; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    slots_[i].key = key;
    slots_[i].value = V{};
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Remove `key`; false if it was absent.
  bool erase(Key key) {
    if (size_ == 0) return false;
    std::size_t hole = home(key);
    for (;; hole = (hole + 1) & mask_) {
      if (slots_[hole].key == key) break;
      if (slots_[hole].key == kEmpty) return false;
    }
    // Backward-shift: pull every later entry of the run whose home does
    // not lie cyclically in (hole, j] into the hole.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].key != kEmpty;
         j = (j + 1) & mask_) {
      const std::size_t h = home(slots_[j].key);
      const bool stays =
          hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (stays) continue;
      slots_[hole] = std::move(slots_[j]);
      hole = j;
    }
    slots_[hole].key = kEmpty;
    slots_[hole].value = V{};
    --size_;
    return true;
  }

  /// Empty the table, keeping its capacity.
  void clear() {
    if (size_ == 0) return;
    for (Slot& s : slots_) {
      if (s.key != kEmpty) {
        s.key = kEmpty;
        s.value = V{};
      }
    }
    size_ = 0;
  }

  /// Calls f(key, value) for every entry, in table order (see the file
  /// comment). `f` must not insert or erase.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmpty) f(s.key, s.value);
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  /// Marks an empty slot, so no key may be all ones. No chunk key is: it
  /// would be object 2^32 - 1's chunk 2^32 - 1.
  static constexpr Key kEmpty = ~Key{0};

  struct Slot {
    Key key = kEmpty;
    V value{};
  };

  [[nodiscard]] std::size_t home(Key key) const {
    // splitmix64's finalizer: chunk keys differ in few bits.
    key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
    key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
    key ^= key >> 31;
    return static_cast<std::size_t>(key) & mask_;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(old.empty() ? 16 : 2 * old.size());
    mask_ = slots_.size() - 1;
    for (Slot& s : old) {
      if (s.key == kEmpty) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmpty) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace agar
