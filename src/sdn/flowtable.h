// Flow tables with wildcard matching, priorities and candidate-tag masks.
// A match on a field whose value is the wildcard "*" is skipped -- this is
// how the Q5 MAC-learning bug (too-coarse entries) is modelled.
//
// Lookup is tuple-space search (as in Open vSwitch, Pfaff et al., NSDI'15).
// An entry constrains a set of fields; entries that constrain the same set
// share a *tier*. A tier is an open-addressing hash from the values of its
// fields to a chain of entries that all carry exactly those values, linked
// in (priority descending, install order ascending) order. A lookup hashes
// the packet once per tier (a switch has a handful of tiers, whatever its
// size), takes the one chain whose key the packet carries, and merges the
// chains of all tiers by that same (priority, install order) key. So one
// hop costs one probe per tier, not a scan of the table, and add() links
// an entry into its chain without re-sorting anything.
//
// The index changes cost, never results. Lookup and partition answer
// exactly as a walk over all entries in (priority desc, install order asc)
// order that takes the first visible matching entry would:
//   - a tie in priority goes to the earliest-installed entry;
//   - partition() gives each tag to the first entry, in that order, that
//     matches and is visible under the tag (Section 4.4's multi-query);
//   - a wildcard field is skipped (it does not put the entry in a tier of
//     that field);
//   - a non-int, non-wildcard value never matches, and neither do two
//     disagreeing constraints on one field (such entries are kept, counted
//     and listed, but never indexed); two agreeing ones act as one;
//   - InPort is read through field_of, like every other field.
//
// Memory: a tier's slots are 4-byte entry indices, kept at most 4/5 full;
// the chain link lives in FlowEntry's padding and no key is copied out of
// an entry (the head entry's match list is the key). A switch of the
// 169-switch campus (785 Dip routes, one tier of 1,024 slots) spends ~5 B
// per entry on the index.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "eval/tuple.h"
#include "sdn/packet.h"

namespace mp::sdn {

struct Action {
  enum class Kind : uint8_t { Output, Drop };
  Kind kind = Kind::Drop;
  int64_t port = -1;

  static Action output(int64_t port) {
    return Action{Kind::Output, port};
  }
  static Action drop() { return Action{Kind::Drop, -1}; }
  std::string to_string() const {
    return kind == Kind::Drop ? "drop" : "output-" + std::to_string(port);
  }
};

struct MatchField {
  Field field = Field::Dpt;
  Value value;  // wildcard "*" matches anything
};

struct FlowEntry {
  std::vector<MatchField> match;
  int priority = 0;

 private:
  friend class FlowTable;
  // The next entry of this entry's chain in the FlowTable that holds it
  // (meaningless in a copy taken out of a table). Declared here, it takes
  // the padding after `priority`, so the chains cost no memory per entry.
  uint32_t next_ = 0;

 public:
  Action action;
  eval::TagMask tags = eval::kAllTags;

  bool matches(const Packet& p, int64_t in_port) const;
  std::string to_string() const;
};

class FlowTable {
 public:
  void add(FlowEntry entry);
  // Highest-priority matching entry visible under `tag_bit`; ties resolve
  // to the earliest-installed entry (switch-like behaviour).
  const FlowEntry* lookup(const Packet& p, int64_t in_port,
                          eval::TagMask tag_bit = eval::kAllTags) const;
  // Partition `tags` by best matching entry: invokes cb(entry, submask)
  // once per distinct winning entry and returns the mask of tags with no
  // matching entry. This is what lets multi-query backtesting walk one
  // shared path for all candidates that agree (Section 4.4).
  eval::TagMask partition(
      const Packet& p, int64_t in_port, eval::TagMask tags,
      const std::function<void(const FlowEntry&, eval::TagMask)>& cb) const;
  // Removes every entry for which pred(entry) holds, keeping the others in
  // install order, and rebuilds the index once. Returns the number removed.
  size_t erase_if(const std::function<bool(const FlowEntry&)>& pred);
  void clear();
  void reserve(size_t entries) { entries_.reserve(entries); }
  size_t size() const { return entries_.size(); }
  // In install order.
  const std::vector<FlowEntry>& entries() const { return entries_; }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Tier {
    uint16_t fields = 0;          // bit f set: Field f is constrained
    uint8_t shift = 0;            // 64 - log2(slots.size())
    uint32_t keys = 0;            // occupied slots (distinct chains)
    std::vector<uint32_t> slots;  // chain heads (kNone: empty), linear probing
  };

  void link(uint32_t idx);  // indexes entries_[idx], the newest entry
  void rebuild_index();
  // The head of the chain in `t` whose key the packet carries, or kNone.
  uint32_t probe(const Tier& t, const Packet& p, int64_t in_port) const;

  std::vector<FlowEntry> entries_;  // install order
  std::vector<Tier> tiers_;
};

}  // namespace mp::sdn
