#include "sdn/flowtable.h"

#include <array>
#include <stdexcept>

namespace mp::sdn {

namespace {

constexpr size_t kFieldCount = static_cast<size_t>(Field::Bucket) + 1;
// One tier per set of constrained fields at most.
constexpr size_t kMaxTiers = size_t{1} << kFieldCount;

// The fields an entry constrains and the value it requires of each.
struct Key {
  uint16_t fields = 0;
  std::array<int64_t, kFieldCount> value{};
};

// nullopt when the entry can never match: a non-int, non-wildcard value,
// or two disagreeing constraints on one field.
std::optional<Key> key_of(const FlowEntry& e) {
  Key k;
  for (const MatchField& m : e.match) {
    if (m.value.is_wildcard()) continue;
    if (!m.value.is_int()) return std::nullopt;
    const size_t f = static_cast<size_t>(m.field);
    const uint16_t bit = static_cast<uint16_t>(1u << f);
    if ((k.fields & bit) != 0) {
      if (k.value[f] != m.value.as_int()) return std::nullopt;
      continue;
    }
    k.fields |= bit;
    k.value[f] = m.value.as_int();
  }
  return k;
}

// Multiplicative (Fibonacci) hashing over the tier's fields in field
// order; the top bits pick the slot, so dense keys such as consecutive
// host addresses spread evenly.
template <class ValueOf>
uint64_t hash_fields(uint16_t fields, ValueOf value_of) {
  uint64_t h = 0;
  for (size_t f = 0; f < kFieldCount; ++f) {
    if ((fields >> f) & 1u) {
      h = (h ^ static_cast<uint64_t>(value_of(f))) * 0x9E3779B97F4A7C15ULL;
    }
  }
  return h;
}

uint64_t hash_key(const Key& k) {
  return hash_fields(k.fields, [&](size_t f) { return k.value[f]; });
}

// True when the tier holds more keys than 4/5 of its slots.
bool overfull(size_t keys, size_t slots) { return keys * 5 > slots * 4; }

}  // namespace

bool FlowEntry::matches(const Packet& p, int64_t in_port) const {
  for (const MatchField& m : match) {
    if (m.value.is_wildcard()) continue;
    if (!m.value.is_int()) return false;
    if (field_of(p, in_port, m.field) != m.value.as_int()) return false;
  }
  return true;
}

std::string FlowEntry::to_string() const {
  std::string out = "[";
  for (size_t i = 0; i < match.size(); ++i) {
    if (i) out += ", ";
    out += std::string(mp::sdn::to_string(match[i].field)) + "=" +
           match[i].value.to_string();
  }
  out += "] prio=" + std::to_string(priority) + " -> " + action.to_string();
  return out;
}

void FlowTable::add(FlowEntry entry) {
  if (entries_.size() >= kNone) throw std::length_error("flow table full");
  entries_.push_back(std::move(entry));
  link(static_cast<uint32_t>(entries_.size() - 1));
}

void FlowTable::link(uint32_t idx) {
  FlowEntry& e = entries_[idx];
  e.next_ = kNone;
  const std::optional<Key> key = key_of(e);
  if (!key) return;  // never matches: kept, not indexed

  Tier* tier = nullptr;
  for (Tier& t : tiers_) {
    if (t.fields == key->fields) {
      tier = &t;
      break;
    }
  }
  if (tier == nullptr) {
    tier = &tiers_.emplace_back();
    tier->fields = key->fields;
    tier->shift = 63;
    tier->slots.assign(2, kNone);
  }

  const uint64_t h = hash_key(*key);
  size_t mask = tier->slots.size() - 1;
  size_t i = h >> tier->shift;
  for (; tier->slots[i] != kNone; i = (i + 1) & mask) {
    const std::optional<Key> other = key_of(entries_[tier->slots[i]]);
    if (other->value != key->value) continue;
    // Same key: the entry goes after every entry of at least its priority
    // (they are all older).
    uint32_t* at = &tier->slots[i];
    while (*at != kNone && entries_[*at].priority >= e.priority) {
      at = &entries_[*at].next_;
    }
    e.next_ = *at;
    *at = idx;
    return;
  }

  // A new key.
  if (overfull(tier->keys + 1, tier->slots.size())) {
    std::vector<uint32_t> old(tier->slots.size() * 2, kNone);
    old.swap(tier->slots);
    --tier->shift;
    mask = tier->slots.size() - 1;
    for (uint32_t head : old) {
      if (head == kNone) continue;
      size_t j = hash_key(*key_of(entries_[head])) >> tier->shift;
      while (tier->slots[j] != kNone) j = (j + 1) & mask;
      tier->slots[j] = head;
    }
    i = h >> tier->shift;
    while (tier->slots[i] != kNone) i = (i + 1) & mask;
  }
  tier->slots[i] = idx;
  ++tier->keys;
}

void FlowTable::rebuild_index() {
  tiers_.clear();
  for (size_t i = 0; i < entries_.size(); ++i) link(static_cast<uint32_t>(i));
}

size_t FlowTable::erase_if(const std::function<bool(const FlowEntry&)>& pred) {
  const size_t removed = std::erase_if(entries_, pred);
  if (removed != 0) rebuild_index();
  return removed;
}

void FlowTable::clear() {
  entries_.clear();
  tiers_.clear();
}

uint32_t FlowTable::probe(const Tier& t, const Packet& p,
                          int64_t in_port) const {
  const uint64_t h = hash_fields(
      t.fields, [&](size_t f) { return field_of(p, in_port, static_cast<Field>(f)); });
  const size_t mask = t.slots.size() - 1;
  for (size_t i = h >> t.shift;; i = (i + 1) & mask) {
    const uint32_t head = t.slots[i];
    // Every entry of a chain carries its key, so the head decides.
    if (head == kNone || entries_[head].matches(p, in_port)) return head;
  }
}

const FlowEntry* FlowTable::lookup(const Packet& p, int64_t in_port,
                                   eval::TagMask tag_bit) const {
  const FlowEntry* best = nullptr;
  uint32_t best_idx = kNone;
  for (const Tier& t : tiers_) {
    for (uint32_t i = probe(t, p, in_port); i != kNone; i = entries_[i].next_) {
      const FlowEntry& e = entries_[i];
      // The chain is in (priority desc, install asc) order: once an entry
      // does not beat the best so far, none after it does.
      if (best != nullptr && (e.priority < best->priority ||
                              (e.priority == best->priority && i > best_idx))) {
        break;
      }
      if ((e.tags & tag_bit) != 0) {
        best = &e;
        best_idx = i;
        break;
      }
    }
  }
  return best;
}

eval::TagMask FlowTable::partition(
    const Packet& p, int64_t in_port, eval::TagMask tags,
    const std::function<void(const FlowEntry&, eval::TagMask)>& cb) const {
  // The matching entries are the chains the packet's key selects, one per
  // tier at most; merge them by (priority desc, install order asc).
  std::array<uint32_t, kMaxTiers> cursor;  // [0, live) is set
  size_t live = 0;
  for (const Tier& t : tiers_) {
    const uint32_t head = probe(t, p, in_port);
    if (head != kNone) cursor[live++] = head;
  }
  eval::TagMask remaining = tags;
  while (remaining != 0 && live != 0) {
    size_t b = 0;
    for (size_t j = 1; j < live; ++j) {
      const FlowEntry& x = entries_[cursor[j]];
      const FlowEntry& y = entries_[cursor[b]];
      if (x.priority > y.priority ||
          (x.priority == y.priority && cursor[j] < cursor[b])) {
        b = j;
      }
    }
    const FlowEntry& e = entries_[cursor[b]];
    const eval::TagMask sub = remaining & e.tags;
    if (sub != 0) {
      cb(e, sub);
      remaining &= ~sub;
    }
    cursor[b] = e.next_;
    if (cursor[b] == kNone) cursor[b] = cursor[--live];
  }
  return remaining;
}

}  // namespace mp::sdn
