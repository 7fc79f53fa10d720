// Immutable open-addressing index from names to 32-bit values.
//
// Start-up tables keyed by symbol name (DynCaPI's fid<->name map, the
// inlining oracle's symbol set) hold tens of thousands of names that are
// inserted once and then only probed. A std::string-keyed node container
// pays an allocation and a copy per name and a pointer chase per probe.
// Here each name is copied once into one contiguous char arena, and the
// table is a flat array of slots {full hash, arena offset, length, value}:
// power-of-two capacity at <= 50% load, linear probing, and a probe touches
// the name's bytes only after its 64-bit hash matched.
//
// The capacity is fixed at construction from an upper bound on the distinct
// names, so a name's entry (its slot) never moves: callers may keep entries
// in their own tables. Views returned by name() stay valid until the next
// insert; an index that is built once and then only read never invalidates
// them.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace capi::support {

class NameIndex {
public:
    using Entry = std::uint32_t;
    /// Entry sentinel for callers' tables ("no name"); never returned.
    static constexpr Entry kNoEntry = UINT32_MAX;

    /// An index with room for up to `maxNames` distinct names.
    explicit NameIndex(std::size_t maxNames = 0)
        : slots_(std::bit_ceil(std::max<std::size_t>(2 * maxNames, 2))) {}

    /// Adds `name` with `value` and returns its entry. A name already
    /// present keeps its first value and entry. Throws std::length_error
    /// beyond the constructor's bound or a 4 GiB arena.
    Entry insert(std::string_view name, std::uint32_t value) {
        const std::uint64_t hash = hashOf(name);
        const std::size_t entry = probe(name, hash);
        Slot& slot = slots_[entry];
        if (slot.offset == kEmpty) {
            if (2 * (size_ + 1) > slots_.size() ||
                arena_.size() + name.size() >= kEmpty) {
                throw std::length_error("NameIndex: capacity exceeded");
            }
            slot = {hash, static_cast<std::uint32_t>(arena_.size()),
                    static_cast<std::uint32_t>(name.size()), value};
            arena_.append(name);
            ++size_;
        }
        return static_cast<Entry>(entry);
    }

    /// The value inserted first under `name`; nullopt when absent.
    std::optional<std::uint32_t> find(std::string_view name) const {
        const Slot& slot = slots_[probe(name, hashOf(name))];
        if (slot.offset == kEmpty) {
            return std::nullopt;
        }
        return slot.value;
    }

    bool contains(std::string_view name) const { return find(name).has_value(); }

    /// The name of an entry insert() returned, viewing the arena.
    std::string_view name(Entry entry) const { return nameOf(slots_[entry]); }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }

private:
    static constexpr std::uint32_t kEmpty = UINT32_MAX;

    struct Slot {
        std::uint64_t hash = 0;
        std::uint32_t offset = kEmpty;  ///< Into arena_; kEmpty = free slot.
        std::uint32_t length = 0;
        std::uint32_t value = 0;
    };

    static std::uint64_t hashOf(std::string_view name) {
        return std::hash<std::string_view>{}(name);
    }

    std::string_view nameOf(const Slot& slot) const {
        return {arena_.data() + slot.offset, slot.length};
    }

    /// The slot holding `name`, else the free slot that ends its chain (one
    /// exists: the load never exceeds one half).
    std::size_t probe(std::string_view name, std::uint64_t hash) const {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
            const Slot& slot = slots_[i];
            if (slot.offset == kEmpty ||
                (slot.hash == hash && nameOf(slot) == name)) {
                return i;
            }
        }
    }

    std::vector<Slot> slots_;
    std::string arena_;
    std::size_t size_ = 0;
};

}  // namespace capi::support
