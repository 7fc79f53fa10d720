// Simulated process code memory with page-protection semantics.
//
// Models the part of the machine XRay's patching interacts with: executable
// pages that must be remapped writable (mprotect + copy-on-write) before a
// sled can be rewritten, and remapped back afterwards. Addresses are byte
// addresses into a flat simulated text segment; instructions are one record
// per sled slot. Writing through a non-writable page raises MachineFault,
// exactly the failure mode a buggy patcher would trigger as a SIGSEGV.
#pragma once

#include <cstdint>
#include <vector>

#include "support/error.hpp"

namespace capi::xray {

inline constexpr std::uint64_t kPageSize = 4096;

/// The instruction occupying one sled slot (or plain function body bytes).
enum class Instr : std::uint8_t {
    NopSled,            ///< Unpatched sled: falls through, no effect.
    JmpEntryTrampoline, ///< Patched entry sled.
    JmpExitTrampoline,  ///< Patched exit sled.
    JmpTailTrampoline,  ///< Patched tail-call exit sled.
    Body,               ///< Ordinary function body bytes (never patched).
};

/// One sled-granular memory cell: the instruction plus its operand (the
/// trampoline slot a patched sled jumps through).
struct CodeCell {
    Instr instr = Instr::Body;
    std::uint32_t operand = 0;
};

class CodeMemory {
public:
    /// Creates `bytes` of code memory, rounded up to whole pages, all cells
    /// Body, all pages execute-only.
    explicit CodeMemory(std::uint64_t bytes);

    std::uint64_t sizeBytes() const { return pageCount_ * kPageSize; }

    /// Changes protection of all pages intersecting [address, address+length).
    /// Counts distinct pages transitioned to writable (COW page touches).
    void mprotect(std::uint64_t address, std::uint64_t length, bool writable);

    bool pageWritable(std::uint64_t address) const;

    const CodeCell& read(std::uint64_t address) const;

    /// Throws support::MachineFault when the containing page is not writable.
    void write(std::uint64_t address, CodeCell cell);

    // --- statistics ---------------------------------------------------------
    std::uint64_t mprotectCalls() const { return mprotectCalls_; }
    std::uint64_t pagesMadeWritable() const { return pagesMadeWritable_; }

private:
    std::uint64_t cellIndex(std::uint64_t address) const;

    std::uint64_t pageCount_ = 0;
    std::vector<CodeCell> cells_;     ///< One cell per kSledBytes slot.
    std::vector<bool> writable_;      ///< Per page.
    std::uint64_t mprotectCalls_ = 0;
    std::uint64_t pagesMadeWritable_ = 0;
};

}  // namespace capi::xray
