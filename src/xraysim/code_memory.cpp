#include "xraysim/code_memory.hpp"

#include "support/fault.hpp"
#include "xraysim/sled.hpp"

namespace capi::xray {

CodeMemory::CodeMemory(std::uint64_t bytes) {
    pageCount_ = (bytes + kPageSize - 1) / kPageSize;
    if (pageCount_ == 0) {
        pageCount_ = 1;
    }
    cells_.resize(pageCount_ * kPageSize / kSledBytes);
    writable_.assign(pageCount_, false);
}

std::uint64_t CodeMemory::cellIndex(std::uint64_t address) const {
    std::uint64_t index = address / kSledBytes;
    if (index >= cells_.size()) {
        throw support::MachineFault("code access out of bounds: address " +
                                    std::to_string(address));
    }
    return index;
}

void CodeMemory::mprotect(std::uint64_t address, std::uint64_t length, bool writable) {
    if (length == 0) {
        return;
    }
    std::uint64_t firstPage = address / kPageSize;
    std::uint64_t lastPage = (address + length - 1) / kPageSize;
    if (lastPage >= pageCount_) {
        throw support::MachineFault("mprotect out of bounds: address " +
                                    std::to_string(address) + " length " +
                                    std::to_string(length));
    }
    // Injection site: a real mprotect can fail mid-transaction (vma limit,
    // memory pressure). Modeled as the syscall failing before any page of
    // this call changes protection.
    if (support::fault::shouldFail(support::fault::sites::kXrayMprotect)) {
        throw support::MachineFault("injected fault: mprotect failed at address " +
                                    std::to_string(address));
    }
    ++mprotectCalls_;
    for (std::uint64_t page = firstPage; page <= lastPage; ++page) {
        if (writable && !writable_[page]) {
            ++pagesMadeWritable_;  // copy-on-write fault on first write path
        }
        writable_[page] = writable;
    }
}

bool CodeMemory::pageWritable(std::uint64_t address) const {
    std::uint64_t page = address / kPageSize;
    if (page >= pageCount_) {
        throw support::MachineFault("page query out of bounds");
    }
    return writable_[page];
}

const CodeCell& CodeMemory::read(std::uint64_t address) const {
    return cells_[cellIndex(address)];
}

void CodeMemory::write(std::uint64_t address, CodeCell cell) {
    std::uint64_t index = cellIndex(address);
    if (!writable_[address / kPageSize]) {
        throw support::MachineFault(
            "write to execute-only code page at address " + std::to_string(address) +
            " (missing mprotect before patching)");
    }
    // Injection site: a sled flip dies mid-page-run (the COW copy faulted,
    // the page went away under memory pressure). Fails before the cell is
    // touched, so the aborted write leaves the old bytes intact.
    if (support::fault::shouldFail(support::fault::sites::kXraySledWrite)) {
        throw support::MachineFault("injected fault: sled write failed at address " +
                                    std::to_string(address));
    }
    cells_[index] = cell;
}

}  // namespace capi::xray
