#include "sim/memory.hh"

#include <new>

#include <sys/mman.h>

#include "sim/trap.hh"
#include "support/logging.hh"

namespace ilp {

namespace {

/** Guard gap between the global segment and the stack. */
constexpr std::int64_t kStackGuard = 0x1000;

} // namespace

Memory::Memory(const Module &module, std::int64_t stack_bytes)
{
    std::int64_t global_end = module.globalEnd();
    stack_base_ = (global_end + kStackGuard + kWordBytes - 1) &
                  ~(kWordBytes - 1);
    std::int64_t total = stack_base_ + stack_bytes;
    size_ = static_cast<std::size_t>(total / kWordBytes);
    const std::size_t bytes = size_ * sizeof(std::uint64_t);
    void *image = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (image == MAP_FAILED)
        throw std::bad_alloc();
    words_ = {static_cast<std::uint64_t *>(image), Unmap{bytes}};

    for (const auto &g : module.globals()) {
        for (std::size_t i = 0; i < g.init.size(); ++i)
            words_[static_cast<std::size_t>(g.address / kWordBytes) +
                   i] = g.init[i];
    }
}

void
Memory::Unmap::operator()(std::uint64_t *words) const
{
    ::munmap(words, bytes);
}

void
Memory::check(std::int64_t addr) const
{
    // Workload faults; the faulting function name is attributed by
    // the interpreter frame the exception unwinds through.
    if (addr < kGlobalBase || addr + kWordBytes > limit())
        throw TrapException(
            Trap{ErrCode::TrapOutOfBoundsMemory, "",
                 "memory access out of range: address " +
                     std::to_string(addr)});
    if (addr % kWordBytes != 0)
        throw TrapException(
            Trap{ErrCode::TrapMisalignedMemory, "",
                 "misaligned memory access: address " +
                     std::to_string(addr)});
}

std::uint64_t
Memory::loadWord(std::int64_t addr) const
{
    check(addr);
    return words_[static_cast<std::size_t>(addr / kWordBytes)];
}

void
Memory::storeWord(std::int64_t addr, std::uint64_t value)
{
    check(addr);
    words_[static_cast<std::size_t>(addr / kWordBytes)] = value;
}

std::uint64_t
Memory::readGlobal(const Module &module, const std::string &name,
                   std::int64_t index) const
{
    const GlobalVar *g = module.findGlobal(name);
    SS_ASSERT(g, "readGlobal: unknown global ", name);
    SS_ASSERT(index >= 0 && index < g->words,
              "readGlobal: index out of range for ", name);
    return loadWord(g->address + index * kWordBytes);
}

} // namespace ilp
