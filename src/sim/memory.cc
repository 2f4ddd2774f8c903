#include "sim/memory.hh"

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
    words_ = WordTable(size_);

    for (const auto &g : module.globals()) {
        for (std::size_t i = 0; i < g.init.size(); ++i)
            words_[static_cast<std::size_t>(g.address / kWordBytes) +
                   i] = g.init[i];
    }
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
