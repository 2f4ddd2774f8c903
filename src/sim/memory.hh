/**
 * @file
 * Flat word-addressed data memory for the functional simulator.
 *
 * Layout: [0, kGlobalBase) is unmapped (so address 0 faults),
 * globals occupy [kGlobalBase, globalEnd), and the stack grows upward
 * from a guard page above the globals.  Every access must be
 * word-aligned; out-of-range or misaligned accesses are reported as
 * fatal() — they indicate a broken workload program, not a simulator
 * bug.
 *
 * The image is one anonymous mapping, which the kernel zero-fills a
 * page at a time on first touch: the pages of the globals and stack
 * a run never touches are never resident.
 */

#ifndef SUPERSYM_SIM_MEMORY_HH
#define SUPERSYM_SIM_MEMORY_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "ir/module.hh"

namespace ilp {

class Memory
{
  public:
    /**
     * @param module      Supplies global layout and initializers.
     * @param stack_bytes Stack segment size.
     */
    explicit Memory(const Module &module,
                    std::int64_t stack_bytes = 1 << 20);

    std::uint64_t loadWord(std::int64_t addr) const;
    void storeWord(std::int64_t addr, std::uint64_t value);

    /** Base byte address of the stack segment. */
    std::int64_t stackBase() const { return stack_base_; }
    /** One-past-the-end byte address of the memory. */
    std::int64_t limit() const
    {
        return static_cast<std::int64_t>(size_) * kWordBytes;
    }

    /** Read word `index` of global `name` (tests/checksums). */
    std::uint64_t readGlobal(const Module &module,
                             const std::string &name,
                             std::int64_t index = 0) const;

  private:
    void check(std::int64_t addr) const;

    /** Unmaps the image. */
    struct Unmap
    {
        std::size_t bytes;
        void operator()(std::uint64_t *words) const;
    };

    std::unique_ptr<std::uint64_t[], Unmap> words_;
    /** Words in the image. */
    std::size_t size_ = 0;
    std::int64_t stack_base_ = 0;
};

} // namespace ilp

#endif // SUPERSYM_SIM_MEMORY_HH
