/**
 * @file
 * Basic blocks and functions of the intermediate code.
 *
 * A Function owns a vector of BasicBlocks; BlockId is the index into
 * that vector and block 0 is the entry.  Every block ends in exactly
 * one terminator (Br/Jmp/Ret).  Block order in the vector is the
 * layout (and trace emission) order but has no fallthrough semantics.
 *
 * Storage model, mirroring the paper's compiler (§3):
 *  - Every language variable (parameter, local, global scalar) starts
 *    memory-resident: locals/params in the frame at [fp + offset],
 *    globals at absolute addresses.  Global register allocation
 *    (src/opt/regalloc) later promotes hot scalars to "home" registers.
 *  - Expression temporaries are virtual registers with short live
 *    ranges; temp register assignment maps them onto the machine's
 *    temp registers, spilling to the frame when the supply runs out.
 */

#ifndef SUPERSYM_IR_FUNCTION_HH
#define SUPERSYM_IR_FUNCTION_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/instr.hh"

namespace ilp {

struct BasicBlock
{
    BlockId id = kNoBlock;
    std::string label;
    std::vector<Instr> instrs;

    /** The terminator (last instruction). Panics if malformed. */
    const Instr &terminator() const;
    Instr &terminator();

    /** Successor block ids, in (taken, fallthrough) order for Br. */
    std::vector<BlockId> successors() const;
};

/**
 * A frame slot: one word in the activation record, holding a
 * memory-resident local/param or a spill temporary.
 */
struct FrameSlot
{
    std::string name;       ///< for diagnostics and printing
    std::int64_t offset;    ///< byte offset from fp
    bool isFloat = false;
};

struct Function
{
    FuncId id = kNoFunc;
    std::string name;

    /** Virtual (or, post-allocation, physical) registers of params. */
    std::vector<Reg> paramRegs;
    std::vector<bool> paramIsFloat;
    bool returnsValue = false;
    bool returnsFloat = false;

    std::vector<BasicBlock> blocks;

    /** Number of virtual registers in use (pre-allocation). */
    std::uint32_t numVirtRegs = 0;

    /** The virtual register holding the frame pointer at entry. */
    Reg fpReg = kNoReg;

    /** Frame layout: slots for memory-resident variables and spills. */
    std::vector<FrameSlot> frameSlots;
    std::int64_t frameBytes = 0;

    /**
     * Virtual registers pinned to specific physical registers before
     * final assignment: the frame pointer and promoted "home"
     * registers (filled by allocateHomeRegisters).
     */
    std::unordered_map<Reg, Reg> pinnedRegs;

    /** True once register allocation rewrote operands to physical. */
    bool allocated = false;

    /** The register file layout used; meaningful once `allocated`. */
    RegFileLayout layout;

    /** The register holding the frame pointer in the current encoding
     *  (virtual before allocation, layout.fp() after). */
    Reg framePointer() const
    {
        return allocated ? layout.fp() : fpReg;
    }

    /** Register slots one activation needs: the allocated file once
     *  `allocated`, else every virtual register. */
    std::uint32_t registerFileSize() const
    {
        return allocated ? layout.total() : numVirtRegs;
    }

    BasicBlock &entry() { return blocks.front(); }
    const BasicBlock &entry() const { return blocks.front(); }

    /** Append a new empty block and return its id. */
    BlockId addBlock(std::string label = "");

    /** Allocate a fresh virtual register. */
    Reg newVirtReg() { return numVirtRegs++; }

    /** Allocate a frame slot; returns its byte offset from fp. */
    std::int64_t addFrameSlot(std::string name, bool is_float,
                              std::int64_t words = 1);

    /** Total static instruction count across blocks. */
    std::size_t instrCount() const;
};

} // namespace ilp

#endif // SUPERSYM_IR_FUNCTION_HH
