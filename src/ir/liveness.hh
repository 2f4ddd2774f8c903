/**
 * @file
 * Per-block live-in/live-out sets over virtual registers.
 *
 * Every set is bit-packed: register r is bit r % 64 of word r / 64,
 * and one block's set is words() consecutive 64-bit words of a flat
 * array indexed by block id.  The constructor builds each block's use
 * (upward-exposed) and def sets and its successor list once, then
 * applies out[b] = union of in[s] over successors s and
 * in[b] = use[b] | (out[b] & ~def[b]) until no word changes.  Both
 * equations are monotone and start from empty sets, so the result is
 * their least fixpoint whatever order the blocks are visited in;
 * reverse layout order only gets there in fewer sweeps.
 *
 * A Liveness is a snapshot of one function: any edit to its
 * instructions or CFG makes it stale, and nothing updates it.  Its
 * users rebuild it: every round of dead-code elimination (its
 * backwards walk reads the live-out words) and of reassociation, once
 * per CFG change in loop-invariant code motion, and once per spill
 * round of temp register assignment (whose live intervals start and
 * end at the live-in and live-out words).
 */

#ifndef SUPERSYM_IR_LIVENESS_HH
#define SUPERSYM_IR_LIVENESS_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "ir/function.hh"

namespace ilp {

class Liveness
{
  public:
    using Word = std::uint64_t;
    static constexpr unsigned kWordBits = 64;

    explicit Liveness(const Function &func);

    /** Words in every block's set: ceil(numVirtRegs / 64). */
    std::size_t words() const { return words_; }

    /** Registers live on entry to block `b`, as words() words. */
    const Word *liveInWords(BlockId b) const
    {
        return live_in_.data() + static_cast<std::size_t>(b) * words_;
    }
    /** Registers live on exit from block `b`, as words() words. */
    const Word *liveOutWords(BlockId b) const
    {
        return live_out_.data() + static_cast<std::size_t>(b) * words_;
    }

    bool isLiveIn(BlockId b, Reg r) const
    {
        return contains(liveInWords(b), r);
    }
    bool isLiveOut(BlockId b, Reg r) const
    {
        return contains(liveOutWords(b), r);
    }

    /** True if `r` is live across any block boundary. */
    bool crossesBlocks(Reg r) const;

    // Bit access to one set of words (a block's, or a copy of one).
    static bool contains(const Word *set, Reg r)
    {
        return (set[r / kWordBits] >> (r % kWordBits)) & 1;
    }
    static void insert(Word *set, Reg r)
    {
        set[r / kWordBits] |= Word{1} << (r % kWordBits);
    }
    static void erase(Word *set, Reg r)
    {
        set[r / kWordBits] &= ~(Word{1} << (r % kWordBits));
    }
    /** Calls fn(r) for every register in `set`, in increasing order. */
    template <typename Fn>
    static void
    forEach(const Word *set, std::size_t words, Fn &&fn)
    {
        for (std::size_t w = 0; w < words; ++w) {
            for (Word m = set[w]; m; m &= m - 1)
                fn(static_cast<Reg>(w * kWordBits +
                                    std::countr_zero(m)));
        }
    }

  private:
    std::size_t blocks_ = 0;
    std::size_t words_ = 0;
    std::vector<Word> live_in_;
    std::vector<Word> live_out_;
};

} // namespace ilp

#endif // SUPERSYM_IR_LIVENESS_HH
