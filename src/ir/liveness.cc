#include "ir/liveness.hh"

#include "support/logging.hh"

namespace ilp {

Liveness::Liveness(const Function &func)
{
    SS_ASSERT(!func.allocated,
              "liveness runs on virtual-register code");
    const std::size_t nb = func.blocks.size();
    const std::size_t nw = (func.numVirtRegs + kWordBits - 1) / kWordBits;
    blocks_ = nb;
    words_ = nw;
    live_in_.assign(nb * nw, 0);
    live_out_.assign(nb * nw, 0);

    // Per-block use (upward-exposed) and def sets, and every block's
    // successors in one flat array: block b's are
    // succs[succ_begin[b] .. succ_begin[b + 1]).
    std::vector<Word> use(nb * nw, 0);
    std::vector<Word> def(nb * nw, 0);
    std::vector<BlockId> succs;
    std::vector<std::size_t> succ_begin(nb + 1, 0);
    for (std::size_t b = 0; b < nb; ++b) {
        const BasicBlock &bb = func.blocks[b];
        Word *u = use.data() + b * nw;
        Word *d = def.data() + b * nw;
        for (const Instr &in : bb.instrs) {
            in.forEachSrc([&](Reg r) {
                if (!contains(d, r))
                    insert(u, r);
            });
            if (in.dst != kNoReg)
                insert(d, in.dst);
        }
        succ_begin[b] = succs.size();
        for (BlockId s : bb.successors())
            succs.push_back(s);
    }
    succ_begin[nb] = succs.size();

    bool changed = true;
    while (changed) {
        changed = false;
        // Reverse layout order approximates reverse topological order,
        // so most values settle in one sweep.
        for (std::size_t b = nb; b-- > 0;) {
            Word *out = live_out_.data() + b * nw;
            Word *in = live_in_.data() + b * nw;
            const Word *u = use.data() + b * nw;
            const Word *d = def.data() + b * nw;
            for (std::size_t w = 0; w < nw; ++w) {
                Word o = out[w];
                for (std::size_t k = succ_begin[b]; k < succ_begin[b + 1]; ++k)
                    o |= liveInWords(succs[k])[w];
                const Word i = u[w] | (o & ~d[w]);
                changed |= o != out[w] || i != in[w];
                out[w] = o;
                in[w] = i;
            }
        }
    }
}

bool
Liveness::crossesBlocks(Reg r) const
{
    for (std::size_t b = 0; b < blocks_; ++b) {
        const auto id = static_cast<BlockId>(b);
        if (isLiveIn(id, r) || isLiveOut(id, r))
            return true;
    }
    return false;
}

} // namespace ilp
