#include "ir/liveness.hh"
#include "opt/passes.hh"
#include "support/logging.hh"

namespace ilp {

int
eliminateDeadCode(Function &func)
{
    SS_ASSERT(!func.allocated,
              "eliminateDeadCode needs virtual registers");
    const Reg nr = func.numVirtRegs;
    int removed_total = 0;
    std::vector<Liveness::Word> live_now;

    while (true) {
        Liveness live(func);
        int removed = 0;

        for (auto &bb : func.blocks) {
            // Walk backwards with a running live set.  Kept
            // instructions collect at the end of the block, in
            // [kept, size), and the dead prefix is erased after.
            const Liveness::Word *out = live.liveOutWords(bb.id);
            live_now.assign(out, out + live.words());
            auto &instrs = bb.instrs;
            std::size_t kept = instrs.size();

            for (std::size_t i = instrs.size(); i-- > 0;) {
                Instr &in = instrs[i];
                bool needed = in.hasSideEffect();
                if (!needed && in.dst != kNoReg && in.dst < nr &&
                    Liveness::contains(live_now.data(), in.dst))
                    needed = true;
                if (!needed && in.dst == kNoReg)
                    needed = true; // defensive: keep odd instructions

                if (!needed) {
                    ++removed;
                    continue;
                }
                if (in.dst != kNoReg && in.dst < nr)
                    Liveness::erase(live_now.data(), in.dst);
                in.forEachSrc([&](Reg r) {
                    if (r < nr)
                        Liveness::insert(live_now.data(), r);
                });
                if (--kept != i)
                    instrs[kept] = std::move(in);
            }
            instrs.erase(instrs.begin(),
                         instrs.begin() +
                             static_cast<std::ptrdiff_t>(kept));
        }

        removed_total += removed;
        if (!removed)
            break;
    }
    // Removal leaves spare capacity behind; give it back once.
    for (auto &bb : func.blocks)
        bb.instrs.shrink_to_fit();
    return removed_total;
}

} // namespace ilp
