#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "ir/alias.hh"
#include "ir/dominators.hh"
#include "ir/liveness.hh"
#include "opt/passes.hh"
#include "support/logging.hh"

namespace ilp {

namespace {

/** Is this instruction a pure register computation, safe to hoist
 *  speculatively? Divides can fault and are excluded. */
bool
hoistablePure(const Instr &in)
{
    if (in.dst == kNoReg)
        return false;
    switch (in.op) {
      case Opcode::DivI:
      case Opcode::RemI:
      case Opcode::DivF:
        return false;
      case Opcode::LiI:
      case Opcode::LiF:
        return true;
      default:
        return (isBinaryAlu(in.op) || isUnaryAlu(in.op));
    }
}

/**
 * Insert a preheader for `loop`: out-of-loop predecessors of the
 * header are retargeted to it; returns the preheader block id.
 */
BlockId
makePreheader(Function &func, const NaturalLoop &loop,
              const Dominators &dom)
{
    BlockId header = loop.header;
    SS_ASSERT(header != 0, "entry block cannot be a loop header here");

    BlockId pre = func.addBlock("preheader.bb" +
                                std::to_string(header));
    for (BlockId p : dom.preds()[header]) {
        if (loop.contains(p))
            continue;
        Instr &t = func.blocks[p].terminator();
        if (t.target0 == header)
            t.target0 = pre;
        if (t.op == Opcode::Br && t.target1 == header)
            t.target1 = pre;
    }
    func.blocks[pre].instrs.push_back(Instr::jmp(header));
    return pre;
}

/**
 * Memory behaviour of one loop: the set of objects it stores to, and
 * whether load hoisting is allowed at all.
 */
struct LoopMem
{
    bool loadsHoistable = true;
    std::set<std::int64_t> storeObjects;
    /** Per loop block, in loop.blocks order and indexed like its
     *  instrs: the object each load reads, -1 when unknown or not a
     *  load. */
    std::vector<std::vector<std::int64_t>> loadObject;
};

LoopMem
analyzeLoopMemory(const Module &module, const Function &func,
                  const NaturalLoop &loop)
{
    LoopMem out;
    for (BlockId b : loop.blocks) {
        const BasicBlock &bb = func.blocks[b];
        BlockAliasAnalysis aa(module, func, bb);
        std::vector<std::int64_t> &objects = out.loadObject.emplace_back(
            bb.instrs.size(), -1);
        for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
            const Instr &in = bb.instrs[i];
            if (in.op == Opcode::Call) {
                out.loadsHoistable = false;
            } else if (isStore(in.op)) {
                std::int64_t obj = aa.refInfo(i).object;
                if (obj == -1)
                    out.loadsHoistable = false;
                else
                    out.storeObjects.insert(obj);
            } else if (isLoad(in.op)) {
                objects[i] = aa.refInfo(i).object;
            }
        }
    }
    return out;
}

} // namespace

int
hoistLoopInvariants(const Module &module, Function &func)
{
    SS_ASSERT(!func.allocated,
              "hoistLoopInvariants needs virtual registers");
    int hoisted_total = 0;

    // Loops are reprocessed from scratch after each change because
    // preheader insertion rewrites the CFG.  Until a loop hoists,
    // nothing in the function changes, so one liveness serves every
    // loop of a round.
    bool any_progress = true;
    std::set<BlockId> processed_headers;
    while (any_progress) {
        any_progress = false;
        Dominators dom(func);
        std::optional<Liveness> live;
        auto loops = findNaturalLoops(func, dom);
        // Innermost first.
        std::sort(loops.begin(), loops.end(),
                  [](const NaturalLoop &a, const NaturalLoop &b) {
                      return a.depth > b.depth;
                  });

        for (const auto &loop : loops) {
            if (processed_headers.count(loop.header))
                continue;
            processed_headers.insert(loop.header);

            // Count definitions of each register inside the loop.
            std::vector<int> defs(func.numVirtRegs, 0);
            for (BlockId b : loop.blocks) {
                for (const auto &in : func.blocks[b].instrs) {
                    if (in.dst != kNoReg)
                        ++defs[in.dst];
                }
            }

            if (!live)
                live.emplace(func);
            LoopMem mem = analyzeLoopMemory(module, func, loop);
            std::set<Reg> hoisted_regs;
            std::vector<Instr> to_preheader;

            // Iterate to a fixpoint so chains of invariants hoist.
            bool changed = true;
            while (changed) {
                changed = false;
                for (std::size_t lb = 0; lb < loop.blocks.size(); ++lb) {
                    auto &instrs = func.blocks[loop.blocks[lb]].instrs;
                    std::vector<std::int64_t> &objects =
                        mem.loadObject[lb];
                    for (std::size_t idx = 0; idx < instrs.size();) {
                        const Instr &in = instrs[idx];
                        bool candidate = hoistablePure(in);
                        if (!candidate && isLoad(in.op) &&
                            mem.loadsHoistable) {
                            std::int64_t obj = objects[idx];
                            candidate =
                                obj != -1 &&
                                !mem.storeObjects.count(obj);
                        }
                        bool ok = candidate && in.dst != kNoReg &&
                                  defs[in.dst] == 1 &&
                                  !live->isLiveIn(loop.header, in.dst) &&
                                  !hoisted_regs.count(in.dst);
                        if (ok) {
                            in.forEachSrc([&](Reg r) {
                                if (defs[r] > 0 &&
                                    !hoisted_regs.count(r))
                                    ok = false;
                            });
                        }
                        if (ok) {
                            to_preheader.push_back(in);
                            hoisted_regs.insert(in.dst);
                            const auto at =
                                static_cast<std::ptrdiff_t>(idx);
                            instrs.erase(instrs.begin() + at);
                            objects.erase(objects.begin() + at);
                            changed = true;
                        } else {
                            ++idx;
                        }
                    }
                }
            }

            if (!to_preheader.empty()) {
                BlockId pre = makePreheader(func, loop, dom);
                auto &pre_instrs = func.blocks[pre].instrs;
                pre_instrs.insert(pre_instrs.begin(),
                                  to_preheader.begin(),
                                  to_preheader.end());
                hoisted_total +=
                    static_cast<int>(to_preheader.size());
                any_progress = true;
                break; // CFG changed; recompute analyses
            }
        }
    }
    return hoisted_total;
}

} // namespace ilp
