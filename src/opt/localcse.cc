#include <bit>
#include <unordered_map>
#include <vector>

#include "opt/passes.hh"
#include "support/logging.hh"

namespace ilp {

namespace {

/**
 * Block-local value numbering.  Every register maps to a value number;
 * expressions (op, operand VNs, imm) are memoized.  A VN may be
 * "available" in some register; when a later instruction recomputes an
 * available VN it becomes a register move (which copy propagation then
 * makes dead).  Loads are value-numbered against a memory epoch that
 * stores and calls bump.
 *
 * One FunctionVN serves every block of a function: the register->VN
 * table is indexed by virtual register and reset through the list of
 * registers the block touched, and the VN->holder table and the
 * expression table are cleared between blocks, so VNs restart at 0
 * in every block.
 */
class FunctionVN
{
  public:
    explicit FunctionVN(const Function &func)
        : reg_vn_(func.numVirtRegs, kNoVN)
    {
    }

    int
    run(BasicBlock &bb)
    {
        int changed = 0;
        for (auto &in : bb.instrs) {
            changed += propagateCopies(in);
            changed += numberAndRewrite(in);
        }
        for (Reg r : touched_)
            reg_vn_[r] = kNoVN;
        touched_.clear();
        vn_holder_.clear();
        exprs_.clear();
        mem_epoch_ = 0;
        return changed;
    }

  private:
    static constexpr int kNoVN = -1;

    struct Key
    {
        Opcode op;
        int v1, v2;
        bool hasImm;
        std::int64_t imm;
        std::uint64_t extra;

        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const
        {
            std::uint64_t h = static_cast<std::uint64_t>(k.op);
            auto mix = [&](std::uint64_t v) {
                h = (h ^ v) * 0x9e3779b97f4a7c15ull;
                h ^= h >> 29;
            };
            mix(static_cast<std::uint32_t>(k.v1));
            mix(static_cast<std::uint32_t>(k.v2));
            mix(static_cast<std::uint64_t>(k.imm) ^ k.hasImm);
            mix(k.extra);
            return static_cast<std::size_t>(h);
        }
    };

    int
    freshVN()
    {
        vn_holder_.push_back(kNoReg);
        return static_cast<int>(vn_holder_.size()) - 1;
    }

    int
    vnOf(Reg r)
    {
        if (reg_vn_[r] != kNoVN)
            return reg_vn_[r];
        int vn = freshVN();
        reg_vn_[r] = vn;
        touched_.push_back(r);
        // The block-entry register is the canonical holder of its own
        // value, so copies of it propagate back to it (not the other
        // way around).
        vn_holder_[vn] = r;
        return vn;
    }

    void
    defineReg(Reg r, int vn)
    {
        // The old value this register held is no longer available in
        // it.
        const int old = reg_vn_[r];
        if (old == kNoVN)
            touched_.push_back(r);
        else if (vn_holder_[old] == r)
            vn_holder_[old] = kNoReg;
        reg_vn_[r] = vn;
        if (vn_holder_[vn] == kNoReg)
            vn_holder_[vn] = r;
    }

    /** Rewrite sources to the canonical holder of their VN. */
    int
    propagateCopies(Instr &in)
    {
        int changed = 0;
        in.rewriteSrcs([&](Reg r) {
            int vn = vnOf(r);
            Reg h = vn_holder_[vn];
            if (h != kNoReg && h != r) {
                ++changed;
                return h;
            }
            return r;
        });
        return changed;
    }

    int
    numberAndRewrite(Instr &in)
    {
        // Effects first: stores and calls invalidate memory values.
        if (isStore(in.op) || in.op == Opcode::Call) {
            ++mem_epoch_;
            if (in.op == Opcode::Call && in.dst != kNoReg)
                defineReg(in.dst, freshVN());
            return 0;
        }
        if (in.dst == kNoReg)
            return 0;

        // Moves: alias the VN.
        if (in.op == Opcode::MovI || in.op == Opcode::MovF) {
            defineReg(in.dst, vnOf(in.src1));
            return 0;
        }

        // Expression key.  LiF uses the double's bit pattern.
        bool memoizable =
            isBinaryAlu(in.op) || isUnaryAlu(in.op) ||
            in.op == Opcode::LiI || in.op == Opcode::LiF ||
            isLoad(in.op);
        if (!memoizable) {
            defineReg(in.dst, freshVN());
            return 0;
        }

        int v1 = in.src1 != kNoReg ? vnOf(in.src1) : -1;
        int v2 = in.src2 != kNoReg ? vnOf(in.src2) : -1;
        // Canonicalize commutative register-register forms.
        if (!in.hasImm && isCommutative(in.op) && v2 >= 0 && v1 > v2)
            std::swap(v1, v2);
        std::uint64_t extra = 0;
        if (in.op == Opcode::LiF) {
            extra = std::bit_cast<std::uint64_t>(in.fimm);
        } else if (isLoad(in.op)) {
            extra = mem_epoch_;
        }
        // A load's displacement always sits in the key's imm slot.
        Key key = isLoad(in.op)
                      ? Key{in.op, v1, v2, true, in.imm, extra}
                      : Key{in.op, v1, v2, in.hasImm,
                            in.hasImm ? in.imm : 0, extra};

        auto [it, inserted] = exprs_.try_emplace(key, 0);
        if (!inserted) {
            Reg h = vn_holder_[it->second];
            if (h != kNoReg && h != in.dst) {
                // Redundant: rewrite to a move from the holder.
                Opcode mv = producesFloat(in.op) ? Opcode::MovF
                                                 : Opcode::MovI;
                in = Instr::unary(mv, in.dst, h).at(in.loc);
                defineReg(in.dst, it->second);
                return 1;
            }
            defineReg(in.dst, it->second);
            return 0;
        }
        int vn = freshVN();
        it->second = vn;
        defineReg(in.dst, vn);
        return 0;
    }

    /** VN of each virtual register in this block, or kNoVN. */
    std::vector<int> reg_vn_;
    /** Registers whose reg_vn_ entry this block set. */
    std::vector<Reg> touched_;
    /** Register holding each VN, or kNoReg. */
    std::vector<Reg> vn_holder_;
    std::unordered_map<Key, int, KeyHash> exprs_;
    std::uint64_t mem_epoch_ = 0;
};

} // namespace

int
globalCopyPropagation(Function &func)
{
    SS_ASSERT(!func.allocated,
              "globalCopyPropagation needs virtual registers");
    // Definition counts over the whole function.
    std::vector<int> defs(func.numVirtRegs, 0);
    for (const auto &bb : func.blocks) {
        for (const auto &in : bb.instrs) {
            if (in.dst != kNoReg)
                ++defs[in.dst];
        }
    }

    // mov a <- b with a and b both defined exactly once: every read
    // of a sees that single def, whose value is b's single def, so
    // a's uses can read b directly (b's definition necessarily
    // executed first).  Parameters and the frame pointer count as
    // extra definitions.
    for (Reg p : func.paramRegs)
        ++defs[p];
    if (func.fpReg != kNoReg)
        ++defs[func.fpReg];

    std::unordered_map<Reg, Reg> fwd;
    for (const auto &bb : func.blocks) {
        for (const auto &in : bb.instrs) {
            if ((in.op == Opcode::MovI || in.op == Opcode::MovF) &&
                in.dst != kNoReg && in.src1 != kNoReg &&
                in.dst != in.src1 && defs[in.dst] == 1 &&
                defs[in.src1] == 1)
                fwd[in.dst] = in.src1;
        }
    }
    if (fwd.empty())
        return 0;

    auto resolve = [&](Reg r) {
        int guard = 0;
        while (fwd.count(r) && ++guard < 1000)
            r = fwd[r];
        return r;
    };

    int changed = 0;
    for (auto &bb : func.blocks) {
        for (auto &in : bb.instrs) {
            in.rewriteSrcs([&](Reg r) {
                Reg to = resolve(r);
                if (to != r)
                    ++changed;
                return to;
            });
        }
    }
    return changed; // the dead movs fall to DCE
}

int
localValueNumbering(Function &func)
{
    SS_ASSERT(!func.allocated,
              "localValueNumbering needs virtual registers");
    int changed = 0;
    FunctionVN vn(func);
    for (auto &bb : func.blocks)
        changed += vn.run(bb);
    return changed;
}

} // namespace ilp
