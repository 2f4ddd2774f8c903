#include "core/machine/models.hh"

#include "support/logging.hh"

namespace ilp {

namespace {

void
setLatency(LatencyTable &t, InstrClass cls, int cycles)
{
    t[static_cast<std::size_t>(cls)] = cycles;
}

} // namespace

MachineConfig
baseMachine()
{
    MachineConfig m;
    m.name = "base";
    return m;
}

MachineConfig
idealSuperscalar(int n)
{
    MachineConfig m;
    m.name = "superscalar(" + std::to_string(n) + ")";
    m.issueWidth = n;
    m.validate();
    return m;
}

MachineConfig
superpipelined(int m_degree)
{
    MachineConfig m;
    m.name = "superpipelined(" + std::to_string(m_degree) + ")";
    m.pipelineDegree = m_degree;
    m.validate();
    return m;
}

MachineConfig
superpipelinedSuperscalar(int n, int m_degree)
{
    MachineConfig m;
    m.name = "ss(" + std::to_string(n) + "," + std::to_string(m_degree) +
             ")";
    m.issueWidth = n;
    m.pipelineDegree = m_degree;
    m.validate();
    return m;
}

MachineConfig
underpipelinedHalfIssue()
{
    MachineConfig m;
    m.name = "underpipelined-half-issue";
    FuncUnit all;
    all.name = "universal";
    for (std::size_t c = 0; c < kNumInstrClasses; ++c)
        all.classes.push_back(static_cast<InstrClass>(c));
    all.multiplicity = 1;
    all.issueLatency = 2;
    m.units.push_back(std::move(all));
    m.validate();
    return m;
}

MachineConfig
underpipelinedSlowClock()
{
    // Every operation occupies its (unpipelined) execute+writeback
    // stage for a whole double-length cycle: operations complete two
    // base cycles after issue and a new instruction starts only every
    // other base cycle — the same performance as the half-issue
    // machine, as §2.2 observes.
    MachineConfig m;
    m.name = "underpipelined-slow-clock";
    m.latency = unitLatencies();
    for (auto &l : m.latency)
        l *= 2;
    FuncUnit all;
    all.name = "universal";
    for (std::size_t c = 0; c < kNumInstrClasses; ++c)
        all.classes.push_back(static_cast<InstrClass>(c));
    all.multiplicity = 1;
    all.issueLatency = 2;
    m.units.push_back(std::move(all));
    m.validate();
    return m;
}

MachineConfig
multiTitan()
{
    MachineConfig m;
    m.name = "MultiTitan";
    LatencyTable &t = m.latency;
    setLatency(t, InstrClass::IntAdd, 1);
    setLatency(t, InstrClass::Logical, 1);
    setLatency(t, InstrClass::Shift, 1);
    setLatency(t, InstrClass::Move, 1);
    setLatency(t, InstrClass::IntMul, 3);  // via the FP unit
    setLatency(t, InstrClass::IntDiv, 12); // not a simple operation
    setLatency(t, InstrClass::Load, 2);
    setLatency(t, InstrClass::Store, 2);
    setLatency(t, InstrClass::Branch, 2);
    setLatency(t, InstrClass::Jump, 2);
    setLatency(t, InstrClass::FPAdd, 3);   // "all FP operations are 3"
    setLatency(t, InstrClass::FPMul, 3);
    setLatency(t, InstrClass::FPDiv, 12);  // not a simple operation
    setLatency(t, InstrClass::FPCvt, 3);
    m.validate();
    return m;
}

MachineConfig
cray1(bool unit_latencies)
{
    MachineConfig m;
    m.name = unit_latencies ? "CRAY-1(unit-latency)" : "CRAY-1";
    if (!unit_latencies) {
        LatencyTable &t = m.latency;
        setLatency(t, InstrClass::IntAdd, 3);
        setLatency(t, InstrClass::Logical, 1);
        setLatency(t, InstrClass::Shift, 2);
        setLatency(t, InstrClass::Move, 1);
        setLatency(t, InstrClass::IntMul, 6);  // via FP multiply
        setLatency(t, InstrClass::IntDiv, 14);
        setLatency(t, InstrClass::Load, 11);
        setLatency(t, InstrClass::Store, 1);
        setLatency(t, InstrClass::Branch, 3);
        setLatency(t, InstrClass::Jump, 3);
        setLatency(t, InstrClass::FPAdd, 6);
        setLatency(t, InstrClass::FPMul, 7);
        setLatency(t, InstrClass::FPDiv, 14); // reciprocal approx.
        setLatency(t, InstrClass::FPCvt, 6);
    }
    m.validate();
    return m;
}

MachineConfig
superscalarWithClassConflicts(int n, int alu_copies, int mem_ports)
{
    MachineConfig m;
    m.name = "superscalar(" + std::to_string(n) + ",conflicts)";
    m.issueWidth = n;

    FuncUnit alu;
    alu.name = "int-alu";
    alu.classes = {InstrClass::IntAdd, InstrClass::Logical,
                   InstrClass::Shift, InstrClass::Move};
    alu.multiplicity = alu_copies;
    m.units.push_back(alu);

    FuncUnit imul;
    imul.name = "int-mul";
    imul.classes = {InstrClass::IntMul};
    m.units.push_back(imul);

    FuncUnit idiv;
    idiv.name = "int-div";
    idiv.classes = {InstrClass::IntDiv};
    m.units.push_back(idiv);

    FuncUnit mem;
    mem.name = "mem-port";
    mem.classes = {InstrClass::Load, InstrClass::Store};
    mem.multiplicity = mem_ports;
    m.units.push_back(mem);

    FuncUnit ctrl;
    ctrl.name = "branch";
    ctrl.classes = {InstrClass::Branch, InstrClass::Jump};
    m.units.push_back(ctrl);

    FuncUnit fpadd;
    fpadd.name = "fp-add";
    fpadd.classes = {InstrClass::FPAdd, InstrClass::FPCvt};
    m.units.push_back(fpadd);

    FuncUnit fpmul;
    fpmul.name = "fp-mul";
    fpmul.classes = {InstrClass::FPMul};
    m.units.push_back(fpmul);

    FuncUnit fpdiv;
    fpdiv.name = "fp-div";
    fpdiv.classes = {InstrClass::FPDiv};
    m.units.push_back(fpdiv);

    m.validate();
    return m;
}

} // namespace ilp
