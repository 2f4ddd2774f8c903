/**
 * Pins the optimizing compiler's output: recompiles every
 * configuration of perfbench's compile_sweep workload (Figure 4-8's
 * five levels on five machines, and Figure 4-6's unrolling on base
 * and ss8) and compares the FNV-1a-64 digest of each printed module
 * with perfbench/refs/compile_sweep.tsv, read in place.  Any pass
 * change that moves one instruction of one workload fails here.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/machine/models.hh"
#include "core/study/driver.hh"
#include "ir/printer.hh"

namespace ilp {
namespace {

struct Job
{
    std::string id;
    const Workload *workload = nullptr;
    MachineConfig target;
    CompileOptions options;
};

MachineConfig
named(MachineConfig m, const std::string &name)
{
    m.name = name;
    return m;
}

/** The same ids, machines and options, in the same order, as
 *  compileJobs() in perfbench/driver.cc. */
std::vector<Job>
compileJobs()
{
    const std::vector<MachineConfig> targets{
        named(baseMachine(), "base"),
        named(idealSuperscalar(4), "ss4"),
        named(idealSuperscalar(8), "ss8"),
        named(multiTitan(), "multititan"),
        named(cray1(), "cray1"),
    };
    std::vector<Job> jobs;
    for (const Workload &w : allWorkloads()) {
        for (int level = 0; level < 5; ++level) {
            for (const MachineConfig &t : targets) {
                CompileOptions o = defaultCompileOptions(w);
                o.level = static_cast<OptLevel>(level);
                jobs.push_back({w.name + "/L" + std::to_string(level) +
                                    "/" + t.name,
                                &w, t, o});
            }
        }
    }
    for (const char *name : {"linpack", "livermore"}) {
        const Workload &w = workloadByName(name);
        for (int factor : {1, 2, 4, 6, 8, 10}) {
            for (bool careful : {false, true}) {
                for (const MachineConfig &t : {targets[0], targets[2]}) {
                    CompileOptions o = defaultCompileOptions(w);
                    o.unroll.factor = factor;
                    o.unroll.careful = careful;
                    o.alias = careful ? AliasLevel::Heroic
                                      : AliasLevel::Arrays;
                    o.layout.numTemp = 40;
                    jobs.push_back({w.name + "/u" +
                                        std::to_string(factor) +
                                        (careful ? "-careful/"
                                                 : "-naive/") +
                                        t.name,
                                    &w, t, o});
                }
            }
        }
    }
    return jobs;
}

std::string
fnv1a64Hex(const std::string &text)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** id -> digest rows of a perfbench reference table. */
std::map<std::string, std::string>
loadReference(const std::string &path)
{
    std::map<std::string, std::string> table;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t tab = line.find('\t');
        if (line.empty() || line[0] == '#' || tab == std::string::npos)
            continue;
        table[line.substr(0, tab)] = line.substr(tab + 1);
    }
    return table;
}

TEST(CompileDigestTest, EveryCompileSweepModuleMatchesItsReference)
{
    const std::map<std::string, std::string> refs = loadReference(
        std::string(SS_SOURCE_DIR) + "/perfbench/refs/compile_sweep.tsv");
    const std::vector<Job> jobs = compileJobs();
    ASSERT_EQ(jobs.size(), 248u);
    ASSERT_EQ(refs.size(), jobs.size());

    for (const Job &j : jobs) {
        auto ref = refs.find(j.id);
        ASSERT_NE(ref, refs.end()) << j.id << " has no reference";
        Result<Module> r = compileWorkloadChecked(
            j.workload->source, j.target, j.options, nullptr,
            j.workload->name);
        ASSERT_TRUE(r.ok()) << j.id << ": " << r.formatErrors();
        EXPECT_EQ(fnv1a64Hex(toString(r.take())), ref->second) << j.id;
    }
}

} // namespace
} // namespace ilp
