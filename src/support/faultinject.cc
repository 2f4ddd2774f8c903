#include "support/faultinject.hh"

#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include <unistd.h>

#include "support/diag.hh"
#include "support/logging.hh"

namespace ilp::fault {

namespace {

enum class Kind
{
    Alloc,
    Trap,
    Exit,
};

struct Rule
{
    std::string site; ///< Injection point name, or "*".
    Kind kind = Kind::Trap;
    /** Firing threshold: draw < threshold fires.  Precomputed from
     *  the rate so the hot path is one integer compare. */
    std::uint64_t threshold = 0;
    std::uint64_t seed = 0;
    /** Per-rule draw counter — the deterministic index stream. */
    std::atomic<std::uint64_t> draws{0};
};

struct Plan
{
    std::vector<std::unique_ptr<Rule>> rules;
};

std::atomic<bool> armed{false};
std::atomic<std::uint64_t> injected{0};

std::mutex &
planMutex()
{
    static std::mutex mu;
    return mu;
}

std::shared_ptr<Plan> &
planSlot()
{
    static std::shared_ptr<Plan> plan;
    return plan;
}

std::shared_ptr<Plan>
currentPlan()
{
    std::lock_guard<std::mutex> lock(planMutex());
    return planSlot();
}

/** splitmix64: the standard 64-bit finalizing mixer — every input
 *  bit avalanches, so (seed ^ site ^ index) streams are effectively
 *  independent uniform draws. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
siteHash(const char *site)
{
    // FNV-1a, matching the repo's other string hashes.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char *p = site; *p; ++p)
        h = (h ^ static_cast<unsigned char>(*p)) *
            0x100000001b3ull;
    return h;
}

bool
siteMatches(const Rule &rule, const char *site)
{
    return rule.site == "*" || rule.site == site;
}

/** One deterministic draw; true when the rule fires at this index. */
bool
drawFires(Rule &rule, const char *site)
{
    const std::uint64_t idx =
        rule.draws.fetch_add(1, std::memory_order_relaxed);
    if (rule.kind == Kind::Exit)
        return idx == rule.seed;
    if (rule.threshold == 0)
        return false;
    return mix64(rule.seed ^ siteHash(site) ^ idx) < rule.threshold;
}

void
countInjection()
{
    injected.fetch_add(1, std::memory_order_relaxed);
}

bool
parseRule(const std::string &text, Rule &out)
{
    // site:kind:rate:seed — site never contains ':'.
    std::vector<std::string> f;
    std::size_t start = 0;
    while (true) {
        const std::size_t colon = text.find(':', start);
        if (colon == std::string::npos) {
            f.push_back(text.substr(start));
            break;
        }
        f.push_back(text.substr(start, colon - start));
        start = colon + 1;
    }
    if (f.size() != 4 || f[0].empty())
        return false;
    out.site = f[0];

    if (f[1] == "alloc")
        out.kind = Kind::Alloc;
    else if (f[1] == "trap")
        out.kind = Kind::Trap;
    else if (f[1] == "exit")
        out.kind = Kind::Exit;
    else
        return false;

    char *end = nullptr;
    const double rate = std::strtod(f[2].c_str(), &end);
    if (!end || *end != '\0' || !(rate >= 0.0) || rate > 1.0)
        return false;
    out.threshold =
        rate >= 1.0 ? ~0ull
                    : static_cast<std::uint64_t>(
                          rate * 18446744073709551616.0 /* 2^64 */);

    end = nullptr;
    const unsigned long long seed =
        std::strtoull(f[3].c_str(), &end, 10);
    if (!end || *end != '\0' || f[3].empty())
        return false;
    out.seed = seed;
    return true;
}

} // namespace

bool
enabled()
{
    return armed.load(std::memory_order_relaxed);
}

bool
configure(const std::string &spec)
{
    auto plan = std::make_shared<Plan>();
    bool ok = true;
    std::size_t start = 0;
    while (ok && start <= spec.size()) {
        std::size_t comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string piece = spec.substr(start, comma - start);
        if (!piece.empty()) {
            auto rule = std::make_unique<Rule>();
            if (parseRule(piece, *rule))
                plan->rules.push_back(std::move(rule));
            else
                ok = false;
        }
        start = comma + 1;
    }
    if (!ok)
        plan->rules.clear();

    {
        std::lock_guard<std::mutex> lock(planMutex());
        planSlot() = plan->rules.empty() ? nullptr : plan;
        armed.store(planSlot() != nullptr,
                    std::memory_order_relaxed);
    }
    return ok;
}

void
reset()
{
    std::lock_guard<std::mutex> lock(planMutex());
    planSlot() = nullptr;
    armed.store(false, std::memory_order_relaxed);
    injected.store(0, std::memory_order_relaxed);
}

std::uint64_t
injectedCount()
{
    return injected.load(std::memory_order_relaxed);
}

void
configureFromEnv()
{
    const char *env = std::getenv("SSIM_FAULT");
    if (!env || !*env)
        return;
    if (!configure(env)) {
        SS_WARN("SSIM_FAULT='", env,
                "' is not a site:kind:rate:seed fault plan; fault "
                "injection disabled");
    }
}

void
maybeInject(const char *site)
{
    if (!enabled())
        return;
    std::shared_ptr<Plan> plan = currentPlan();
    if (!plan)
        return;
    for (const auto &rule : plan->rules) {
        if (!siteMatches(*rule, site))
            continue;
        if (!drawFires(*rule, site))
            continue;
        countInjection();
        switch (rule->kind) {
          case Kind::Alloc:
            throw std::bad_alloc();
          case Kind::Trap:
            throw DiagException(
                Diag{Severity::Error, ErrCode::TrapTransientFault,
                     std::string("injected transient fault at ") +
                         site,
                     {}});
          case Kind::Exit:
            // The kill-mid-sweep scenario: die abruptly, no unwind,
            // exactly as a crashed or OOM-killed worker would.
            ::_exit(137);
        }
    }
}

} // namespace ilp::fault
