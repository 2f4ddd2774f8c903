#include "support/metrics.hh"

#include <cmath>

#include "support/logging.hh"

namespace ilp::metrics {

namespace {

/** Render a double the way the JSON writer does: integral values
 *  without a fraction, everything else with enough digits. */
std::string
renderNumber(double v)
{
    return Json(v).dump();
}

void
sampleLine(std::string &out, const std::string &name,
           const std::string &labels, double value)
{
    out += name;
    out += labels;
    out += ' ';
    out += renderNumber(value);
    out += '\n';
}

} // namespace

// ------------------------------------------------------------ Counter

void
Counter::exposition(std::string &out) const
{
    sampleLine(out, name(), "", static_cast<double>(value()));
}

// -------------------------------------------------------------- Gauge

void
Gauge::exposition(std::string &out) const
{
    sampleLine(out, name(), "", value());
}

// ---------------------------------------------------------- Histogram

Histogram::Histogram(std::string name, std::string help)
    : Metric(std::move(name), std::move(help)), buckets_(kNumBuckets)
{
}

int
Histogram::bucketIndex(double v)
{
    if (!(v > 0.0) || !std::isfinite(v))
        return 0; // zero, negative, and NaN all land in the floor
    int exp = 0;
    const double frac = std::frexp(v, &exp); // v = frac * 2^exp
    if (exp < -kExpRange)
        return 1;
    if (exp >= kExpRange)
        return kNumBuckets - 1;
    // frac is in [0.5, 1): spread it over kSubBuckets linear slots.
    int sub = static_cast<int>((frac - 0.5) * 2.0 * kSubBuckets);
    if (sub >= kSubBuckets)
        sub = kSubBuckets - 1;
    return 1 + (exp + kExpRange) * kSubBuckets + sub;
}

double
Histogram::bucketValue(int index)
{
    if (index <= 0)
        return 0.0;
    const int linear = index - 1;
    const int exp = linear / kSubBuckets - kExpRange;
    const int sub = linear % kSubBuckets;
    // Midpoint of the sub-bucket [0.5 + s/2k, 0.5 + (s+1)/2k) * 2^exp.
    const double frac = 0.5 + (sub + 0.5) / (2.0 * kSubBuckets);
    return std::ldexp(frac, exp);
}

void
Histogram::observe(double v)
{
    buckets_[static_cast<std::size_t>(bucketIndex(v))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(std::isfinite(v) ? v : 0.0,
                   std::memory_order_relaxed);
}

double
Histogram::quantile(double q) const
{
    const std::uint64_t total = count();
    if (total == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Rank of the q-th order statistic (nearest-rank definition).
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    if (rank == 0)
        rank = 1;
    std::uint64_t seen = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
        seen += buckets_[static_cast<std::size_t>(i)].load(
            std::memory_order_relaxed);
        if (seen >= rank)
            return bucketValue(i);
    }
    return bucketValue(kNumBuckets - 1);
}

Json
Histogram::json() const
{
    Json o = Json::object();
    o.set("count", Json(count()));
    o.set("sum", Json(sum()));
    o.set("p50", Json(quantile(0.50)));
    o.set("p90", Json(quantile(0.90)));
    o.set("p99", Json(quantile(0.99)));
    return o;
}

void
Histogram::exposition(std::string &out) const
{
    sampleLine(out, name(), "{quantile=\"0.5\"}", quantile(0.50));
    sampleLine(out, name(), "{quantile=\"0.9\"}", quantile(0.90));
    sampleLine(out, name(), "{quantile=\"0.99\"}", quantile(0.99));
    sampleLine(out, name() + "_sum", "", sum());
    sampleLine(out, name() + "_count", "",
               static_cast<double>(count()));
}

void
Histogram::merge(const Histogram &other)
{
    std::uint64_t observations = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
        const std::uint64_t n =
            other.buckets_[static_cast<std::size_t>(i)].load(
                std::memory_order_relaxed);
        if (n == 0)
            continue;
        buckets_[static_cast<std::size_t>(i)].fetch_add(
            n, std::memory_order_relaxed);
        observations += n;
    }
    // Mirror the other side's count/sum totals, not its count_ field:
    // a concurrent observe() on `other` between the bucket pass and
    // here must not make count_ disagree with the bucket sums.
    count_.fetch_add(observations, std::memory_order_relaxed);
    sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0);
    count_.store(0);
    sum_.store(0.0);
}

// ------------------------------------------------------------ Registry

Registry &
Registry::global()
{
    static Registry registry;
    return registry;
}

Metric *
Registry::find(const std::string &name) const
{
    for (const auto &m : metrics_) {
        if (m->name() == name)
            return m.get();
    }
    return nullptr;
}

template <typename T>
T &
Registry::getOrCreate(const std::string &name, const std::string &help)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (Metric *existing = find(name)) {
        T *typed = dynamic_cast<T *>(existing);
        SS_ASSERT(typed, "metric '", name,
                  "' already registered as a different kind");
        return *typed;
    }
    auto created = std::make_unique<T>(name, help);
    T &ref = *created;
    metrics_.push_back(std::move(created));
    return ref;
}

Counter &
Registry::counter(const std::string &name, const std::string &help)
{
    return getOrCreate<Counter>(name, help);
}

Gauge &
Registry::gauge(const std::string &name, const std::string &help)
{
    return getOrCreate<Gauge>(name, help);
}

Histogram &
Registry::histogram(const std::string &name, const std::string &help)
{
    return getOrCreate<Histogram>(name, help);
}

Json
Registry::json() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Json root = Json::object();
    for (const auto &m : metrics_) {
        Json entry = Json::object();
        entry.set("type", Json(m->type()));
        entry.set("help", Json(m->help()));
        entry.set("value", m->json());
        root.set(m->name(), std::move(entry));
    }
    return root;
}

std::string
Registry::prometheus() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    for (const auto &m : metrics_) {
        if (!m->help().empty()) {
            out += "# HELP ";
            out += m->name();
            out += ' ';
            out += m->help();
            out += '\n';
        }
        out += "# TYPE ";
        out += m->name();
        out += ' ';
        out += m->type();
        out += '\n';
        m->exposition(out);
    }
    return out;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &m : metrics_)
        m->reset();
}

} // namespace ilp::metrics
