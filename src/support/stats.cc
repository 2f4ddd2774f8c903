#include "support/stats.hh"

#include <algorithm>
#include <cstdio>

#include "support/logging.hh"

namespace ilp::stats {

namespace {

std::string
fmtDouble(double v)
{
    char buf[48];
    double r = v < 0 ? -v : v;
    // Counters and cycle totals print as integers; rates keep 6
    // significant digits.
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        r < 9.0e15)
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace

std::string
Scalar::display() const
{
    return fmtDouble(value_);
}

std::string
Counter::display() const
{
    return fmtDouble(static_cast<double>(value_));
}

std::string
Formula::display() const
{
    return fmtDouble(value());
}

Distribution::Distribution(std::string name, std::string desc,
                           std::int64_t bucketWidth)
    : Stat(std::move(name), std::move(desc)), bucket_width_(bucketWidth)
{
    SS_ASSERT(bucketWidth >= 1, "Distribution bucket width must be >= 1");
}

void
Distribution::sample(std::int64_t key, std::uint64_t weight)
{
    if (weight == 0)
        return;
    // Floor-divide so negative keys bin consistently.
    std::int64_t q = key / bucket_width_;
    if (key % bucket_width_ != 0 && key < 0)
        --q;
    buckets_[q * bucket_width_] += weight;
    if (count_ == 0) {
        min_ = key;
        max_ = key;
    } else {
        min_ = std::min(min_, key);
        max_ = std::max(max_, key);
    }
    count_ += weight;
    sum_ += static_cast<double>(key) * static_cast<double>(weight);
}

double
Distribution::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

Json
Distribution::json() const
{
    Json j = Json::object();
    j.set("count", Json(count_));
    j.set("sum", Json(sum_));
    j.set("mean", Json(mean()));
    j.set("min", Json(min_));
    j.set("max", Json(max_));
    j.set("bucket_width", Json(bucket_width_));
    Json buckets = Json::object();
    for (const auto &[k, v] : buckets_)
        buckets.set(std::to_string(k), Json(v));
    j.set("buckets", std::move(buckets));
    return j;
}

std::string
Distribution::display() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "count=%llu mean=%.3f min=%lld max=%lld",
                  static_cast<unsigned long long>(count_), mean(),
                  static_cast<long long>(min_),
                  static_cast<long long>(max_));
    return buf;
}

// -------------------------------------------------------------- Group

Stat *
Group::findStat(const std::string &name) const
{
    for (const auto &s : stats_) {
        if (s->name() == name)
            return s.get();
    }
    return nullptr;
}

Group &
Group::group(const std::string &name, const std::string &desc)
{
    for (const auto &g : groups_) {
        if (g->name() == name)
            return *g;
    }
    SS_ASSERT(!findStat(name), "stats: '", name,
              "' already registered as a stat, not a group");
    groups_.emplace_back(new Group(name, desc));
    return *groups_.back();
}

template <typename T, typename... Args>
static T &
getOrCreate(std::vector<std::unique_ptr<Stat>> &stats,
            const std::string &name, Args &&...args)
{
    for (const auto &s : stats) {
        if (s->name() == name) {
            T *typed = dynamic_cast<T *>(s.get());
            SS_ASSERT(typed, "stats: '", name,
                      "' re-requested as a different stat kind");
            return *typed;
        }
    }
    stats.emplace_back(new T(name, std::forward<Args>(args)...));
    return static_cast<T &>(*stats.back());
}

Scalar &
Group::scalar(const std::string &name, const std::string &desc)
{
    return getOrCreate<Scalar>(stats_, name, desc);
}

Counter &
Group::counter(const std::string &name, const std::string &desc)
{
    return getOrCreate<Counter>(stats_, name, desc);
}

Distribution &
Group::distribution(const std::string &name, const std::string &desc,
                    std::int64_t bucketWidth)
{
    return getOrCreate<Distribution>(stats_, name, desc, bucketWidth);
}

Formula &
Group::formula(const std::string &name, const std::string &desc,
               std::function<double()> fn)
{
    return getOrCreate<Formula>(stats_, name, desc, std::move(fn));
}

Json
Group::json() const
{
    Json j = Json::object();
    for (const auto &s : stats_)
        j.set(s->name(), s->json());
    for (const auto &g : groups_)
        j.set(g->name(), g->json());
    return j;
}

void
Group::dump(std::ostream &os, const std::string &prefix) const
{
    for (const auto &s : stats_) {
        std::string path = prefix + s->name();
        os << path;
        if (path.size() < 40)
            os << std::string(40 - path.size(), ' ');
        os << ' ' << s->display();
        if (!s->desc().empty())
            os << "   # " << s->desc();
        os << '\n';
    }
    for (const auto &g : groups_)
        g->dump(os, prefix + g->name() + ".");
}

// ----------------------------------------------------------- Registry

Registry::Registry() : root_(new Group("", ""))
{
}

double
StatsSnapshot::number(const std::string &dotted, double fallback) const
{
    const Json *j = at(dotted);
    return j && j->isNumber() ? j->asNumber() : fallback;
}

} // namespace ilp::stats
