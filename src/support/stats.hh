/**
 * @file
 * ilp::stats — a hierarchical named-statistics registry, in the spirit
 * of gem5's stats framework (the same lineage as support/logging.hh).
 *
 * A Registry owns a tree of Groups; a Group owns named stats:
 *
 *  - Scalar       a settable double (elapsed cycles, fill rates);
 *  - Counter      a monotonically increasing integer;
 *  - Distribution an integer-keyed histogram with optional fixed-width
 *                 binning (issue width per cycle, block sizes);
 *  - Formula      a derived value computed at dump time from a
 *                 callable (IPC = instructions / cycles).
 *
 * dump() renders an aligned text table; json() produces the
 * machine-readable form written by `ssim --stats-json`.  A
 * StatsSnapshot is the frozen JSON tree of one run plus dotted-path
 * lookup helpers; RunOutcome carries one.
 *
 * Overhead discipline: hot simulator loops keep their own raw counters
 * and *export* into a Group at snapshot time, so instrumentation costs
 * nothing per event.  A run that wants no stats builds no Registry.
 */

#ifndef SUPERSYM_SUPPORT_STATS_HH
#define SUPERSYM_SUPPORT_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "support/json.hh"

namespace ilp::stats {

class Group;
class Registry;

/** Common identity for every registered statistic. */
class Stat
{
  public:
    Stat(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {
    }
    virtual ~Stat() = default;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Value as JSON (numbers for scalars, an object for
     *  distributions). */
    virtual Json json() const = 0;
    /** One-line value rendering for the text dump. */
    virtual std::string display() const = 0;

  private:
    std::string name_;
    std::string desc_;
};

class Scalar : public Stat
{
  public:
    using Stat::Stat;
    void set(double v) { value_ = v; }
    void add(double v) { value_ += v; }
    double value() const { return value_; }
    Json json() const override { return Json(value_); }
    std::string display() const override;

  private:
    double value_ = 0.0;
};

class Counter : public Stat
{
  public:
    using Stat::Stat;
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    Json json() const override { return Json(value_); }
    std::string display() const override;

  private:
    std::uint64_t value_ = 0;
};

/**
 * Integer-keyed histogram.  Keys are floored to multiples of
 * `bucketWidth`; width 1 keeps exact keys.
 */
class Distribution : public Stat
{
  public:
    Distribution(std::string name, std::string desc,
                 std::int64_t bucketWidth = 1);

    void sample(std::int64_t key, std::uint64_t weight = 1);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const;
    std::int64_t min() const { return min_; }
    std::int64_t max() const { return max_; }
    std::int64_t bucketWidth() const { return bucket_width_; }
    const std::map<std::int64_t, std::uint64_t> &buckets() const
    {
        return buckets_;
    }

    Json json() const override;
    std::string display() const override;

  private:
    std::int64_t bucket_width_;
    std::map<std::int64_t, std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    std::int64_t min_ = 0;
    std::int64_t max_ = 0;
};

/** Derived value, evaluated lazily at dump/snapshot time. */
class Formula : public Stat
{
  public:
    Formula(std::string name, std::string desc,
            std::function<double()> fn)
        : Stat(std::move(name), std::move(desc)), fn_(std::move(fn))
    {
    }
    double value() const { return fn_(); }
    Json json() const override { return Json(value()); }
    std::string display() const override;

  private:
    std::function<double()> fn_;
};

/**
 * A named node in the stats tree.  Children (groups and stats) are
 * created on first request and live for the registry's lifetime, so
 * returned references stay valid.  Re-requesting a name returns the
 * existing entity; requesting it as a different kind panics.
 */
class Group
{
  public:
    const std::string &name() const { return name_; }

    Group &group(const std::string &name,
                 const std::string &desc = "");
    Scalar &scalar(const std::string &name,
                   const std::string &desc = "");
    Counter &counter(const std::string &name,
                     const std::string &desc = "");
    Distribution &distribution(const std::string &name,
                               const std::string &desc = "",
                               std::int64_t bucketWidth = 1);
    Formula &formula(const std::string &name, const std::string &desc,
                     std::function<double()> fn);

    /** JSON object of this group's stats and child groups. */
    Json json() const;

    /** Append "path.name  value  # desc" rows to `os`. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

  private:
    friend class Registry;
    Group(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {
    }

    Stat *findStat(const std::string &name) const;

    std::string name_;
    std::string desc_;
    /** Insertion-ordered children. */
    std::vector<std::unique_ptr<Stat>> stats_;
    std::vector<std::unique_ptr<Group>> groups_;
};

/**
 * The frozen stats of one run: a JSON tree plus lookup sugar.
 * Copyable and cheap enough to ride along in RunOutcome.
 */
struct StatsSnapshot
{
    Json root;

    bool empty() const { return !root.isObject() || root.size() == 0; }

    /** Numeric lookup by dotted path; `fallback` when absent. */
    double number(const std::string &dotted,
                  double fallback = 0.0) const;

    /** Node lookup by dotted path; nullptr when absent. */
    const Json *at(const std::string &dotted) const
    {
        return root.isObject() ? root.at(dotted) : nullptr;
    }
};

/** The root of a stats tree. */
class Registry
{
  public:
    Registry();

    Group &root() { return *root_; }
    const Group &root() const { return *root_; }

    /** Shorthand for root().group(name, desc). */
    Group &group(const std::string &name, const std::string &desc = "")
    {
        return root_->group(name, desc);
    }

    /** Freeze the current values (formulas evaluated now). */
    StatsSnapshot snapshot() const { return StatsSnapshot{json()}; }

    Json json() const { return root_->json(); }
    void dump(std::ostream &os) const { root_->dump(os); }

  private:
    std::unique_ptr<Group> root_;
};

} // namespace ilp::stats

#endif // SUPERSYM_SUPPORT_STATS_HH
