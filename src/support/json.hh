/**
 * @file
 * A minimal JSON document model with a writer and a strict parser.
 *
 * Exists so the observability layer (the stats tree, which every
 * exporter writes directly as a Json object, the ssim `--stats-json` /
 * `--trace-events` outputs, and the bench trajectory) can emit and
 * *re-validate* structured telemetry without an external dependency.
 * The parser accepts exactly RFC 8259 JSON (no comments, no trailing
 * commas) and reports malformed input through fatal() so tests can
 * observe failures via FatalError.
 *
 * Numbers are stored as doubles; integral values round-trip exactly up
 * to 2^53, which covers every counter the simulator produces in
 * practice (the fuel limit caps runs at 2e9 instructions).  RFC 8259
 * has no representation for inf/NaN, so a non-finite double becomes
 * JSON null at construction time — the in-memory document always
 * matches what dump() will emit, and equality/round-trip behave.
 */

#ifndef SUPERSYM_SUPPORT_JSON_HH
#define SUPERSYM_SUPPORT_JSON_HH

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ilp {

class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    /** Key order is preserved (insertion order) for readable dumps. */
    using Object = std::vector<std::pair<std::string, Json>>;
    using Array = std::vector<Json>;

    Json() = default;
    Json(std::nullptr_t) {}
    Json(bool b) : kind_(Kind::Bool), bool_(b) {}
    /** A non-finite double has no JSON form; it becomes null. */
    Json(double d)
        : kind_(std::isfinite(d) ? Kind::Number : Kind::Null),
          num_(std::isfinite(d) ? d : 0.0)
    {
    }
    Json(int v) : kind_(Kind::Number), num_(v) {}
    Json(std::int64_t v)
        : kind_(Kind::Number), num_(static_cast<double>(v)) {}
    Json(std::uint64_t v)
        : kind_(Kind::Number), num_(static_cast<double>(v)) {}
    Json(const char *s) : kind_(Kind::String), str_(s) {}
    Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

    static Json array() { Json j; j.kind_ = Kind::Array; return j; }
    static Json object() { Json j; j.kind_ = Kind::Object; return j; }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed access; panics on a kind mismatch (internal misuse). */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;

    /** Append to an array (panics unless this is an array). */
    Json &push(Json v);

    /** Set a key on an object (panics unless this is an object);
     *  an existing key is overwritten in place. */
    Json &set(const std::string &key, Json v);

    /** Object member lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;

    /**
     * Dotted-path lookup through nested objects ("issue.stall.raw");
     * nullptr when any component is missing.
     */
    const Json *at(const std::string &dotted) const;

    std::size_t size() const;

    /**
     * Serialize.  indent < 0 gives the compact one-line form;
     * indent >= 0 pretty-prints with that many spaces per level.
     */
    std::string dump(int indent = -1) const;

    /** Parse a complete JSON document; fatal() on malformed input. */
    static Json parse(const std::string &text);

    /**
     * Non-fatal parse: true and fill `out` on success; false on
     * malformed input, leaving `out` untouched and describing the
     * problem in `error` when given.  For callers (trajectory
     * readers, validators) that must survive corrupt files.
     */
    static bool tryParse(const std::string &text, Json &out,
                         std::string *error = nullptr);

    /** Structural equality (number comparison is exact). */
    bool operator==(const Json &other) const;

  private:
    void write(std::string &out, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    Array arr_;
    Object obj_;
};

} // namespace ilp

#endif // SUPERSYM_SUPPORT_JSON_HH
