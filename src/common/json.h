#ifndef BIFSIM_COMMON_JSON_H
#define BIFSIM_COMMON_JSON_H

/**
 * @file
 * A minimal JSON value: ordered-object document model, recursive
 * descent parser, pretty-printing writer.
 *
 * The simulator's own serialisation stays TLV (snapshot/, fleet
 * proto); JSON exists at the edges where humans and CI diff tools
 * live — the BENCH_*.json family every bench emits through
 * bench_util.h and the baseline-diffing sweep harness
 * (metrics/sweep.h) that reads those files back.  The parser accepts
 * exactly what the writer produces plus ordinary hand-edited JSON
 * (nested objects/arrays, doubles, bools, null, strings with the
 * common escapes); it rejects everything else with a located
 * SimError, depth-capped so a hostile file cannot recurse the stack
 * away.
 *
 * Objects preserve insertion order so regenerated bench files diff
 * cleanly against committed baselines line by line, not just
 * structurally.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bifsim::json {

class Value;

/** Object member list; insertion-ordered, names unique by convention
 *  (set() replaces, the parser keeps the last duplicate). */
using Members = std::vector<std::pair<std::string, Value>>;

class Value
{
  public:
    enum class Kind : uint8_t { Null, Bool, Num, Str, Arr, Obj };

    Value() = default;
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(double d) : kind_(Kind::Num), num_(d) {}
    Value(int v) : kind_(Kind::Num), num_(v), wholeHint_(true) {}
    Value(int64_t v)
        : kind_(Kind::Num), num_(static_cast<double>(v)),
          wholeHint_(true)
    {
    }
    Value(uint64_t v)
        : kind_(Kind::Num), num_(static_cast<double>(v)),
          wholeHint_(true)
    {
    }
    Value(const char *s) : kind_(Kind::Str), str_(s) {}
    Value(std::string s) : kind_(Kind::Str), str_(std::move(s)) {}

    /** Fresh empty containers. */
    static Value object();
    static Value array();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isStr() const { return kind_ == Kind::Str; }
    bool isArr() const { return kind_ == Kind::Arr; }
    bool isObj() const { return kind_ == Kind::Obj; }

    /** Typed accessors; wrong-kind access throws SimError (the sweep
     *  harness reads files users regenerate by hand). */
    bool boolean() const;
    double num() const;
    const std::string &str() const;
    const std::vector<Value> &arr() const;
    const Members &obj() const;

    /** Object lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;

    /** Object insert-or-replace (makes this an object if Null). */
    void set(const std::string &key, Value v);

    /** Array append (makes this an array if Null). */
    void push(Value v);

    /** Serialises with two-space indentation and a trailing newline
     *  at top level.  Whole-valued numbers print without a decimal
     *  point so counters survive a parse/dump round trip textually. */
    std::string dump() const;

    /** Parses @p text; @p where names the source in error messages.
     *  @throws SimError on any syntax violation. */
    static Value parse(const std::string &text,
                       const std::string &where = "<json>");

    /** Reads and parses @p path.  @throws SimError (also on I/O). */
    static Value parseFile(const std::string &path);

  private:
    void write(std::string &out, int indent) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0;
    bool wholeHint_ = false;   ///< Constructed from an integer.
    std::string str_;
    std::vector<Value> arr_;
    Members obj_;
};

} // namespace bifsim::json

#endif // BIFSIM_COMMON_JSON_H
