// Typed string-keyed parameters for the declarative experiment API.
//
// A ParamMap carries `key=value` pairs exactly as the user wrote them (CLI
// --set flags, JSON spec files, bench literals); typed getters parse on
// access so one representation serves every front end. A ParamSchema is the
// self-describing side: each registered engine/strategy publishes the
// parameters it understands (name, type, default, doc line), which powers
// `agar_cli --list`, validation diagnostics, and docs/api.md. The schema is
// the one place a default is written (see `with_defaults`).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace agar::api {

/// What a parameter's value must parse as.
enum class ParamType { kSize, kDouble, kBool, kString, kSizeList };

[[nodiscard]] std::string to_string(ParamType type);

/// One declared parameter of an engine or strategy.
struct ParamInfo {
  std::string name;
  ParamType type = ParamType::kString;
  std::string default_value;  ///< as the user would write it ("10MB", "0.5")
  std::string description;
};

/// The declared parameter set of one registry entry.
struct ParamSchema {
  std::vector<ParamInfo> params;

  [[nodiscard]] const ParamInfo* find(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const {
    return find(name) != nullptr;
  }
};

/// Parse "10MB" / "512KB" / "1GB" / "4096" into bytes (also accepts plain
/// counts, so `chunks=5` parses with the same function). Lower/upper case
/// suffixes both work. Throws std::invalid_argument with the offending text.
[[nodiscard]] std::size_t parse_size(const std::string& text);

/// Parse a finite number that fills the whole text ("2.5", "1e3"). "nan",
/// "inf" and trailing characters ("10abc") are rejected: a NaN time would
/// reach the event heap, whose ordering assumes comparable keys. Throws
/// std::invalid_argument with the offending text.
[[nodiscard]] double parse_double(const std::string& text);

/// The shortest text `parse_double` reads back as `value` (std::to_chars'
/// general form: what "%g" prints for any value of six or fewer
/// significant digits, more digits where the value needs them).
[[nodiscard]] std::string format_double(double value);

/// Parse "true"/"false"/"1"/"0"/"yes"/"no". Throws on anything else.
[[nodiscard]] bool parse_bool(const std::string& text);

/// Parse a comma-separated list of sizes ("1,3,5,7,9").
[[nodiscard]] std::vector<std::size_t> parse_size_list(const std::string& text);

/// Split "key=value" (first '='). Throws std::invalid_argument when there
/// is no '=' or the key is empty.
[[nodiscard]] std::pair<std::string, std::string> split_pair(
    const std::string& pair);

/// Parse `value` as `info`'s declared type. Throws std::invalid_argument
/// naming the parameter and the value when it does not parse.
void check_value(const ParamInfo& info, const std::string& value);

/// Insertion-ordered string->string map with typed getters.
class ParamMap {
 public:
  /// Set (or overwrite) one parameter.
  void set(const std::string& key, std::string value);
  /// Set from one "key=value" pair.
  void set_pair(const std::string& pair);
  /// Remove a parameter; returns true if it was present.
  bool erase(const std::string& key);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Raw value, or std::nullopt when unset.
  [[nodiscard]] std::optional<std::string> raw(const std::string& key) const;

  // Typed getters: parse the stored string. An unset key, or a value that
  // does not parse, throws std::invalid_argument naming the key (a default
  // lives in the schema; see `with_defaults`).
  [[nodiscard]] std::string get_string(const std::string& key) const;
  [[nodiscard]] std::size_t get_size(const std::string& key) const;
  [[nodiscard]] double get_double(const std::string& key) const;
  [[nodiscard]] bool get_bool(const std::string& key) const;
  [[nodiscard]] std::vector<std::size_t> get_size_list(
      const std::string& key) const;

  /// All pairs in insertion order.
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  entries() const {
    return entries_;
  }

  /// The namespaced sub-map under `prefix`, with the prefix stripped:
  /// scoped("planner.") turns {"planner.threshold": "0.2"} into
  /// {"threshold": "0.2"}. Insertion order preserved.
  [[nodiscard]] ParamMap scoped(const std::string& prefix) const;

  /// This map plus `schema`'s non-empty default for every declared key the
  /// map does not set. An empty default means the value is computed, so
  /// such a key stays unset.
  [[nodiscard]] ParamMap with_defaults(const ParamSchema& schema) const;

  /// Every key must be declared by `schema` (plus `extra_allowed`), and its
  /// value must parse as the declared type. Throws std::invalid_argument
  /// with a diagnostic naming the bad key and listing the accepted ones.
  void validate(const ParamSchema& schema, const std::string& context,
                const std::vector<std::string>& extra_allowed = {}) const;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace agar::api
