// Typed string-keyed parameters for the declarative experiment API.
//
// A ParamMap carries `key=value` pairs exactly as the user wrote them (CLI
// --set flags, JSON spec files, bench literals); typed getters parse on
// access so one representation serves every front end. A ParamSchema is the
// self-describing side: each registered engine/strategy publishes the
// parameters it understands (name, type, default, doc line), which powers
// `agar_cli --list`, validation diagnostics, and docs/api.md.
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
  /// Declared default parsed as a double (`fallback` when absent).
  [[nodiscard]] double default_double(const std::string& name,
                                      double fallback) const;
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

/// Parse "true"/"false"/"1"/"0"/"yes"/"no". Throws on anything else.
[[nodiscard]] bool parse_bool(const std::string& text);

/// Parse a comma-separated list of sizes ("1,3,5,7,9").
[[nodiscard]] std::vector<std::size_t> parse_size_list(const std::string& text);

/// Split "key=value" (first '='). Throws std::invalid_argument when there
/// is no '=' or the key is empty.
[[nodiscard]] std::pair<std::string, std::string> split_pair(
    const std::string& pair);

/// Insertion-ordered string->string map with typed, default-aware getters.
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

  // Typed getters: parse the stored string, falling back to `fallback` when
  // the key is unset. Parse failures throw std::invalid_argument naming the
  // key and the offending value.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] std::size_t get_size(const std::string& key,
                                     std::size_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  [[nodiscard]] std::vector<std::size_t> get_size_list(
      const std::string& key, std::vector<std::size_t> fallback) const;

  /// All pairs in insertion order.
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  entries() const {
    return entries_;
  }

  /// The namespaced sub-map under `prefix`, with the prefix stripped:
  /// scoped("planner.") turns {"planner.threshold": "0.2"} into
  /// {"threshold": "0.2"}. Insertion order preserved.
  [[nodiscard]] ParamMap scoped(const std::string& prefix) const;

  /// Every key must be declared by `schema` (plus `extra_allowed`), and its
  /// value must parse as the declared type. Throws std::invalid_argument
  /// with a diagnostic naming the bad key and listing the accepted ones.
  void validate(const ParamSchema& schema, const std::string& context,
                const std::vector<std::string>& extra_allowed = {}) const;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace agar::api
