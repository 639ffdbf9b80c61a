#include "api/param_map.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/types.hpp"

namespace agar::api {

std::string to_string(ParamType type) {
  switch (type) {
    case ParamType::kSize: return "size";
    case ParamType::kDouble: return "double";
    case ParamType::kBool: return "bool";
    case ParamType::kString: return "string";
    case ParamType::kSizeList: return "size-list";
  }
  return "?";
}

const ParamInfo* ParamSchema::find(const std::string& name) const {
  for (const auto& p : params) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::size_t parse_size(const std::string& text) {
  if (text.empty()) {
    throw std::invalid_argument("empty size value");
  }
  // std::stoull would wrap "-1" to 2^64-1; sizes are non-negative.
  if (!std::isdigit(static_cast<unsigned char>(text.front()))) {
    throw std::invalid_argument("'" + text + "' is not a size");
  }
  std::size_t pos = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("'" + text + "' is not a size");
  }
  std::string suffix = text.substr(pos);
  std::transform(suffix.begin(), suffix.end(), suffix.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  std::size_t scale = 1;
  if (suffix.empty() || suffix == "B") {
    scale = 1;
  } else if (suffix == "KB" || suffix == "K") {
    scale = 1_KB;
  } else if (suffix == "MB" || suffix == "M") {
    scale = 1_MB;
  } else if (suffix == "GB" || suffix == "G") {
    scale = 1024 * 1_MB;
  } else {
    throw std::invalid_argument("'" + text +
                                "' has an unknown size suffix (use KB/MB/GB)");
  }
  if (value > std::numeric_limits<std::size_t>::max() / scale) {
    throw std::invalid_argument("'" + text + "' is too large");
  }
  return static_cast<std::size_t>(value) * scale;
}

double parse_double(const std::string& text) {
  try {
    std::size_t pos = 0;
    const double value = std::stod(text, &pos);
    if (pos != text.size() || !std::isfinite(value)) {
      throw std::invalid_argument("");
    }
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("'" + text + "' is not a finite number");
  }
}

std::string format_double(double value) {
  char buf[32];
  const auto end =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general)
          .ptr;
  return std::string(buf, end);
}

bool parse_bool(const std::string& text) {
  std::string t = text;
  std::transform(t.begin(), t.end(), t.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (t == "true" || t == "1" || t == "yes" || t == "on") return true;
  if (t == "false" || t == "0" || t == "no" || t == "off") return false;
  throw std::invalid_argument("'" + text + "' is not a bool");
}

std::vector<std::size_t> parse_size_list(const std::string& text) {
  std::vector<std::size_t> out;
  std::stringstream parts(text);
  std::string part;
  while (std::getline(parts, part, ',')) {
    if (part.empty()) continue;
    out.push_back(parse_size(part));
  }
  if (out.empty()) {
    throw std::invalid_argument("'" + text + "' is not a size list");
  }
  return out;
}

std::pair<std::string, std::string> split_pair(const std::string& pair) {
  const std::size_t eq = pair.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::invalid_argument("expected key=value, got '" + pair + "'");
  }
  return {pair.substr(0, eq), pair.substr(eq + 1)};
}

void ParamMap::set(const std::string& key, std::string value) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  entries_.emplace_back(key, std::move(value));
}

void ParamMap::set_pair(const std::string& pair) {
  auto [key, value] = split_pair(pair);
  set(key, std::move(value));
}

bool ParamMap::erase(const std::string& key) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->first == key) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

bool ParamMap::has(const std::string& key) const {
  return raw(key).has_value();
}

std::optional<std::string> ParamMap::raw(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  return std::nullopt;
}

namespace {

/// Re-throw a parse failure with the key attached — the user sees which of
/// their `key=value` pairs was malformed, not just the bad value.
template <typename Fn>
auto parse_with_context(const std::string& key, const std::string& value,
                        Fn&& parse) {
  try {
    return parse(value);
  } catch (const std::exception& e) {
    throw std::invalid_argument("parameter '" + key + "': " + e.what());
  }
}

}  // namespace

void check_value(const ParamInfo& info, const std::string& value) {
  switch (info.type) {
    case ParamType::kSize:
      (void)parse_with_context(info.name, value, parse_size);
      break;
    case ParamType::kDouble:
      (void)parse_with_context(info.name, value, parse_double);
      break;
    case ParamType::kBool:
      (void)parse_with_context(info.name, value, parse_bool);
      break;
    case ParamType::kString:
      break;
    case ParamType::kSizeList:
      (void)parse_with_context(info.name, value, parse_size_list);
      break;
  }
}

std::string ParamMap::get_string(const std::string& key) const {
  auto value = raw(key);
  if (!value.has_value()) {
    throw std::invalid_argument("parameter '" + key + "' is not set");
  }
  return std::move(*value);
}

std::size_t ParamMap::get_size(const std::string& key) const {
  return parse_with_context(key, get_string(key), parse_size);
}

double ParamMap::get_double(const std::string& key) const {
  return parse_with_context(key, get_string(key), parse_double);
}

bool ParamMap::get_bool(const std::string& key) const {
  return parse_with_context(key, get_string(key), parse_bool);
}

std::vector<std::size_t> ParamMap::get_size_list(
    const std::string& key) const {
  return parse_with_context(key, get_string(key), parse_size_list);
}

ParamMap ParamMap::scoped(const std::string& prefix) const {
  ParamMap out;
  for (const auto& [key, value] : entries_) {
    if (key.size() > prefix.size() && key.rfind(prefix, 0) == 0) {
      out.set(key.substr(prefix.size()), value);
    }
  }
  return out;
}

ParamMap ParamMap::with_defaults(const ParamSchema& schema) const {
  ParamMap out = *this;
  for (const auto& p : schema.params) {
    if (!p.default_value.empty() && !has(p.name)) {
      out.entries_.emplace_back(p.name, p.default_value);
    }
  }
  return out;
}

void ParamMap::validate(const ParamSchema& schema, const std::string& context,
                        const std::vector<std::string>& extra_allowed) const {
  for (const auto& [key, value] : entries_) {
    const ParamInfo* info = schema.find(key);
    if (info == nullptr) {
      if (std::find(extra_allowed.begin(), extra_allowed.end(), key) !=
          extra_allowed.end()) {
        continue;
      }
      std::string known;
      for (const auto& p : schema.params) {
        known += (known.empty() ? "" : ", ") + p.name;
      }
      throw std::invalid_argument(
          context + " does not accept parameter '" + key + "'" +
          (known.empty() ? " (it takes no parameters)"
                         : " (accepted: " + known + ")"));
    }
    // Parse with the declared type so malformed values fail loudly at spec
    // time, not mid-experiment.
    check_value(*info, value);
  }
}

}  // namespace agar::api
