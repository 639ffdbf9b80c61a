// Shared pieces of the benchmark harness: wall and CPU clocks, and a small
// JSON writer for the raw measurements benchmark/run.py turns into
// metrics. The harness only measures; every metric, percentile and output
// check is computed by run.py from what is printed here.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "api/json.hpp"

namespace bench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};

inline CpuTimes cpu_times() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

/// Peak resident set of this process in MB (ru_maxrss is in KB on Linux).
inline double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

inline std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string json_str(const std::string& s) {
  std::string out(1, '"');
  out.append(agar::api::json_escape(s));
  out.push_back('"');
  return out;
}

inline std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += json_num(values[i]);
  }
  return out + "]";
}

/// An ordered JSON object built from already-encoded member values.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_num(v));
  }
  JsonObject& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_str(v));
  }
  [[nodiscard]] std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_str(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace bench
