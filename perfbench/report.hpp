// Timing samples and the metric report: every metric is printed by name
// with its unit as it is recorded, and the last line of standard output
// is one JSON object holding the metrics of the pass.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }

  /// The fastest sample: the figure reported for per-call timings. On a
  /// shared host a run's calls split between full speed and 1.4-3x
  /// slower, in a mix that changes from run to run; the fastest call
  /// follows the code, the median follows the neighbours (README.md
  /// gives the measured spreads).
  double Min() const {
    return values_.empty() ? 0.0
                           : *std::min_element(values_.begin(), values_.end());
  }

  double Median() const {
    if (values_.empty()) return 0.0;
    auto s = Sorted();
    const std::size_t n = s.size();
    return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
  }

  /// Nearest-rank quantile, q in (0, 1].
  double Quantile(double q) const {
    if (values_.empty()) return 0.0;
    auto s = Sorted();
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(s.size())));
    return s[std::clamp<std::size_t>(rank, 1, s.size()) - 1];
  }

 private:
  std::vector<double> Sorted() const {
    auto s = values_;
    std::sort(s.begin(), s.end());
    return s;
  }

  std::vector<double> values_;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    std::printf("metric %-36s %14.6f %s\n", name.c_str(), value,
                unit.c_str());
    metrics_.push_back({name, value, unit});
  }

  /// Records the fastest sample of `s` (times `scale`) as the metric, or
  /// the median when `median` is set, and prints the median, the p90 and
  /// the sample count beside it.
  void AddTiming(const std::string& name, const Samples& s,
                 const std::string& unit, double scale = 1.0,
                 bool median = false) {
    const double value = (median ? s.Median() : s.Min()) * scale;
    std::printf("metric %-36s %14.6f %s  (median %.6f, p90 %.6f, n=%zu)\n",
                name.c_str(), value, unit.c_str(), s.Median() * scale,
                s.Quantile(0.9) * scale, s.size());
    metrics_.push_back({name, value, unit});
  }

  void PrintResultLine(long attempted, long failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
