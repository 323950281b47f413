// Machine-readable bench rows: BENCH_<name>.json.
//
// The figure benches and `ndpgen profile` print human tables on stdout and
// write the same numbers as rows of (series, x, value [, unit]) for
// tools/check_bench_regression.py, which keys a row as "<series>|<x>".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ndpgen::obs {

/// Collects rows and writes them as BENCH_<name>.json into
/// $NDPGEN_BENCH_JSON_DIR (no file is written when the variable is unset).
/// Values are rendered with json_fixed, so identical runs produce
/// byte-identical files.
class JsonResult {
 public:
  explicit JsonResult(std::string name) : name_(std::move(name)) {}

  void add(std::string series, std::string x, double value,
           std::string unit = {}) {
    rows_.push_back(Row{std::move(series), std::move(x), value,
                        std::move(unit)});
  }
  void add(std::string series, std::uint64_t x, double value,
           std::string unit = {}) {
    add(std::move(series), std::to_string(x), value, std::move(unit));
  }

  /// Writes BENCH_<name>.json; returns the path, or empty when disabled
  /// or the file cannot be opened (reported on stderr).
  std::string write() const;

 private:
  struct Row {
    std::string series;
    std::string x;
    double value;
    std::string unit;
  };
  std::string name_;
  std::vector<Row> rows_;
};

}  // namespace ndpgen::obs
