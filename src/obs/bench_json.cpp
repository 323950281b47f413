#include "obs/bench_json.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/json.hpp"

namespace ndpgen::obs {

std::string JsonResult::write() const {
  const char* dir = std::getenv("NDPGEN_BENCH_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return {};
  const std::string path = std::string(dir) + "/BENCH_" + name_ + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return {};
  }
  out << "{\"bench\":\"" << json_escape(name_) << "\",\"rows\":[\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& row = rows_[i];
    out << "{\"series\":\"" << json_escape(row.series) << "\",\"x\":\""
        << json_escape(row.x) << "\",\"value\":" << json_fixed(row.value);
    if (!row.unit.empty()) {
      out << ",\"unit\":\"" << json_escape(row.unit) << "\"";
    }
    out << "}" << (i + 1 < rows_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  std::fprintf(stderr, "wrote %s (%zu rows)\n", path.c_str(), rows_.size());
  return path;
}

}  // namespace ndpgen::obs
