#include "query/serve.hpp"

#include <algorithm>
#include <numeric>

#include "core/testbed.hpp"
#include "query/optimizer.hpp"

namespace ndpgen::query {

PlanTarget::PlanTarget(host::OffloadTarget& inner,
                       const analysis::TupleLayout& layout,
                       std::vector<PlanPredicate> row_filters,
                       std::vector<std::string> project_columns)
    : inner_(inner),
      projection_(analysis::RecordPlan::select(layout, project_columns)) {
  std::vector<std::string> filter_columns;
  for (const auto& pred : row_filters) filter_columns.push_back(pred.column);
  filter_plan_ = analysis::RecordPlan::select(layout, filter_columns);
  for (std::uint32_t i = 0; i < row_filters.size(); ++i) {
    filters_.emplace_back(row_filters[i], filter_plan_.fields()[i]);
  }
}

ndp::ScanStats PlanTarget::multi_range_scan(
    const std::vector<ndp::KeyRange>& ranges,
    const std::vector<ndp::FilterPredicate>& predicates,
    std::vector<std::vector<std::uint8_t>>* records) {
  ndp::ScanStats stats = inner_.multi_range_scan(ranges, predicates, records);
  const bool project = !projection_.fields().empty();
  if (records == nullptr || (filters_.empty() && !project)) {
    return stats;
  }

  const std::uint64_t rows_in = records->size();
  std::uint64_t tail_ns = 0;
  if (!filters_.empty()) {
    tail_ns += kHostFilterNsPerRowPred * rows_in * filters_.size();
    std::erase_if(*records, [&](const std::vector<std::uint8_t>& record) {
      for (std::uint32_t i = 0; i < filters_.size(); ++i) {
        if (!filters_[i].passes(filter_plan_.extract(record, i))) return true;
      }
      return false;
    });
  }
  rows_filtered_ += rows_in - records->size();

  if (project) {
    tail_ns += kHostProjectNsPerRow * records->size();
    for (auto& record : *records) record = projection_.project(record);
  }

  // The tail's modeled host time lands in `merge` (per-result host-side
  // finalization), keeping phases.total() == elapsed intact, and the
  // device timeline advances past it so later dispatches see the cost.
  stats.results = records->size();
  stats.result_bytes = std::accumulate(
      records->begin(), records->end(), std::uint64_t{0},
      [](std::uint64_t sum, const std::vector<std::uint8_t>& record) {
        return sum + record.size();
      });
  stats.elapsed += tail_ns;
  stats.phases[obs::RequestPhase::kMerge] += tail_ns;
  inner_.advance_device_to(inner_.device_now() + tail_ns);
  return stats;
}

std::optional<Status> servable(const Plan& plan) {
  const auto schema = validate(plan);
  if (!schema.ok()) return schema.status();
  if (plan.scan().dataset != Dataset::kPapers) {
    return Status{ErrorKind::kInvalidArg,
                  "serve path runs over the paper store; plan scans " +
                      std::string(to_string(plan.scan().dataset))};
  }
  for (const auto& op : plan.ops) {
    if (op.kind == OpKind::kScan || op.kind == OpKind::kFilter ||
        op.kind == OpKind::kProject) {
      continue;
    }
    return Status{ErrorKind::kInvalidArg,
                  "operator '" + std::string(to_string(op.kind)) +
                      "' holds whole-result state and cannot stream "
                      "through the service; use 'ndpgen query'"};
  }
  return std::nullopt;
}

Result<ServeReport> serve_plan(const Plan& plan,
                               const ServePlanConfig& config) {
  if (const auto status = servable(plan)) {
    return Result<ServeReport>(*status);
  }
  auto optimized = optimize(plan);
  if (!optimized.ok()) return Result<ServeReport>(optimized.status());
  const OptimizedPlan& opt = optimized.value();

  // Cut for the fixed PaperScan PE: one predicate rides the single HW
  // filter stage, the rest (plus any non-leading filters) run row-wise
  // in the PlanTarget tail. Filters reference base columns even after a
  // project (projection only narrows), so evaluating them all before the
  // final repack is equivalent to the operator order.
  std::vector<ndp::FilterPredicate> device_predicates;
  std::vector<PlanPredicate> row_filters;
  for (const auto& pred : opt.pushdown) {
    if (device_predicates.empty()) {
      device_predicates.push_back(
          ndp::FilterPredicate{pred.column, pred.op, pred.value});
    } else {
      row_filters.push_back(pred);
    }
  }
  std::vector<std::string> project_columns;
  for (const auto& op : opt.tail) {
    if (op.kind == OpKind::kFilter) {
      row_filters.insert(row_filters.end(), op.predicates.begin(),
                         op.predicates.end());
    } else if (op.kind == OpKind::kProject) {
      project_columns = op.columns;
    }
  }
  if (!project_columns.empty() &&
      std::find(project_columns.begin(), project_columns.end(), "id") ==
          project_columns.end()) {
    // Per-request result accounting extracts the key from field 0.
    project_columns.insert(project_columns.begin(), "id");
  }

  core::TestbedConfig testbed_config;
  testbed_config.scale_divisor = config.scale_divisor;
  testbed_config.cosmos.fault = config.fault;
  testbed_config.executor.mode = ndp::ExecMode::kHardware;
  core::Testbed testbed(std::move(testbed_config));

  host::SingleDeviceTarget device(testbed.executor(), testbed.platform());
  PlanTarget target(device, testbed.artifacts().analyzed.output, row_filters,
                    project_columns);

  host::ServiceConfig service_config;
  service_config.tenants = config.tenants;
  service_config.queue_depth = config.queue_depth;
  service_config.batch_limit = config.batch_limit;
  service_config.predicates = device_predicates;
  service_config.result_key = testbed.dataset().result_key;
  host::QueryService service(target, service_config);

  host::LoadConfig load_config;
  load_config.tenants = config.tenants;
  load_config.requests = config.requests;
  load_config.arrival_rate = config.arrival_rate;
  load_config.seed = config.seed;
  load_config.key_space = testbed.generator().paper_count();
  host::LoadGenerator load(load_config);

  ServeReport report;
  report.service = service.run(load);
  report.rows_filtered = target.rows_filtered();
  report.device_predicates = device_predicates.size();
  report.tail_predicates = row_filters.size();
  report.projected = !project_columns.empty();
  return report;
}

}  // namespace ndpgen::query
