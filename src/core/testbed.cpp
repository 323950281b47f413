#include "core/testbed.hpp"

namespace ndpgen::core {

Testbed::Testbed(TestbedConfig config, obs::TraceSink* trace,
                 obs::RequestProfiler* profiler)
    : config_(std::move(config)),
      platform_(config_.cosmos),
      framework_(config_.framework),
      generator_(workload::PubGraphConfig{.scale_divisor =
                                              config_.scale_divisor}) {
  obs::Observability& obs = platform_.observability();
  obs.trace = trace;
  obs.profiler = profiler;
  if (config_.parser_name.empty()) {
    config_.parser_name = dataset().parser;
  }
  compiled_ = framework_.compile(config_.spec_source.empty()
                                     ? workload::pubgraph_spec_source()
                                     : config_.spec_source);
  artifacts_ = &compiled_.get(config_.parser_name);
  store_ = std::make_unique<kv::NKV>(platform_,
                                     workload::db_config(config_.dataset));
  records_loaded_ = dataset().load(*store_, generator_);
  executor_ = make_executor(config_.executor.mode);
}

std::unique_ptr<ndp::HybridExecutor> Testbed::make_executor(
    ndp::ExecMode mode) {
  ndp::ExecutorConfig config = config_.executor;
  config.mode = mode;
  config.result_key_extractor = dataset().result_key;
  config.pe_indices.clear();
  if (mode == ndp::ExecMode::kHardware) {
    if (!pe_) {
      pe_ = framework_.instantiate(compiled_, config_.parser_name, platform_);
    }
    config.pe_indices = {*pe_};
  }
  return std::make_unique<ndp::HybridExecutor>(
      *store_, artifacts_->analyzed, artifacts_->design.operators,
      std::move(config));
}

}  // namespace ndpgen::core
