// One smart-SSD testbed: the device the paper builds from one format
// specification (§III), assembled in one place.
//
// A testbed is a CosmosPlatform, an nKV store loaded with one pubgraph
// dataset, the compiled specification and a HybridExecutor over the
// store. In hardware mode the named parser's PE is attached to the
// platform (exactly one, after the load); software and host modes attach
// none. The CLI, the query layer, the benches and the examples all build
// their single-device stacks here, so they agree on every dataset fact
// (record size, keys, parser) and on the build order that keeps virtual
// time byte-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/framework.hpp"
#include "kv/db.hpp"
#include "ndp/executor.hpp"
#include "obs/obs.hpp"
#include "platform/cosmos.hpp"
#include "workload/pubgraph.hpp"

namespace ndpgen::core {

struct TestbedConfig {
  workload::Dataset dataset = workload::Dataset::kPapers;
  std::uint64_t scale_divisor = 32768;  ///< Pubgraph population divisor.
  platform::CosmosConfig cosmos{};
  /// Format specification to compile; empty = pubgraph_spec_source().
  std::string spec_source;
  /// Parser of the specification to run; empty = the dataset's stock
  /// parser (PaperScan / RefScan).
  std::string parser_name;
  FrameworkOptions framework{};
  /// The testbed fills in pe_indices and result_key_extractor.
  ndp::ExecutorConfig executor{};
};

class Testbed {
 public:
  /// Builds platform, store, loaded data and executor. `trace` and
  /// `profiler` (optional) are attached to the platform before the load,
  /// so the load's flash programs are observed too.
  explicit Testbed(TestbedConfig config, obs::TraceSink* trace = nullptr,
                   obs::RequestProfiler* profiler = nullptr);

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  [[nodiscard]] const workload::DatasetInfo& dataset() const {
    return workload::describe(config_.dataset);
  }
  [[nodiscard]] platform::CosmosPlatform& platform() noexcept {
    return platform_;
  }
  [[nodiscard]] kv::NKV& store() noexcept { return *store_; }
  [[nodiscard]] ndp::HybridExecutor& executor() noexcept {
    return *executor_;
  }
  [[nodiscard]] const ParserArtifacts& artifacts() const noexcept {
    return *artifacts_;
  }
  [[nodiscard]] const workload::PubGraphGenerator& generator()
      const noexcept {
    return generator_;
  }
  [[nodiscard]] std::uint64_t records_loaded() const noexcept {
    return records_loaded_;
  }

  /// Another executor over the same store in `mode`, otherwise configured
  /// like the testbed's own: e.g. a software cross-check of a hardware
  /// run. In hardware mode it drives the testbed's PE (attached on first
  /// use).
  [[nodiscard]] std::unique_ptr<ndp::HybridExecutor> make_executor(
      ndp::ExecMode mode);

 private:
  TestbedConfig config_;
  platform::CosmosPlatform platform_;
  Framework framework_;
  CompileResult compiled_;
  const ParserArtifacts* artifacts_ = nullptr;
  workload::PubGraphGenerator generator_;
  std::unique_ptr<kv::NKV> store_;
  std::uint64_t records_loaded_ = 0;
  std::optional<std::size_t> pe_;
  std::unique_ptr<ndp::HybridExecutor> executor_;
};

}  // namespace ndpgen::core
