#include "workload/crash_harness.hpp"

#include <cstdio>
#include <string>

#include "support/error.hpp"
#include "workload/pubgraph.hpp"

namespace ndpgen::workload {

namespace {

/// Every kDeleteEvery-th operation is a delete.
constexpr std::uint64_t kDeleteEvery = 7;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct Op {
  bool is_delete = false;
  std::uint64_t id = 0;
  std::vector<std::uint8_t> record;  ///< Empty for deletes.
};

Op make_op(const CrashHarnessConfig& config, std::uint64_t i) {
  const std::uint64_t draw = mix64(config.seed ^ mix64(i + 1));
  Op op;
  op.id = draw % config.key_space;
  op.is_delete = i > 0 && i % kDeleteEvery == kDeleteEvery - 1;
  if (!op.is_delete) {
    PaperRecord rec;
    rec.id = op.id;
    rec.year = kMinYear + static_cast<std::uint32_t>(
                              (draw >> 17) % (kMaxYear - kMinYear + 1));
    rec.venue_id = static_cast<std::uint32_t>((draw >> 23) % kVenues);
    rec.n_refs = static_cast<std::uint32_t>(i);
    rec.n_cited = static_cast<std::uint32_t>((draw >> 41) % 100);
    std::snprintf(rec.title, sizeof rec.title, "crash-op-%llu-id-%llu",
                  static_cast<unsigned long long>(i),
                  static_cast<unsigned long long>(op.id));
    op.record = rec.serialize();
  }
  return op;
}

kv::DBConfig harness_db_config(const CrashHarnessConfig& config) {
  kv::DBConfig db;
  db.record_bytes = PaperRecord::kBytes;
  db.extractor = paper_key;
  db.memtable_bytes = config.memtable_bytes;
  db.compaction.l1_trigger = config.l1_trigger;
  db.durability.enabled = true;
  return db;
}

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

void check(bool cond, const std::string& message) {
  if (!cond) ndpgen::raise(ErrorKind::kSimulation, message);
}

}  // namespace

CrashHarness::CrashHarness(CrashHarnessConfig config)
    : config_(std::move(config)) {
  NDPGEN_CHECK_ARG(config_.ops > 0 && config_.key_space > 0,
                   "crash harness needs a non-empty workload");
}

CrashRunResult CrashHarness::run(std::uint64_t crash_at) const {
  CrashRunResult result;

  platform::CosmosConfig cosmos;
  // crash_at == 0 means "run the whole workload"; an unreachable step
  // keeps the scheduler attached so steps are still counted.
  cosmos.crash.crash_at_step =
      crash_at == 0 ? ~std::uint64_t{0} : crash_at;
  cosmos.crash.torn_fraction = config_.torn_fraction;
  cosmos.crash.seed = config_.seed;
  result.platform = std::make_unique<platform::CosmosPlatform>(cosmos);
  if (config_.trace != nullptr) {
    result.platform->observability().trace = config_.trace;
  }
  auto& crash = result.platform->crash_scheduler();

  // --- Phase 1: the workload, host-modelled op by op. `model` tracks the
  // visible state after every *acknowledged* operation.
  std::map<std::uint64_t, std::vector<std::uint8_t>> model;
  std::uint64_t boundary_index = config_.ops;  // ops = "none in flight".
  {
    kv::NKV db(*result.platform, harness_db_config(config_));
    for (std::uint64_t i = 0; i < config_.ops; ++i) {
      const Op op = make_op(config_, i);
      try {
        if (op.is_delete) {
          db.del(kv::Key{op.id, 0});
        } else {
          db.put(op.record);
        }
      } catch (const Error&) {
        // Once power has died, the dying store can read back a page whose
        // program was dropped (a flush feeding a compaction). That ends
        // the op as the boundary; an error before the crash is real.
        if (!crash.crashed()) throw;
      }
      if (crash.crashed()) {
        // Power died somewhere inside this op: it is the boundary — its
        // effect may or may not have reached durable flash.
        boundary_index = i;
        break;
      }
      if (op.is_delete) {
        model.erase(op.id);
      } else {
        model[op.id] = op.record;
      }
      ++result.acked_ops;
    }
    // The pre-crash store (and its device-DRAM MemTable) dies here.
  }
  result.crashed = crash.crashed();
  result.crash_step = crash.crashed_step();
  result.steps_total = crash.steps_observed();

  // --- Phase 2: power restored; recover a fresh store over the surviving
  // flash content.
  result.platform->flash().set_crash_scheduler(nullptr);
  result.db =
      std::make_unique<kv::NKV>(*result.platform, harness_db_config(config_));
  result.report = result.db->recover();

  // --- Phase 3: the contract.
  check(result.report.torn_sst_blocks == 0,
        "torn committed SST block visible after recovery");

  std::map<std::uint64_t, std::vector<std::uint8_t>> boundary_model = model;
  if (boundary_index < config_.ops) {
    const Op op = make_op(config_, boundary_index);
    if (op.is_delete) {
      boundary_model.erase(op.id);
    } else {
      boundary_model[op.id] = op.record;
    }
  }
  for (std::uint64_t id = 0; id < config_.key_space; ++id) {
    const auto got = result.db->get(kv::Key{id, 0});
    const auto before = model.find(id);
    const auto after = boundary_model.find(id);
    const bool matches_before =
        before == model.end() ? !got.has_value()
                              : got.has_value() && *got == before->second;
    const bool matches_after =
        after == boundary_model.end()
            ? !got.has_value()
            : got.has_value() && *got == after->second;
    if (boundary_index < config_.ops &&
        make_op(config_, boundary_index).id == id) {
      check(matches_before || matches_after,
            "boundary op half-applied for id " + std::to_string(id));
      if (matches_after && !matches_before) result.boundary_op_applied = true;
    } else {
      check(matches_before, "acknowledged state lost or corrupted for id " +
                                std::to_string(id));
    }
    if (got.has_value()) result.state[id] = *got;
  }
  result.recovered_records = result.state.size();

  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const auto& [id, record] : result.state) {
    hash = fnv1a(hash, &id, sizeof id);
    hash = fnv1a(hash, record.data(), record.size());
  }
  result.state_hash = hash;

  // --- Phase 4: a never-crashed reference store holding the recovered
  // logical state, for NDP scan/get equivalence checks by the caller.
  result.ref_platform =
      std::make_unique<platform::CosmosPlatform>(platform::CosmosConfig{});
  kv::DBConfig ref_config = harness_db_config(config_);
  ref_config.durability.enabled = false;
  result.ref_db = std::make_unique<kv::NKV>(*result.ref_platform, ref_config);
  for (const auto& [id, record] : result.state) {
    (void)id;
    result.ref_db->put(record);
  }
  result.ref_db->flush();
  // Flush the recovered store too so both expose the same snapshot to the
  // (memtable-blind) NDP scan path.
  result.db->flush();
  return result;
}

std::uint64_t CrashHarness::count_steps() const {
  return run(0).steps_total;
}

}  // namespace ndpgen::workload
