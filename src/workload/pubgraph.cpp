#include "workload/pubgraph.hpp"

#include <cmath>
#include <cstring>

#include "support/bytes.hpp"
#include "support/error.hpp"

namespace ndpgen::workload {

namespace {

/// Stateless mix: deterministic field values from (seed, stream, index).
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t index) {
  support::SplitMix64 mixer(seed ^ (stream * 0xa076'1d64'78bd'642fULL) ^
                            (index * 0xe703'7ed1'a0b4'28dbULL));
  return mixer.next();
}

constexpr std::string_view kPaperStruct = R"spec(typedef struct {
  uint64_t id;
  uint32_t year;
  uint32_t venue_id;
  uint32_t n_refs;
  uint32_t n_cited;
  /* @string prefix = 8 */
  char title[104];
} Paper;
)spec";

constexpr std::string_view kRefStruct = R"spec(typedef struct {
  uint64_t src;
  uint64_t dst;
} Ref;
)spec";

}  // namespace

std::vector<std::uint8_t> PaperRecord::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(kBytes);
  support::put_u64(out, id);
  support::put_u32(out, year);
  support::put_u32(out, venue_id);
  support::put_u32(out, n_refs);
  support::put_u32(out, n_cited);
  out.insert(out.end(), reinterpret_cast<const std::uint8_t*>(title),
             reinterpret_cast<const std::uint8_t*>(title) + sizeof(title));
  NDPGEN_CHECK(out.size() == kBytes, "PaperRecord serialization size");
  return out;
}

PaperRecord PaperRecord::deserialize(std::span<const std::uint8_t> bytes) {
  NDPGEN_CHECK_ARG(bytes.size() == kBytes, "PaperRecord needs 128 bytes");
  PaperRecord record;
  record.id = support::get_u64(bytes, 0);
  record.year = support::get_u32(bytes, 8);
  record.venue_id = support::get_u32(bytes, 12);
  record.n_refs = support::get_u32(bytes, 16);
  record.n_cited = support::get_u32(bytes, 20);
  std::memcpy(record.title, bytes.data() + 24, sizeof(record.title));
  return record;
}

std::vector<std::uint8_t> RefRecord::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(kBytes);
  support::put_u64(out, src);
  support::put_u64(out, dst);
  return out;
}

RefRecord RefRecord::deserialize(std::span<const std::uint8_t> bytes) {
  NDPGEN_CHECK_ARG(bytes.size() == kBytes, "RefRecord needs 16 bytes");
  RefRecord record;
  record.src = support::get_u64(bytes, 0);
  record.dst = support::get_u64(bytes, 8);
  return record;
}

kv::Key paper_key(std::span<const std::uint8_t> record) {
  return kv::Key{support::get_u64(record, 0), 0};
}

kv::Key ref_key(std::span<const std::uint8_t> record) {
  return kv::Key{support::get_u64(record, 0), support::get_u64(record, 8)};
}

kv::Key paper_result_key(std::span<const std::uint8_t> record) {
  return kv::Key{support::get_u64(record, 0), 0};
}

const std::string& pubgraph_spec_source() {
  static const std::string source =
      "\n/* @autogen define parser PaperScan with\n"
      "   chunksize = 32, input = Paper, output = PaperResult */\n" +
      std::string(kPaperStruct) + R"spec(
typedef struct {
  uint64_t id;
  uint32_t year;
  uint32_t venue_id;
  uint32_t n_refs;
  uint32_t n_cited;
} PaperResult;

/* @autogen define parser RefScan with
   chunksize = 32, input = Ref, output = Ref, filters = 2 */
)spec" + std::string(kRefStruct);
  return source;
}

PubGraphGenerator::PubGraphGenerator(PubGraphConfig config)
    : config_(config) {
  NDPGEN_CHECK_ARG(config.scale_divisor >= 1, "scale divisor must be >= 1");
  papers_ = std::max<std::uint64_t>(1, kFullScalePapers / config.scale_divisor);
  refs_ = std::max<std::uint64_t>(1, kFullScaleRefs / config.scale_divisor);
}

PaperRecord PubGraphGenerator::paper(std::uint64_t index) const {
  NDPGEN_CHECK_ARG(index < papers_, "paper index out of range");
  PaperRecord record;
  record.id = index + 1;  // Dense, 1-based -> key-sorted by construction.
  const double u =
      static_cast<double>(mix(config_.seed, 1, index) >> 11) * 0x1.0p-53;
  constexpr std::uint32_t range = kMaxYear - kMinYear;
  // Publication years skew recent: year = min + sqrt(u) * range, so the
  // density grows linearly toward kMaxYear.
  record.year = kMinYear + static_cast<std::uint32_t>(std::sqrt(u) * range);
  record.venue_id =
      static_cast<std::uint32_t>(mix(config_.seed, 2, index) % kVenues);
  const std::uint64_t degree =
      std::max<std::uint64_t>(1, refs_ / papers_);
  record.n_refs = static_cast<std::uint32_t>(degree);
  record.n_cited = static_cast<std::uint32_t>(
      mix(config_.seed, 3, index) % (2 * degree + 1));
  // Title: readable prefix + pseudo-random postfix.
  std::snprintf(record.title, sizeof(record.title), "P%07llu",
                static_cast<unsigned long long>(record.id));
  for (std::size_t i = 8; i < sizeof(record.title); ++i) {
    record.title[i] =
        static_cast<char>('a' + (mix(config_.seed, 4, index * 131 + i) % 26));
  }
  return record;
}

RefRecord PubGraphGenerator::ref(std::uint64_t index) const {
  NDPGEN_CHECK_ARG(index < refs_, "ref index out of range");
  const std::uint64_t degree = std::max<std::uint64_t>(1, refs_ / papers_);
  RefRecord record;
  const std::uint64_t src_index = std::min(index / degree, papers_ - 1);
  const std::uint64_t j = index - src_index * degree;
  record.src = src_index + 1;
  // Destination: j-th segment of the id space with deterministic jitter,
  // strictly ascending within a source (bulk-load ordering).
  const std::uint64_t width = std::max<std::uint64_t>(1, papers_ / degree);
  const std::uint64_t base = std::min(j * width, papers_ - 1);
  const std::uint64_t jitter =
      mix(config_.seed, 5, index) % std::max<std::uint64_t>(1, width);
  record.dst = std::min(base + jitter, papers_ - 1) + 1;
  return record;
}

double PubGraphGenerator::year_selectivity(std::uint32_t year) const {
  if (year <= kMinYear) return 0.0;
  if (year > kMaxYear) return 1.0;
  constexpr double range = kMaxYear - kMinYear;
  const double x = (year - kMinYear) / range;  // in (0, 1]
  // P(year < Y) = P(min + sqrt(u)*range < Y) = x^2.
  return x * x;
}

std::uint64_t load_papers(kv::NKV& db, const PubGraphGenerator& generator,
                          std::uint32_t level,
                          std::uint64_t records_per_sst) {
  std::uint64_t index = 0;
  db.bulk_load_sorted(
      level,
      [&](std::vector<std::uint8_t>& record) {
        if (index >= generator.paper_count()) return false;
        record = generator.paper(index++).serialize();
        return true;
      },
      records_per_sst);
  return index;
}

std::uint64_t load_refs(kv::NKV& db, const PubGraphGenerator& generator,
                        std::uint32_t level,
                        std::uint64_t records_per_sst) {
  std::uint64_t index = 0;
  std::uint64_t loaded = 0;
  kv::Key previous = kv::Key::min();
  db.bulk_load_sorted(
      level,
      [&](std::vector<std::uint8_t>& record) {
        // Skip duplicate (src, dst) pairs produced by the jittered
        // generator: bulk load requires strictly ascending keys.
        while (index < generator.ref_count()) {
          const RefRecord candidate = generator.ref(index++);
          const kv::Key key{candidate.src, candidate.dst};
          if (previous < key) {
            previous = key;
            record = candidate.serialize();
            ++loaded;
            return true;
          }
        }
        return false;
      },
      records_per_sst);
  return loaded;
}

const DatasetInfo& describe(Dataset dataset) {
  static const DatasetInfo kPapers{
      "papers", "PaperScan", "Paper", kPaperStruct, PaperRecord::kBytes,
      {"id", "year", "venue_id", "n_refs", "n_cited"},
      {"uint64_t", "uint32_t", "uint32_t", "uint32_t", "uint32_t"}, 1,
      paper_key, paper_result_key,
      [](kv::NKV& db, const PubGraphGenerator& generator) {
        return load_papers(db, generator);
      }};
  // RefScan is an identity parser: output records keep the stored key.
  static const DatasetInfo kRefs{
      "refs", "RefScan", "Ref", kRefStruct, RefRecord::kBytes,
      {"src", "dst"}, {"uint64_t", "uint64_t"}, 2, ref_key, ref_key,
      [](kv::NKV& db, const PubGraphGenerator& generator) {
        return load_refs(db, generator);
      }};
  return dataset == Dataset::kRefs ? kRefs : kPapers;
}

std::string_view to_string(Dataset dataset) noexcept {
  return describe(dataset).name;
}

std::optional<Dataset> parse_dataset(std::string_view name) {
  for (const Dataset dataset : {Dataset::kPapers, Dataset::kRefs}) {
    if (describe(dataset).name == name) return dataset;
  }
  return std::nullopt;
}

kv::DBConfig db_config(Dataset dataset) {
  kv::DBConfig config;
  config.record_bytes = describe(dataset).record_bytes;
  config.extractor = describe(dataset).key;
  return config;
}

}  // namespace ndpgen::workload
