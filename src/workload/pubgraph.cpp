#include "workload/pubgraph.hpp"

#include <cmath>
#include <cstring>

#include "support/bytes.hpp"
#include "support/error.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define NDPGEN_TITLE_AVX512 1
#endif

namespace ndpgen::workload {

namespace {

constexpr std::uint64_t kStreamMul = 0xa076'1d64'78bd'642fULL;
constexpr std::uint64_t kIndexMul = 0xe703'7ed1'a0b4'28dbULL;

/// mix(seed, 4, index * 131 + 8 + i) for title byte 8 + i is one
/// SplitMix64 seeded with stream ^ term, term stepping by kIndexMul.
std::uint64_t title_stream(std::uint64_t seed) {
  return seed ^ (4 * kStreamMul);
}
std::uint64_t title_term(std::uint64_t index) {
  return (index * 131 + 8) * kIndexMul;
}

#ifdef NDPGEN_TITLE_AVX512
// The zero-masking forms over all eight lanes compile to the plain
// instructions; the unmasked intrinsics trip a -Wuninitialized false
// positive inside GCC 12's own headers.
constexpr __mmask8 kAllLanes = 0xFF;

__attribute__((target("avx512f"))) inline __m512i lanes(std::uint64_t v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

/// Eight title bytes per step, one SplitMix64 per lane. AVX-512 has no
/// 64-bit high multiply, so z % 26 takes one step in doubles. With
/// z = hi * 2^32 + lo and 2^32 % 26 = 22, v = hi * 22 + lo is z modulo 26
/// and below 2^37, so it converts exactly. (v + 1/2) / 26 lies at least
/// 1/52 from every integer, and one FMA by the rounded constants 1/26 and
/// 1/52 is off by less than 2^-19, so the floor of that FMA is exactly
/// floor(v / 26); v - 26 * it is exact in doubles too.
__attribute__((target("avx512f,avx512dq"))) void title_postfix_avx512(
    std::uint64_t seed, std::uint64_t index,
    std::span<char, detail::kTitlePostfixBytes> out) noexcept {
  using support::SplitMix64;
  const __m512i stream = lanes(title_stream(seed));
  const __m512i step = lanes(8 * kIndexMul);
  const __m512d inv26 = _mm512_set1_pd(1.0 / 26);
  const __m512d half_inv26 = _mm512_set1_pd(0.5 / 26);
  const __m512d d26 = _mm512_set1_pd(26.0);
  __m512i term = _mm512_add_epi64(
      lanes(title_term(index)),
      _mm512_mullo_epi64(_mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
                         lanes(kIndexMul)));
  for (std::size_t i = 0; i < out.size(); i += 8) {
    __m512i z = _mm512_add_epi64(_mm512_xor_si512(stream, term),
                                 lanes(SplitMix64::kGamma));
    z = _mm512_xor_si512(z, _mm512_maskz_srli_epi64(kAllLanes, z, 30));
    z = _mm512_mullo_epi64(z, lanes(SplitMix64::kMul1));
    z = _mm512_xor_si512(z, _mm512_maskz_srli_epi64(kAllLanes, z, 27));
    z = _mm512_mullo_epi64(z, lanes(SplitMix64::kMul2));
    z = _mm512_xor_si512(z, _mm512_maskz_srli_epi64(kAllLanes, z, 31));
    const __m512i v = _mm512_add_epi64(
        _mm512_maskz_mul_epu32(kAllLanes,
                               _mm512_maskz_srli_epi64(kAllLanes, z, 32),
                               lanes(22)),
        _mm512_and_si512(z, lanes(0xFFFFFFFF)));
    const __m512d vd = _mm512_maskz_cvtepi64_pd(kAllLanes, v);
    const __m512d q = _mm512_maskz_roundscale_pd(
        kAllLanes, _mm512_fmadd_pd(vd, inv26, half_inv26),
        _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
    const __m512i rem = _mm512_maskz_cvttpd_epi64(
        kAllLanes, _mm512_fnmadd_pd(q, d26, vd));
    _mm512_mask_cvtepi64_storeu_epi8(out.data() + i, kAllLanes,
                                     _mm512_add_epi64(rem, lanes('a')));
    term = _mm512_add_epi64(term, step);
  }
}
#endif

using TitlePostfixFn = void (*)(std::uint64_t, std::uint64_t,
                                std::span<char, detail::kTitlePostfixBytes>)
    noexcept;

TitlePostfixFn select_title_postfix() noexcept {
#ifdef NDPGEN_TITLE_AVX512
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
    return title_postfix_avx512;
  }
#endif
  return detail::title_postfix_portable;
}

/// Stateless mix: deterministic field values from (seed, stream, index).
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t index) {
  support::SplitMix64 mixer(seed ^ (stream * kStreamMul) ^
                            (index * kIndexMul));
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

void PaperRecord::write(std::span<std::uint8_t, kBytes> out) const noexcept {
  support::store_u64(out.data(), id);
  support::store_u32(out.data() + 8, year);
  support::store_u32(out.data() + 12, venue_id);
  support::store_u32(out.data() + 16, n_refs);
  support::store_u32(out.data() + 20, n_cited);
  std::memcpy(out.data() + 24, title, sizeof(title));
}

std::vector<std::uint8_t> PaperRecord::serialize() const {
  std::vector<std::uint8_t> out(kBytes);
  write(std::span<std::uint8_t, kBytes>(out));
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

void RefRecord::write(std::span<std::uint8_t, kBytes> out) const noexcept {
  support::store_u64(out.data(), src);
  support::store_u64(out.data() + 8, dst);
}

std::vector<std::uint8_t> RefRecord::serialize() const {
  std::vector<std::uint8_t> out(kBytes);
  write(std::span<std::uint8_t, kBytes>(out));
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
  const std::uint64_t degree = std::max<std::uint64_t>(1, refs_ / papers_);
  degree_ = support::Divider(degree);
  width_ = support::Divider(std::max<std::uint64_t>(1, papers_ / degree));
  cited_ = support::Divider(2 * degree + 1);
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
  record.n_refs = static_cast<std::uint32_t>(degree_.divisor());
  record.n_cited = static_cast<std::uint32_t>(
      cited_.remainder(mix(config_.seed, 3, index)));
  // Title: readable prefix "P" + the id in seven zero-padded digits, then
  // the pseudo-random postfix.
  static_assert(kFullScalePapers < 10'000'000, "ids fit seven digits");
  static_assert(sizeof(record.title) == 8 + detail::kTitlePostfixBytes);
  record.title[0] = 'P';
  std::uint64_t digits = record.id;
  for (std::size_t i = 7; i >= 1; --i, digits /= 10) {
    record.title[i] = static_cast<char>('0' + digits % 10);
  }
  detail::title_postfix(
      config_.seed, index,
      std::span<char, detail::kTitlePostfixBytes>(record.title + 8,
                                                  detail::kTitlePostfixBytes));
  return record;
}

namespace detail {

void title_postfix_portable(std::uint64_t seed, std::uint64_t index,
                            std::span<char, kTitlePostfixBytes> out) noexcept {
  const std::uint64_t stream = title_stream(seed);
  std::uint64_t term = title_term(index);
  for (char& byte : out) {
    support::SplitMix64 mixer(stream ^ term);
    byte = static_cast<char>('a' + mixer.next() % 26);
    term += kIndexMul;
  }
}

void title_postfix(std::uint64_t seed, std::uint64_t index,
                   std::span<char, kTitlePostfixBytes> out) noexcept {
  static const TitlePostfixFn selected = select_title_postfix();
  selected(seed, index, out);
}

}  // namespace detail

RefRecord PubGraphGenerator::ref(std::uint64_t index) const {
  NDPGEN_CHECK_ARG(index < refs_, "ref index out of range");
  RefRecord record;
  // The last paper takes the overflow refs: its j runs past the degree.
  const std::uint64_t src_index =
      std::min(degree_.quotient(index), papers_ - 1);
  const std::uint64_t j = index - src_index * degree_.divisor();
  record.src = src_index + 1;
  // Destination: j-th segment of the id space with deterministic jitter,
  // strictly ascending within a source (bulk-load ordering).
  const std::uint64_t base = std::min(j * width_.divisor(), papers_ - 1);
  const std::uint64_t jitter = width_.remainder(mix(config_.seed, 5, index));
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
  kv::BulkLoad load = db.bulk_load(level, records_per_sst);
  for (std::uint64_t index = 0; index < generator.paper_count(); ++index) {
    generator.paper(index).write(load.slot().first<PaperRecord::kBytes>());
    load.commit();
  }
  load.finish();
  return generator.paper_count();
}

std::uint64_t load_refs(kv::NKV& db, const PubGraphGenerator& generator,
                        std::uint32_t level,
                        std::uint64_t records_per_sst) {
  kv::BulkLoad load = db.bulk_load(level, records_per_sst);
  std::uint64_t loaded = 0;
  kv::Key previous = kv::Key::min();
  for (std::uint64_t index = 0; index < generator.ref_count(); ++index) {
    // Skip duplicate (src, dst) pairs produced by the jittered generator:
    // bulk load requires strictly ascending keys.
    const RefRecord ref = generator.ref(index);
    const kv::Key key{ref.src, ref.dst};
    if (!(previous < key)) continue;
    previous = key;
    ref.write(load.slot().first<RefRecord::kBytes>());
    load.commit();
    ++loaded;
  }
  load.finish();
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
