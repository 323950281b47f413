// Publication reference-graph workload (the paper's evaluation dataset).
//
// "The nodes of the graph are papers published in journals and
// conferences. The edges are references between those papers. Overall, the
// dataset is comprised of 3,775,161 Paper-Entries and 40,128,663
// references" (§V). We do not have the original dump, so a seeded
// synthetic generator reproduces the record schemas, the cardinality
// ratio and the total data volume (~1.1 GiB at full scale); a scale
// divisor shrinks both populations proportionally for tractable
// simulation (virtual time scales linearly in the flash-bound regime).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "kv/db.hpp"
#include "support/divider.hpp"
#include "support/rng.hpp"

namespace ndpgen::workload {

inline constexpr std::uint64_t kFullScalePapers = 3'775'161;
inline constexpr std::uint64_t kFullScaleRefs = 40'128'663;

/// Paper record: 128 bytes packed (id, stats, title string w/ prefix).
struct PaperRecord {
  std::uint64_t id = 0;
  std::uint32_t year = 0;
  std::uint32_t venue_id = 0;
  std::uint32_t n_refs = 0;
  std::uint32_t n_cited = 0;
  char title[104] = {};

  static constexpr std::uint32_t kBytes = 128;
  /// Writes the packed little-endian record into `out`.
  void write(std::span<std::uint8_t, kBytes> out) const noexcept;
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static PaperRecord deserialize(
      std::span<const std::uint8_t> bytes);
};

/// Reference (edge) record: 16 bytes packed.
struct RefRecord {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;

  static constexpr std::uint32_t kBytes = 16;
  /// Writes the packed little-endian record into `out`.
  void write(std::span<std::uint8_t, kBytes> out) const noexcept;
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static RefRecord deserialize(
      std::span<const std::uint8_t> bytes);
};

/// Key extractors matching the store schemas.
[[nodiscard]] kv::Key paper_key(std::span<const std::uint8_t> record);
[[nodiscard]] kv::Key ref_key(std::span<const std::uint8_t> record);
/// Key from a PaperResult (projected) record: id is field 0.
[[nodiscard]] kv::Key paper_result_key(std::span<const std::uint8_t> record);

/// Format specification source (Fig. 4 syntax) for the two schemas,
/// consumed by the framework front-end. PaperScan projects Paper ->
/// PaperResult (drops the title payload); RefScan is an identity parser
/// over edges with two filter stages (source/destination range scans).
[[nodiscard]] const std::string& pubgraph_spec_source();

/// Publication years span [kMinYear, kMaxYear]; venue ids span
/// [0, kVenues).
inline constexpr std::uint32_t kMinYear = 1936;
inline constexpr std::uint32_t kMaxYear = 2020;
inline constexpr std::uint32_t kVenues = 12'000;

struct PubGraphConfig {
  std::uint64_t scale_divisor = 256;  ///< Population divisor.
  std::uint64_t seed = 20210521;      ///< IPDPSW'21 :-)
};

/// Deterministic generator producing the scaled populations.
class PubGraphGenerator {
 public:
  explicit PubGraphGenerator(PubGraphConfig config = {});

  [[nodiscard]] std::uint64_t paper_count() const noexcept { return papers_; }
  [[nodiscard]] std::uint64_t ref_count() const noexcept { return refs_; }
  [[nodiscard]] const PubGraphConfig& config() const noexcept {
    return config_;
  }

  /// Paper `index` (0-based); ids are dense 1..paper_count, so records
  /// are key-sorted by construction (bulk-load friendly).
  [[nodiscard]] PaperRecord paper(std::uint64_t index) const;

  /// Reference `index` (0-based), sorted by (src, dst) for bulk load.
  [[nodiscard]] RefRecord ref(std::uint64_t index) const;

  /// Fraction of papers with year < `year` (analytic selectivity helper
  /// for the benchmark tables).
  [[nodiscard]] double year_selectivity(std::uint32_t year) const;

 private:
  PubGraphConfig config_;
  std::uint64_t papers_;
  std::uint64_t refs_;
  support::Divider degree_;  ///< By refs per paper, >= 1.
  support::Divider width_;   ///< By the destination id segment per ref slot.
  support::Divider cited_;   ///< By the n_cited range, 2 * degree + 1.
};

namespace detail {

/// Bytes of PaperRecord::title after its 8-byte "P<id>" prefix.
inline constexpr std::size_t kTitlePostfixBytes = 96;

/// Writes paper `index`'s title postfix: byte i is
/// 'a' + mix(seed, 4, index * 131 + 8 + i) % 26, one SplitMix64 each.
/// The portable loop is the reference; title_postfix runs the widest path
/// the host supports (eight AVX-512 lanes on x86-64) with the same bytes.
void title_postfix_portable(std::uint64_t seed, std::uint64_t index,
                            std::span<char, kTitlePostfixBytes> out) noexcept;
void title_postfix(std::uint64_t seed, std::uint64_t index,
                   std::span<char, kTitlePostfixBytes> out) noexcept;

}  // namespace detail

/// Populates `db` with all scaled Paper records via bulk load into the
/// given level. Returns records loaded.
std::uint64_t load_papers(kv::NKV& db, const PubGraphGenerator& generator,
                          std::uint32_t level = 2,
                          std::uint64_t records_per_sst = 64 * 255);

/// Populates `db` with all scaled Ref records.
std::uint64_t load_refs(kv::NKV& db, const PubGraphGenerator& generator,
                        std::uint32_t level = 2,
                        std::uint64_t records_per_sst = 64 * 2047);

/// The two base datasets of the graph. describe() holds every fact a
/// device build needs about one of them, so no call site restates record
/// sizes, key extractors or parser names.
enum class Dataset : std::uint8_t { kPapers, kRefs };

struct DatasetInfo {
  std::string_view name;        ///< "papers" / "refs" (CLI and plan text).
  std::string_view parser;      ///< Stock parser in pubgraph_spec_source().
  std::string_view input_type;  ///< Record struct in the spec source.
  /// That struct's typedef, the one text pubgraph_spec_source() and the
  /// query compiler's leaf specs both state.
  std::string_view record_struct;
  std::uint32_t record_bytes;
  /// Integer fields, in record order; the title payload is not a column.
  std::vector<std::string> columns;
  /// C type of each column in `record_struct`, parallel to `columns`.
  std::vector<std::string_view> column_types;
  std::size_t key_columns;  ///< The first `key_columns` columns form the key.
  kv::KeyExtractor key;  ///< Stored record.
  /// Key of the stock parser's OUTPUT record (the executor's recency
  /// dedup and the host service's per-request result accounting).
  kv::KeyExtractor result_key;
  /// Bulk loader with its default level and SST size.
  std::uint64_t (*load)(kv::NKV&, const PubGraphGenerator&);
};

[[nodiscard]] const DatasetInfo& describe(Dataset dataset);
[[nodiscard]] std::string_view to_string(Dataset dataset) noexcept;
/// "papers" / "refs" -> dataset; nullopt for anything else.
[[nodiscard]] std::optional<Dataset> parse_dataset(std::string_view name);
/// Store schema for the dataset (record size + key extractor).
[[nodiscard]] kv::DBConfig db_config(Dataset dataset);

}  // namespace ndpgen::workload
