#include "workload/pubgraph.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "analysis/analyzer.hpp"
#include "kv/db.hpp"
#include "platform/cosmos.hpp"
#include "spec/parser.hpp"
#include "support/bytes.hpp"
#include "support/crc32c_reference.hpp"

namespace ndpgen::workload {
namespace {

TEST(PubGraph, FullScaleCardinalities) {
  EXPECT_EQ(kFullScalePapers, 3'775'161u);
  EXPECT_EQ(kFullScaleRefs, 40'128'663u);
}

TEST(PubGraph, ScaleDividesPopulations) {
  PubGraphGenerator generator(PubGraphConfig{.scale_divisor = 1000});
  EXPECT_EQ(generator.paper_count(), kFullScalePapers / 1000);
  EXPECT_EQ(generator.ref_count(), kFullScaleRefs / 1000);
  // The paper:ref ratio is preserved (~1:10.6).
  const double ratio = static_cast<double>(generator.ref_count()) /
                       static_cast<double>(generator.paper_count());
  EXPECT_NEAR(ratio, 10.6, 0.5);
}

TEST(PubGraph, PaperSerializationRoundTrip) {
  PubGraphGenerator generator(PubGraphConfig{.scale_divisor = 4096});
  const PaperRecord paper = generator.paper(17);
  const auto bytes = paper.serialize();
  ASSERT_EQ(bytes.size(), PaperRecord::kBytes);
  const PaperRecord copy = PaperRecord::deserialize(bytes);
  EXPECT_EQ(copy.id, paper.id);
  EXPECT_EQ(copy.year, paper.year);
  EXPECT_EQ(copy.venue_id, paper.venue_id);
  EXPECT_EQ(copy.n_refs, paper.n_refs);
  EXPECT_EQ(copy.n_cited, paper.n_cited);
  EXPECT_EQ(std::memcmp(copy.title, paper.title, sizeof(copy.title)), 0);
}

TEST(PubGraph, RefSerializationRoundTrip) {
  PubGraphGenerator generator(PubGraphConfig{.scale_divisor = 4096});
  const RefRecord ref = generator.ref(99);
  const auto bytes = ref.serialize();
  ASSERT_EQ(bytes.size(), RefRecord::kBytes);
  const RefRecord copy = RefRecord::deserialize(bytes);
  EXPECT_EQ(copy.src, ref.src);
  EXPECT_EQ(copy.dst, ref.dst);
}

TEST(PubGraph, DeterministicAcrossInstances) {
  PubGraphGenerator a(PubGraphConfig{.scale_divisor = 2048});
  PubGraphGenerator b(PubGraphConfig{.scale_divisor = 2048});
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.paper(i).serialize(), b.paper(i).serialize());
    EXPECT_EQ(a.ref(i).serialize(), b.ref(i).serialize());
  }
}

TEST(PubGraph, SeedChangesContent) {
  PubGraphGenerator a(PubGraphConfig{.scale_divisor = 2048, .seed = 1});
  PubGraphGenerator b(PubGraphConfig{.scale_divisor = 2048, .seed = 2});
  int differing = 0;
  for (std::uint64_t i = 0; i < 50; ++i) {
    differing += a.paper(i).serialize() != b.paper(i).serialize() ? 1 : 0;
  }
  EXPECT_GT(differing, 40);
}

TEST(PubGraph, PaperIdsAreDenseAndSorted) {
  PubGraphGenerator generator(PubGraphConfig{.scale_divisor = 4096});
  for (std::uint64_t i = 0; i < generator.paper_count(); ++i) {
    EXPECT_EQ(generator.paper(i).id, i + 1);
  }
}

TEST(PubGraph, YearsInRangeAndSkewedRecent) {
  PubGraphGenerator generator(PubGraphConfig{.scale_divisor = 1024});
  std::uint64_t recent = 0;
  const std::uint64_t count = generator.paper_count();
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto year = generator.paper(i).year;
    ASSERT_GE(year, 1936u);
    ASSERT_LE(year, 2020u);
    recent += year >= 1990 ? 1 : 0;
  }
  // More than half the papers are from 1990+ (skew toward recent).
  EXPECT_GT(recent, count / 2);
}

TEST(PubGraph, YearSelectivityMatchesEmpirical) {
  PubGraphGenerator generator(PubGraphConfig{.scale_divisor = 1024});
  for (const std::uint32_t cutoff : {1950u, 1980u, 2000u}) {
    std::uint64_t matching = 0;
    for (std::uint64_t i = 0; i < generator.paper_count(); ++i) {
      matching += generator.paper(i).year < cutoff ? 1 : 0;
    }
    const double empirical = static_cast<double>(matching) /
                             static_cast<double>(generator.paper_count());
    EXPECT_NEAR(empirical, generator.year_selectivity(cutoff), 0.03)
        << cutoff;
  }
}

TEST(PubGraph, RefsSortedForBulkLoad) {
  PubGraphGenerator generator(PubGraphConfig{.scale_divisor = 8192});
  kv::Key previous = kv::Key::min();
  std::uint64_t strictly_ascending = 0;
  for (std::uint64_t i = 0; i < generator.ref_count(); ++i) {
    const RefRecord ref = generator.ref(i);
    EXPECT_GE(ref.src, 1u);
    EXPECT_LE(ref.src, generator.paper_count());
    EXPECT_GE(ref.dst, 1u);
    EXPECT_LE(ref.dst, generator.paper_count());
    const kv::Key key{ref.src, ref.dst};
    if (previous < key) ++strictly_ascending;
    previous = std::max(previous, key);
  }
  // The generator is ascending except for rare jitter collisions (which
  // the loader skips).
  EXPECT_GT(strictly_ascending, generator.ref_count() * 9 / 10);
}

TEST(PubGraph, KeyExtractors) {
  PubGraphGenerator generator(PubGraphConfig{.scale_divisor = 8192});
  const auto paper = generator.paper(3).serialize();
  EXPECT_EQ(paper_key(paper), (kv::Key{4, 0}));
  const auto ref = generator.ref(5);
  EXPECT_EQ(ref_key(ref.serialize()), (kv::Key{ref.src, ref.dst}));
}

TEST(PubGraph, SpecSourceCompiles) {
  const auto module = spec::parse_spec(pubgraph_spec_source());
  EXPECT_NE(module.find_parser("PaperScan"), nullptr);
  EXPECT_NE(module.find_parser("RefScan"), nullptr);
  const auto analyzed = analysis::analyze_parser(module, "PaperScan");
  EXPECT_EQ(analyzed.input.storage_bytes(), PaperRecord::kBytes);
  EXPECT_EQ(analyzed.output.storage_bytes(), 24u);
  const auto refs = analysis::analyze_parser(module, "RefScan");
  EXPECT_EQ(refs.input.storage_bytes(), RefRecord::kBytes);
  EXPECT_EQ(refs.filter_stages, 2u);
}

TEST(PubGraph, LoadersPopulateStore) {
  platform::CosmosPlatform cosmos;
  PubGraphGenerator generator(PubGraphConfig{.scale_divisor = 8192});
  kv::DBConfig config;
  config.record_bytes = PaperRecord::kBytes;
  config.extractor = paper_key;
  kv::NKV db(cosmos, config);
  const auto loaded = load_papers(db, generator);
  EXPECT_EQ(loaded, generator.paper_count());
  EXPECT_EQ(db.version().total_records(), loaded);
  const auto hit = db.get(kv::Key{1, 0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(PaperRecord::deserialize(*hit).id, 1u);
}

TEST(PubGraph, RefLoaderSkipsDuplicates) {
  platform::CosmosPlatform cosmos;
  PubGraphGenerator generator(PubGraphConfig{.scale_divisor = 8192});
  kv::DBConfig config;
  config.record_bytes = RefRecord::kBytes;
  config.extractor = ref_key;
  kv::NKV db(cosmos, config);
  const auto loaded = load_refs(db, generator);
  EXPECT_GT(loaded, generator.ref_count() * 8 / 10);
  EXPECT_LE(loaded, generator.ref_count());
  EXPECT_EQ(db.version().total_records(), loaded);
}

TEST(PubGraph, DatasetDescriptorsMatchTheSpecSource) {
  const auto module = spec::parse_spec(pubgraph_spec_source());
  for (const Dataset dataset : {Dataset::kPapers, Dataset::kRefs}) {
    const DatasetInfo& info = describe(dataset);
    EXPECT_EQ(parse_dataset(to_string(dataset)), dataset);
    const auto parser = analysis::analyze_parser(module, info.parser);
    EXPECT_EQ(parser.input.storage_bytes(), info.record_bytes);
    EXPECT_EQ(db_config(dataset).record_bytes, info.record_bytes);
    ASSERT_LE(info.key_columns, info.columns.size());
    for (const auto& column : info.columns) {
      EXPECT_TRUE(parser.input.find_field(column).has_value()) << column;
    }
  }
  EXPECT_FALSE(parse_dataset("edges").has_value());
}

// A CRC32C over every generated record's bytes at scale 4096, and over the
// first and last 1,000 records at full scale, recorded from the printf
// title writer. The bitwise reference computes it, so a checksum bug
// cannot hide a generator change.
TEST(PubGraph, GeneratedBytesArePinned) {
  const auto papers = [](const PubGraphGenerator& generator,
                         std::uint64_t begin, std::uint64_t end) {
    std::uint32_t crc = 0;
    for (std::uint64_t i = begin; i < end; ++i) {
      crc = support::reference::crc32c_bitwise(
          crc, generator.paper(i).serialize());
    }
    return crc;
  };
  const auto refs = [](const PubGraphGenerator& generator,
                       std::uint64_t begin, std::uint64_t end) {
    std::uint32_t crc = 0;
    for (std::uint64_t i = begin; i < end; ++i) {
      crc = support::reference::crc32c_bitwise(
          crc, generator.ref(i).serialize());
    }
    return crc;
  };

  const PubGraphGenerator scaled(PubGraphConfig{.scale_divisor = 4096});
  EXPECT_EQ(papers(scaled, 0, scaled.paper_count()), 0x3DA95E07u);
  EXPECT_EQ(refs(scaled, 0, scaled.ref_count()), 0xF563ABA7u);

  const PubGraphGenerator full(PubGraphConfig{.scale_divisor = 1});
  ASSERT_EQ(full.paper_count(), kFullScalePapers);
  ASSERT_EQ(full.ref_count(), kFullScaleRefs);
  EXPECT_EQ(papers(full, 0, 1000), 0x5D032A3Bu);
  EXPECT_EQ(papers(full, kFullScalePapers - 1000, kFullScalePapers),
            0xCF3A2815u);
  EXPECT_EQ(refs(full, 0, 1000), 0x1515A1DBu);
  EXPECT_EQ(refs(full, kFullScaleRefs - 1000, kFullScaleRefs), 0x54ED72FDu);
}

// The host's title path (AVX-512 lanes where available) writes the same
// bytes as the portable loop, for every seed and index tried: with the
// default seed every paper index up to 2^18 (all of the 1/16 store),
// with other seeds dense and random indices.
TEST(PubGraph, TitlePostfixPathsAgree) {
  support::SplitMix64 rng(131);
  const std::uint64_t default_seed = PubGraphConfig{}.seed;
  for (const std::uint64_t seed : {default_seed, std::uint64_t{0},
                                   ~std::uint64_t{0}, rng.next()}) {
    const std::uint64_t count = seed == default_seed ? 1 << 18 : 4096;
    for (std::uint64_t n = 0; n < count; ++n) {
      const std::uint64_t index = n < count / 2 || seed == default_seed
                                      ? n
                                      : rng.next();
      char fast[detail::kTitlePostfixBytes];
      char portable[detail::kTitlePostfixBytes];
      detail::title_postfix(seed, index, fast);
      detail::title_postfix_portable(seed, index, portable);
      ASSERT_EQ(std::memcmp(fast, portable, sizeof(fast)), 0)
          << "seed " << seed << " index " << index;
    }
  }
}

}  // namespace
}  // namespace ndpgen::workload
