#include "fault/fault_injector.hpp"

#include <gtest/gtest.h>

#include "fault/fault_profile.hpp"

namespace ndpgen::fault {
namespace {

// --- FaultProfile parsing ---------------------------------------------

TEST(FaultProfile, DefaultIsFaultFree) {
  const FaultProfile profile;
  EXPECT_FALSE(profile.any_enabled());
  EXPECT_EQ(profile.summary(), "faults: none");
}

TEST(FaultProfile, ParsesEveryKey) {
  const auto parsed = FaultProfile::parse(
      "seed=42,read_ber=1e-6,wear_alpha=0.001,retention_alpha=0.01,"
      "ecc_bits=60,retry_factor=0.25,max_retries=3,bad_block_rate=0.02,"
      "silent_rate=1e-4,nvme_timeout_rate=0.05,nvme_max_retries=4,"
      "pe_fault_rate=0.1");
  ASSERT_TRUE(parsed.ok());
  const FaultProfile& p = parsed.value();
  EXPECT_EQ(p.seed, 42u);
  EXPECT_DOUBLE_EQ(p.read_ber, 1e-6);
  EXPECT_DOUBLE_EQ(p.wear_alpha, 0.001);
  EXPECT_DOUBLE_EQ(p.retention_alpha, 0.01);
  EXPECT_EQ(p.ecc_correctable_bits, 60u);
  EXPECT_DOUBLE_EQ(p.retry_error_factor, 0.25);
  EXPECT_EQ(p.max_read_retries, 3u);
  EXPECT_DOUBLE_EQ(p.bad_block_rate, 0.02);
  EXPECT_DOUBLE_EQ(p.silent_corruption_rate, 1e-4);
  EXPECT_DOUBLE_EQ(p.nvme_timeout_rate, 0.05);
  EXPECT_EQ(p.nvme_max_retries, 4u);
  EXPECT_DOUBLE_EQ(p.pe_fault_rate, 0.1);
  EXPECT_TRUE(p.any_enabled());
}

TEST(FaultProfile, RejectsUnknownKey) {
  const auto parsed = FaultProfile::parse("read_ber=1e-6,bogus=1");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().kind, ErrorKind::kInvalidArg);
}

TEST(FaultProfile, RejectsMalformedNumber) {
  EXPECT_FALSE(FaultProfile::parse("read_ber=abc").ok());
  EXPECT_FALSE(FaultProfile::parse("seed=").ok());
  EXPECT_FALSE(FaultProfile::parse("read_ber").ok());
}

TEST(FaultProfile, PresetNamesSelectCannedEnvironments) {
  EXPECT_FALSE(FaultProfile::parse("none").value().any_enabled());
  const FaultProfile aged = FaultProfile::parse("aged").value();
  EXPECT_TRUE(aged.any_enabled());
  EXPECT_GT(aged.read_ber, 0.0);
  EXPECT_GT(aged.bad_block_rate, 0.0);
  EXPECT_EQ(aged.pe_fault_rate, 0.0);
  const FaultProfile degraded = FaultProfile::parse("degraded").value();
  EXPECT_GT(degraded.read_ber, aged.read_ber);
  EXPECT_GT(degraded.silent_corruption_rate, 0.0);
  const FaultProfile stress = FaultProfile::parse("stress").value();
  EXPECT_GT(stress.read_ber, degraded.read_ber);
  EXPECT_GT(stress.pe_fault_rate, 0.0);
}

TEST(FaultProfile, ParsesBitRotKeysAndPreset) {
  const auto parsed = FaultProfile::parse(
      "device_bitrot_blocks=3,device_bitrot_device=1,"
      "device_bitrot_at_frac=0.5,device_bitrot_at_us=250,"
      "device_bitrot_wrong_data=1");
  ASSERT_TRUE(parsed.ok());
  const FaultProfile& p = parsed.value();
  EXPECT_EQ(p.device_bitrot_blocks, 3u);
  EXPECT_EQ(p.device_bitrot_device, 1u);
  EXPECT_DOUBLE_EQ(p.device_bitrot_at_frac, 0.5);
  EXPECT_EQ(p.device_bitrot_at_ns, 250'000u);
  EXPECT_TRUE(p.device_bitrot_wrong_data);
  EXPECT_TRUE(p.device_bitrot_enabled());
  // Bit-rot is a cluster-level fault: the per-device media hooks stay on
  // the fault-free fast path, but the summary must still report it.
  EXPECT_FALSE(p.any_enabled());
  EXPECT_NE(p.summary(), "faults: none");

  const FaultProfile preset = FaultProfile::parse("bit-rot").value();
  EXPECT_TRUE(preset.device_bitrot_enabled());
  EXPECT_EQ(preset.device_bitrot_blocks, 4u);
  EXPECT_EQ(preset.device_bitrot_device, 0u);
  EXPECT_DOUBLE_EQ(preset.device_bitrot_at_frac, 0.25);
  EXPECT_FALSE(preset.device_bitrot_wrong_data);
  // Pure rot: media sampling stays clean so every CRC failure the
  // scrubber reports traces back to the injected damage.
  EXPECT_EQ(preset.read_ber, 0.0);
}

TEST(FaultProfile, PresetComposesWithOverridesInEitherOrder) {
  // Later key=value items override the preset's fields...
  const FaultProfile tweaked =
      FaultProfile::parse("aged,read_ber=9e-3,seed=7").value();
  EXPECT_EQ(tweaked.read_ber, 9e-3);
  EXPECT_EQ(tweaked.seed, 7u);
  EXPECT_GT(tweaked.bad_block_rate, 0.0);
  // ...and a preset never clobbers an already-parsed seed, so the
  // documented "seed=7,aged" spelling works too.
  EXPECT_EQ(FaultProfile::parse("seed=7,aged").value().seed, 7u);
  // "none" resets every rate a preceding preset turned on.
  EXPECT_FALSE(FaultProfile::parse("stress,none").value().any_enabled());
}

TEST(FaultProfile, UnknownPresetListsTheValidNames) {
  const auto parsed = FaultProfile::parse("agedd");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().kind, ErrorKind::kInvalidArg);
  EXPECT_NE(parsed.status().message.find("agedd"), std::string::npos);
  EXPECT_NE(parsed.status().message.find(FaultProfile::preset_names()),
            std::string::npos);
}

TEST(FaultProfile, SeedAloneKeepsFaultsOff) {
  const auto parsed = FaultProfile::parse("seed=99");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().any_enabled());
}

// --- ECC math ----------------------------------------------------------

TEST(FaultInjector, NoRetryWithinEccStrength) {
  bool uncorrectable = true;
  EXPECT_EQ(FaultInjector::retries_needed(40, 40, 0.5, 5, uncorrectable), 0u);
  EXPECT_FALSE(uncorrectable);
  EXPECT_EQ(FaultInjector::retries_needed(0, 40, 0.5, 5, uncorrectable), 0u);
  EXPECT_FALSE(uncorrectable);
}

TEST(FaultInjector, OneRetryHalvesErrors) {
  bool uncorrectable = true;
  // 41 raw errors > 40 ECC bits; one shifted-voltage step keeps 50%:
  // 20 <= 40 -> corrected after one retry.
  EXPECT_EQ(FaultInjector::retries_needed(41, 40, 0.5, 5, uncorrectable), 1u);
  EXPECT_FALSE(uncorrectable);
}

TEST(FaultInjector, UncorrectableWhenRetriesExhausted) {
  bool uncorrectable = false;
  // 1000 -> 500 -> 250, still > 40 with only 2 retries allowed.
  EXPECT_EQ(FaultInjector::retries_needed(1000, 40, 0.5, 2, uncorrectable),
            2u);
  EXPECT_TRUE(uncorrectable);
}

TEST(FaultInjector, RetryBudgetExactlyExhaustedStillCorrects) {
  bool uncorrectable = true;
  // 160 -> 80 -> 40: the very last allowed retry lands exactly ON the
  // ECC strength (residual == ecc_bits is correctable, the comparison is
  // strict), so the page survives with zero margin.
  EXPECT_EQ(FaultInjector::retries_needed(160, 40, 0.5, 2, uncorrectable),
            2u);
  EXPECT_FALSE(uncorrectable);
  // One fewer retry in the budget and the same page is uncorrectable:
  // 160 -> 80, budget spent, 80 > 40.
  EXPECT_EQ(FaultInjector::retries_needed(160, 40, 0.5, 1, uncorrectable),
            1u);
  EXPECT_TRUE(uncorrectable);
  // One more raw error and the exhausted budget is no longer enough:
  // 161 -> 80 -> 40 still corrects (truncation), but 164 -> 82 -> 41
  // leaves a single residual bit past the ECC strength.
  EXPECT_EQ(FaultInjector::retries_needed(164, 40, 0.5, 2, uncorrectable),
            2u);
  EXPECT_TRUE(uncorrectable);
  // A zero-retry budget degenerates to the pure ECC decision at the same
  // strict boundary: 40 corrects, 41 does not, neither draws a retry.
  EXPECT_EQ(FaultInjector::retries_needed(41, 40, 0.5, 0, uncorrectable),
            0u);
  EXPECT_TRUE(uncorrectable);
  EXPECT_EQ(FaultInjector::retries_needed(40, 40, 0.5, 0, uncorrectable),
            0u);
  EXPECT_FALSE(uncorrectable);
}

TEST(FaultInjector, RetryCountScalesWithErrorMagnitude) {
  bool uncorrectable = false;
  // Each doubling of raw errors costs one more halving step to get back
  // under the 40-bit threshold: 81 -> 40; 161 -> 80 -> 40; 321 -> ... -> 40.
  EXPECT_EQ(FaultInjector::retries_needed(81, 40, 0.5, 5, uncorrectable), 1u);
  EXPECT_FALSE(uncorrectable);
  EXPECT_EQ(FaultInjector::retries_needed(161, 40, 0.5, 5, uncorrectable),
            2u);
  EXPECT_FALSE(uncorrectable);
  EXPECT_EQ(FaultInjector::retries_needed(321, 40, 0.5, 5, uncorrectable),
            3u);
  EXPECT_FALSE(uncorrectable);
}

// --- Deterministic draws -----------------------------------------------

FaultProfile media_profile() {
  FaultProfile profile;
  profile.seed = 7;
  profile.read_ber = 4e-4;  // ~52 raw errors on a 16 KiB page.
  profile.silent_corruption_rate = 0.01;
  return profile;
}

TEST(FaultInjector, SameSeedSamePageReadSequence) {
  FaultInjector a(media_profile());
  FaultInjector b(media_profile());
  for (std::uint64_t page = 0; page < 64; ++page) {
    const auto fa = a.on_page_read(page, 16 * 1024 * 8, 1, 1'000'000);
    const auto fb = b.on_page_read(page, 16 * 1024 * 8, 1, 1'000'000);
    EXPECT_EQ(fa.raw_bit_errors, fb.raw_bit_errors);
    EXPECT_EQ(fa.retries, fb.retries);
    EXPECT_EQ(fa.uncorrectable, fb.uncorrectable);
    EXPECT_EQ(fa.silent_corruption, fb.silent_corruption);
  }
  EXPECT_EQ(a.page_reads_decided(), 64u);
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultProfile other = media_profile();
  other.seed = 8;
  FaultInjector a(media_profile());
  FaultInjector b(other);
  std::uint32_t differing = 0;
  for (std::uint64_t page = 0; page < 64; ++page) {
    const auto fa = a.on_page_read(page, 16 * 1024 * 8, 1, 0);
    const auto fb = b.on_page_read(page, 16 * 1024 * 8, 1, 0);
    differing += fa.raw_bit_errors != fb.raw_bit_errors ? 1 : 0;
  }
  EXPECT_GT(differing, 0u);
}

TEST(FaultInjector, RereadAdvancesPageOrdinal) {
  // Two reads of the same page use different ordinals (read-disturb
  // stream), so a fresh injector replays the same two-draw sequence.
  FaultInjector a(media_profile());
  FaultInjector b(media_profile());
  const auto a1 = a.on_page_read(5, 16 * 1024 * 8, 1, 0);
  const auto a2 = a.on_page_read(5, 16 * 1024 * 8, 1, 0);
  const auto b1 = b.on_page_read(5, 16 * 1024 * 8, 1, 0);
  const auto b2 = b.on_page_read(5, 16 * 1024 * 8, 1, 0);
  EXPECT_EQ(a1.raw_bit_errors, b1.raw_bit_errors);
  EXPECT_EQ(a2.raw_bit_errors, b2.raw_bit_errors);
}

TEST(FaultInjector, WearAndRetentionIncreaseErrorRate) {
  FaultProfile profile;
  profile.seed = 7;
  profile.read_ber = 2e-4;
  profile.wear_alpha = 0.01;
  profile.retention_alpha = 0.1;
  FaultInjector injector(profile);
  std::uint64_t fresh = 0, worn = 0;
  for (std::uint64_t page = 0; page < 256; ++page) {
    fresh += injector.on_page_read(page, 16 * 1024 * 8, 0, 0).raw_bit_errors;
  }
  for (std::uint64_t page = 0; page < 256; ++page) {
    worn += injector
                .on_page_read(page + 10'000, 16 * 1024 * 8, 1'000,
                              3'600'000'000'000ULL)
                .raw_bit_errors;
  }
  EXPECT_GT(worn, fresh);
}

TEST(FaultInjector, BadBlockIsOrderIndependent) {
  FaultProfile profile;
  profile.seed = 7;
  profile.bad_block_rate = 0.1;
  FaultInjector injector(profile);
  std::vector<bool> forward, backward;
  for (std::uint32_t block = 0; block < 512; ++block) {
    forward.push_back(injector.is_bad_block(3, block));
  }
  for (std::uint32_t block = 512; block-- > 0;) {
    backward.push_back(injector.is_bad_block(3, block));
  }
  std::uint32_t bad = 0;
  for (std::uint32_t block = 0; block < 512; ++block) {
    EXPECT_EQ(forward[block], backward[511 - block]);
    bad += forward[block] ? 1 : 0;
  }
  // ~10% of 512 slots; generous deterministic bounds.
  EXPECT_GT(bad, 20u);
  EXPECT_LT(bad, 110u);
}

TEST(FaultInjector, NvmeTimeoutsRespectRetryCap) {
  FaultProfile profile;
  profile.seed = 7;
  profile.nvme_timeout_rate = 0.9;
  profile.nvme_max_retries = 3;
  FaultInjector injector(profile);
  std::uint32_t capped = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint32_t timeouts = injector.next_nvme_timeouts();
    EXPECT_LE(timeouts, 3u);
    capped += timeouts == 3 ? 1 : 0;
  }
  EXPECT_GT(capped, 0u);  // At 90% per-attempt rate the cap must be hit.
}

TEST(FaultInjector, DisabledInjectorDrawsNothing) {
  FaultInjector injector{FaultProfile{}};
  EXPECT_FALSE(injector.enabled());
  const auto fault = injector.on_page_read(0, 16 * 1024 * 8, 100, 100);
  EXPECT_EQ(fault.raw_bit_errors, 0u);
  EXPECT_FALSE(injector.is_bad_block(0, 0));
  EXPECT_EQ(injector.next_nvme_timeouts(), 0u);
  EXPECT_FALSE(injector.next_shard_pe_hang(0));
  EXPECT_EQ(injector.page_reads_decided(), 0u);
}

TEST(FaultInjector, PeHangRateIsPlausible) {
  FaultProfile profile;
  profile.seed = 7;
  profile.pe_fault_rate = 0.5;
  FaultInjector injector(profile);
  std::uint32_t hangs = 0;
  for (int i = 0; i < 200; ++i) {
    hangs += injector.next_shard_pe_hang(0) ? 1 : 0;
  }
  EXPECT_GT(hangs, 60u);
  EXPECT_LT(hangs, 140u);
}

}  // namespace
}  // namespace ndpgen::fault
