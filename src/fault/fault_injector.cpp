#include "fault/fault_injector.hpp"

#include <cmath>

#include "support/rng.hpp"

namespace ndpgen::fault {

namespace {

/// Fault stream identifiers: independent hash streams so e.g. adding an
/// NVMe command never shifts the flash-error sequence.
enum Stream : std::uint64_t {
  kStreamFlashErrors = 0x66616c73ULL,   // "fals"
  kStreamSilent = 0x73696c74ULL,        // "silt"
  kStreamBadBlock = 0x62616462ULL,      // "badb"
  kStreamNvme = 0x6e766d65ULL,          // "nvme"
  kStreamShardPeHang = 0x73686864ULL,   // "shhd"
};

[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept {
  support::SplitMix64 mixer(x);
  return mixer.next();
}

}  // namespace

FaultInjector::FaultInjector(FaultProfile profile)
    : profile_(profile), enabled_(profile.any_enabled()) {}

double FaultInjector::u01(std::uint64_t stream, std::uint64_t a,
                          std::uint64_t b) const noexcept {
  std::uint64_t h = mix64(profile_.seed ^ (stream * 0xA24BAED4963EE407ULL));
  h = mix64(h ^ (a * 0x9E3779B97F4A7C15ULL));
  h = mix64(h ^ (b * 0xC2B2AE3D27D4EB4FULL));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint32_t FaultInjector::poisson(double lambda, double u) noexcept {
  if (lambda <= 0.0) return 0;
  // Inversion by sequential search; exact and deterministic for the small
  // means the reliability model produces (lambda ~ BER * page_bits).
  double p = std::exp(-lambda);
  if (p <= 0.0) {
    // Mean too large for inversion: degenerate to the mean itself (still
    // deterministic; profiles this hot are test-only).
    return static_cast<std::uint32_t>(lambda);
  }
  double cdf = p;
  std::uint32_t k = 0;
  while (u >= cdf && k < 4096) {
    ++k;
    p *= lambda / static_cast<double>(k);
    cdf += p;
  }
  return k;
}

std::uint32_t FaultInjector::retries_needed(std::uint32_t raw_errors,
                                            std::uint32_t ecc_bits,
                                            double retry_factor,
                                            std::uint32_t max_retries,
                                            bool& uncorrectable) noexcept {
  std::uint32_t residual = raw_errors;
  std::uint32_t retries = 0;
  while (residual > ecc_bits && retries < max_retries) {
    ++retries;
    residual = static_cast<std::uint32_t>(
        static_cast<double>(residual) * retry_factor);
  }
  uncorrectable = residual > ecc_bits;
  return retries;
}

PageReadFault FaultInjector::on_page_read(std::uint64_t linear_page,
                                          std::uint64_t page_bits,
                                          std::uint64_t pe_cycles,
                                          std::uint64_t retention_ns) {
  PageReadFault fault;
  if (!enabled_) return fault;
  const std::uint32_t ordinal = page_read_seq_[linear_page]++;
  ++page_reads_decided_;
  if (profile_.read_ber > 0.0) {
    const double wear = 1.0 + profile_.wear_alpha *
                                  static_cast<double>(pe_cycles);
    const double retention =
        1.0 + profile_.retention_alpha *
                  (static_cast<double>(retention_ns) * 1e-9);
    const double lambda = profile_.read_ber *
                          static_cast<double>(page_bits) * wear * retention;
    fault.raw_bit_errors =
        poisson(lambda, u01(kStreamFlashErrors, linear_page, ordinal));
    if (fault.raw_bit_errors > 0) {
      bool uncorrectable = false;
      fault.retries = retries_needed(
          fault.raw_bit_errors, profile_.ecc_correctable_bits,
          profile_.retry_error_factor, profile_.max_read_retries,
          uncorrectable);
      fault.uncorrectable = uncorrectable;
      fault.corrected = !uncorrectable;
    }
  }
  if (!fault.uncorrectable && profile_.silent_corruption_rate > 0.0 &&
      u01(kStreamSilent, linear_page, ordinal) <
          profile_.silent_corruption_rate) {
    fault.silent_corruption = true;
  }
  return fault;
}

bool FaultInjector::is_bad_block(std::uint32_t lun,
                                 std::uint32_t block) const noexcept {
  if (!enabled_ || profile_.bad_block_rate <= 0.0) return false;
  return u01(kStreamBadBlock, lun, block) < profile_.bad_block_rate;
}

std::uint32_t FaultInjector::next_nvme_timeouts() {
  if (!enabled_ || profile_.nvme_timeout_rate <= 0.0) return 0;
  const std::uint64_t ordinal = nvme_command_seq_++;
  std::uint32_t timeouts = 0;
  while (timeouts < profile_.nvme_max_retries &&
         u01(kStreamNvme, ordinal, timeouts) < profile_.nvme_timeout_rate) {
    ++timeouts;
  }
  return timeouts;
}

bool FaultInjector::next_shard_pe_hang(std::uint64_t shard_id) {
  if (!enabled_ || profile_.pe_fault_rate <= 0.0) return false;
  const std::uint64_t ordinal = shard_dispatch_seq_[shard_id]++;
  return u01(kStreamShardPeHang, shard_id, ordinal) <
         profile_.pe_fault_rate;
}

}  // namespace ndpgen::fault
