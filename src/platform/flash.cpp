#include "platform/flash.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "fault/crash_scheduler.hpp"
#include "fault/fault_injector.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

namespace ndpgen::platform {

namespace {

/// Per-channel trace track, e.g. "flash.c0.ch2".
obs::TrackId flash_track(obs::TraceSink& sink, const FlashAddr& addr) {
  return sink.track("flash.c" + std::to_string(addr.controller) + ".ch" +
                        std::to_string(addr.channel),
                    obs::kPidPlatform);
}

}  // namespace

FlashModel::FlashModel(EventQueue& queue, const TimingConfig& timing,
                       FlashTopology topology)
    : queue_(queue), timing_(timing), topology_(topology) {
  NDPGEN_CHECK_ARG(topology.controllers >= 1, "need >= 1 flash controller");
  NDPGEN_CHECK_ARG(topology.page_bytes >= 512, "page size too small");
  lun_free_.assign(topology_.total_luns(), 0);
  bus_free_.assign(
      std::size_t{topology_.controllers} * topology_.channels_per_controller,
      0);
  bus_busy_ns_.assign(bus_free_.size(), 0);
}

SimTime FlashModel::page_transfer_time() const noexcept {
  // The per-controller throughput (timing.flash_controller_mbps, ~100 MB/s
  // for a Tiger4) is delivered by channels_per_controller independent NAND
  // buses, each at 1/Nth of the aggregate rate.
  const double channel_mbps =
      timing_.flash_controller_mbps /
      static_cast<double>(topology_.channels_per_controller);
  return static_cast<SimTime>(
      static_cast<double>(topology_.page_bytes) * 1000.0 / channel_mbps);
}

std::uint64_t FlashModel::linearize(const FlashAddr& addr) const {
  check_addr(addr);
  // LUN-major interleave: page p of block b maps consecutive logical pages
  // onto successive (controller, channel, lun) tuples first, so streaming
  // reads exploit all LUNs in parallel.
  const std::uint64_t luns = topology_.total_luns();
  const std::uint64_t lun = lun_index(addr);
  const std::uint64_t page_in_lun =
      std::uint64_t{addr.block} * topology_.pages_per_block + addr.page;
  return page_in_lun * luns + lun;
}

FlashAddr FlashModel::delinearize(std::uint64_t page_no) const {
  NDPGEN_CHECK_ARG(page_no < topology_.total_pages(),
                   "flash page number out of range");
  const std::uint64_t luns = topology_.total_luns();
  const std::uint64_t lun = page_no % luns;
  const std::uint64_t page_in_lun = page_no / luns;
  FlashAddr addr;
  addr.controller = static_cast<std::uint32_t>(
      lun / (topology_.channels_per_controller * topology_.luns_per_channel));
  const std::uint64_t within =
      lun % (topology_.channels_per_controller * topology_.luns_per_channel);
  addr.channel =
      static_cast<std::uint32_t>(within / topology_.luns_per_channel);
  addr.lun = static_cast<std::uint32_t>(within % topology_.luns_per_channel);
  addr.block =
      static_cast<std::uint32_t>(page_in_lun / topology_.pages_per_block);
  addr.page =
      static_cast<std::uint32_t>(page_in_lun % topology_.pages_per_block);
  check_addr(addr);
  return addr;
}

std::size_t FlashModel::lun_index(const FlashAddr& addr) const {
  return (static_cast<std::size_t>(addr.controller) *
              topology_.channels_per_controller +
          addr.channel) *
             topology_.luns_per_channel +
         addr.lun;
}

void FlashModel::check_addr(const FlashAddr& addr) const {
  NDPGEN_CHECK_ARG(addr.controller < topology_.controllers &&
                       addr.channel < topology_.channels_per_controller &&
                       addr.lun < topology_.luns_per_channel &&
                       addr.block < topology_.blocks_per_lun &&
                       addr.page < topology_.pages_per_block,
                   "flash address out of range");
}

void FlashModel::write_page_immediate(const FlashAddr& addr,
                                      std::span<const std::uint8_t> data) {
  check_addr(addr);
  NDPGEN_CHECK_ARG(data.size() <= topology_.page_bytes,
                   "page data larger than the flash page");
  const std::uint64_t linear = linearize(addr);
  std::size_t completed = data.size();
  bool torn = false;
  if (crash_ != nullptr) {
    switch (crash_->on_write_step()) {
      case fault::CrashAction::kProceed:
        break;
      case fault::CrashAction::kDrop:
        // Power is already gone: the program never reached the die.
        ++dropped_writes_;
        return;
      case fault::CrashAction::kInterrupt:
        // Power fails mid-program: a prefix of the image lands, the rest
        // of the page is deterministic garbage (cells in undefined
        // states), so any CRC over the written image fails downstream.
        // The fraction applies to the bytes being transferred, so even a
        // small record (a commit pointer, a WAL header) really tears.
        torn = true;
        completed = std::min(
            data.size(),
            static_cast<std::size_t>(static_cast<double>(data.size()) *
                                     crash_->plan().torn_fraction));
        break;
    }
  }
  // Copy the landed bytes once and zero only what an earlier program of
  // the buffer left past them.
  const auto [it, fresh] = pages_.try_emplace(linear);
  PageBuffer& page = it->second;
  if (fresh) {
    if (free_pages_.empty()) {
      page.bytes =
          std::make_unique_for_overwrite<std::uint8_t[]>(topology_.page_bytes);
      page.dirty = topology_.page_bytes;
    } else {
      page = std::move(free_pages_.back());
      free_pages_.pop_back();
    }
  }
  std::uint8_t* const bytes = page.bytes.get();
  if (completed > 0) std::memcpy(bytes, data.data(), completed);
  if (page.dirty > completed) {
    std::memset(bytes + completed, 0, page.dirty - completed);
  }
  page.dirty = completed;
  if (torn) {
    for (std::size_t i = completed; i < topology_.page_bytes; ++i) {
      bytes[i] = crash_->garbage_byte(linear, i);
    }
    page.dirty = topology_.page_bytes;
    torn_pages_.insert(linear);
    ++torn_programs_;
  } else {
    torn_pages_.erase(linear);
  }
  if (fault_ != nullptr && fault_->enabled()) {
    // Wear/retention inputs of the reliability model; a rewrite also
    // clears any pending miscorrection mark (fresh program, fresh data).
    ++block_programs_[lun_index(addr) * topology_.blocks_per_lun +
                      addr.block];
    page_program_time_[linear] = queue_.now();
    silently_corrupted_.erase(linear);
  }
}

void FlashModel::erase_block_immediate(const FlashAddr& addr) {
  check_addr(addr);
  const std::uint64_t block = global_block(addr);
  bool interrupted = false;
  if (crash_ != nullptr) {
    switch (crash_->on_write_step()) {
      case fault::CrashAction::kProceed:
        break;
      case fault::CrashAction::kDrop:
        ++dropped_writes_;
        return;
      case fault::CrashAction::kInterrupt:
        interrupted = true;
        break;
    }
  }
  FlashAddr page_addr = addr;
  for (std::uint32_t p = 0; p < topology_.pages_per_block; ++p) {
    page_addr.page = p;
    const std::uint64_t linear = linearize(page_addr);
    release_page(linear);
    torn_pages_.erase(linear);
    page_program_time_.erase(linear);
    silently_corrupted_.erase(linear);
  }
  if (interrupted) {
    // Cells are left in undefined states: no page reads back, and the
    // block must be erased again before any program may target it.
    unstable_blocks_.insert(block);
    ++interrupted_erases_;
  } else {
    unstable_blocks_.erase(block);
  }
}

void FlashModel::charge_erase(const FlashAddr& addr,
                              std::function<void()> on_done) {
  check_addr(addr);
  const std::size_t lun = lun_index(addr);
  const SimTime start = std::max(queue_.now(), lun_free_[lun]);
  const SimTime end = start + timing_.flash_erase_block_latency;
  lun_free_[lun] = end;
  if (obs_ != nullptr && obs_->tracing()) {
    obs_->trace->complete(flash_track(*obs_->trace, addr), "erase", "flash",
                          start, end - start,
                          "{\"lun\":" + std::to_string(addr.lun) +
                              ",\"block\":" + std::to_string(addr.block) +
                              "}");
  }
  queue_.schedule_at(end, std::move(on_done));
}

void FlashModel::release_page(std::uint64_t linear) {
  const auto it = pages_.find(linear);
  if (it == pages_.end()) return;
  free_pages_.push_back(std::move(it->second));
  pages_.erase(it);
}

void FlashModel::discard_page(std::uint64_t linear_page) {
  release_page(linear_page);
  torn_pages_.erase(linear_page);
  page_program_time_.erase(linear_page);
  silently_corrupted_.erase(linear_page);
}

std::vector<std::uint64_t> FlashModel::written_pages() const {
  std::vector<std::uint64_t> pages;
  pages.reserve(pages_.size());
  for (const auto& [linear, _] : pages_) pages.push_back(linear);
  std::sort(pages.begin(), pages.end());
  return pages;
}

std::vector<std::uint64_t> FlashModel::unstable_blocks() const {
  std::vector<std::uint64_t> blocks(unstable_blocks_.begin(),
                                    unstable_blocks_.end());
  std::sort(blocks.begin(), blocks.end());
  return blocks;
}

std::span<const std::uint8_t> FlashModel::page_data(
    const FlashAddr& addr) const {
  const auto it = pages_.find(linearize(addr));
  if (it == pages_.end()) {
    ndpgen::raise(ErrorKind::kStorage,
                  "reading an unwritten flash page");
  }
  return {it->second.bytes.get(), topology_.page_bytes};
}

bool FlashModel::page_written(const FlashAddr& addr) const noexcept {
  return pages_.contains(linearize(addr));
}

std::size_t FlashModel::bus_index(const FlashAddr& addr) const {
  return std::size_t{addr.controller} * topology_.channels_per_controller +
         addr.channel;
}

void FlashModel::read_page(const FlashAddr& addr,
                           std::function<void()> on_done) {
  read_page_checked(addr,
                    [fn = std::move(on_done)](const PageReadResult&) { fn(); });
}

std::uint64_t FlashModel::block_pe_cycles(const FlashAddr& addr) const {
  const auto it = block_programs_.find(
      lun_index(addr) * topology_.blocks_per_lun + addr.block);
  if (it == block_programs_.end()) return 0;
  return it->second / topology_.pages_per_block;
}

bool FlashModel::consume_silent_corruption(std::uint64_t linear_page) {
  return silently_corrupted_.erase(linear_page) > 0;
}

void FlashModel::read_page_checked(
    const FlashAddr& addr,
    std::function<void(const PageReadResult&)> on_done) {
  check_addr(addr);
  const std::size_t lun = lun_index(addr);
  const std::size_t bus = bus_index(addr);
  const SimTime now = queue_.now();

  PageReadResult result;
  result.addr = addr;
  SimTime retry_ns = 0;
  if (fault_ != nullptr && fault_->enabled()) {
    const std::uint64_t linear = linearize(addr);
    SimTime retention = 0;
    if (const auto it = page_program_time_.find(linear);
        it != page_program_time_.end() && now > it->second) {
      retention = now - it->second;
    }
    const fault::PageReadFault injected = fault_->on_page_read(
        linear, std::uint64_t{topology_.page_bytes} * 8,
        block_pe_cycles(addr), retention);
    result.retries = injected.retries;
    result.corrected = injected.corrected;
    result.uncorrectable = injected.uncorrectable;
    result.silent_corruption = injected.silent_corruption;
    retry_ns = SimTime{injected.retries} * timing_.flash_read_retry_latency;
    raw_bit_errors_ += injected.raw_bit_errors;
    ecc_retry_steps_ += injected.retries;
    if (injected.corrected) ++ecc_corrected_reads_;
    if (injected.uncorrectable) ++uncorrectable_reads_;
    if (injected.silent_corruption) {
      ++silent_corruptions_;
      silently_corrupted_.insert(linear);
    }
  }

  // tR on the LUN (plus any read-retry steps), then the serialized
  // channel-bus transfer (the DMA into device DRAM; the per-channel buses
  // together cap throughput at ~100 MB/s per Tiger4 controller).
  const SimTime sense_start = std::max(now, lun_free_[lun]);
  const SimTime sense_end =
      sense_start + timing_.flash_read_page_latency + retry_ns;
  const SimTime bus_start = std::max(sense_end, bus_free_[bus]);
  const SimTime bus_end = bus_start + page_transfer_time();
  // The die's page register holds the data until the transfer completes,
  // so the LUN is busy through bus_end; hiding tR requires a SECOND LUN
  // (the parallelism nKV's placement exploits, §III-B).
  lun_free_[lun] = bus_end;
  bus_free_[bus] = bus_end;
  bus_busy_ns_[bus] += bus_end - bus_start;
  ++pages_read_;
  if (obs_ != nullptr && obs_->tracing()) {
    std::string args = "{\"lun\":" + std::to_string(addr.lun) +
                       ",\"block\":" + std::to_string(addr.block) +
                       ",\"page\":" + std::to_string(addr.page);
    if (result.faulted()) {
      args += ",\"retries\":" + std::to_string(result.retries) +
              ",\"uncorrectable\":" +
              (result.uncorrectable ? "true" : "false");
    }
    args += "}";
    obs_->trace->complete(flash_track(*obs_->trace, addr), "read", "flash",
                          sense_start, bus_end - sense_start, args);
  }
  queue_.schedule_at(bus_end,
                     [fn = std::move(on_done), result] { fn(result); });
}

void FlashModel::charge_program(const FlashAddr& addr,
                                std::function<void()> on_done) {
  check_addr(addr);
  const std::size_t lun = lun_index(addr);
  const std::size_t bus = bus_index(addr);
  const SimTime now = queue_.now();
  const SimTime bus_start = std::max(now, bus_free_[bus]);
  const SimTime bus_end = bus_start + page_transfer_time();
  const SimTime prog_start = std::max(bus_end, lun_free_[lun]);
  const SimTime prog_end = prog_start + timing_.flash_program_page_latency;
  bus_free_[bus] = bus_end;
  lun_free_[lun] = prog_end;
  bus_busy_ns_[bus] += bus_end - bus_start;
  ++pages_programmed_;
  if (obs_ != nullptr && obs_->tracing()) {
    obs_->trace->complete(
        flash_track(*obs_->trace, addr), "program", "flash", bus_start,
        prog_end - bus_start,
        "{\"lun\":" + std::to_string(addr.lun) +
            ",\"block\":" + std::to_string(addr.block) +
            ",\"page\":" + std::to_string(addr.page) + "}");
  }
  queue_.schedule_at(prog_end, std::move(on_done));
}

void FlashModel::program_page(const FlashAddr& addr,
                              std::span<const std::uint8_t> data,
                              std::function<void()> on_done) {
  write_page_immediate(addr, data);
  charge_program(addr, std::move(on_done));
}

SimTime FlashModel::estimate_read_completion(const FlashAddr& addr) const {
  const std::size_t lun = lun_index(addr);
  const SimTime now = queue_.now();
  const SimTime sense_end =
      std::max(now, lun_free_[lun]) + timing_.flash_read_page_latency;
  return std::max(sense_end, bus_free_[bus_index(addr)]) +
         page_transfer_time();
}

SimTime FlashModel::bus_busy_ns() const noexcept {
  return std::accumulate(bus_busy_ns_.begin(), bus_busy_ns_.end(),
                         SimTime{0});
}

void FlashModel::reset_stats() noexcept {
  pages_read_ = 0;
  pages_programmed_ = 0;
  ecc_corrected_reads_ = 0;
  ecc_retry_steps_ = 0;
  raw_bit_errors_ = 0;
  uncorrectable_reads_ = 0;
  silent_corruptions_ = 0;
  std::fill(bus_busy_ns_.begin(), bus_busy_ns_.end(), 0);
}

}  // namespace ndpgen::platform
