#include "hwgen/resource_model.hpp"

#include <cmath>
#include <sstream>

#include "support/error.hpp"

namespace ndpgen::hwgen {

namespace {

// ---------------------------------------------------------------------------
// Calibration table. All values are slices. The generated template is more
// flexible than the hand-crafted units of [1] and therefore pays more per
// module (configurable load/store, general alignment networks); [1]'s
// static units are cheaper but rigid. Anchors: see resource_model.hpp.
// ---------------------------------------------------------------------------
struct FlavorConstants {
  double fixed_glue;        // Composition/decode glue.
  double regs_per_reg;      // Control register file, per 32-bit register.
  double regs_fixed;        // Control register file, fixed part.
  double load_unit;         // Load unit (AXI master read path).
  double store_unit;        // Store unit (AXI master write path).
  double datapath_per_bit;  // Buffers/FIFOs per (storage+padded) bit.
  double align_per_bit;     // Tuple-buffer alignment network per storage bit
                            // and per log2(storage/word) level.
  double pad_per_bit;       // Field padding/splitting per relevant padded bit.
  double stage_per_mux_bit; // Filter stage per (comparator width x fields).
  double postfix_segment;   // Fixed cost per carried string-postfix segment.
  double transform_per_wire;// Transformation unit, per mapped leaf wire.
};

// Our generated template. The datapath-per-bit constant is LOWER than the
// hand-crafted baseline's because the generated tuple buffers stage data in
// BRAM (each generated accelerator uses one BRAM36, which the custom PEs of
// [1] did not — paper §V), trading block RAM for slice logic; the general
// alignment network is correspondingly more expensive per level.
// Solved against the Table I anchors: paper-PE 14348 / ref-PE 1446 slices.
constexpr FlavorConstants kGenerated{
    /*fixed_glue=*/30.0,
    /*regs_per_reg=*/2.2,
    /*regs_fixed=*/8.0,
    /*load_unit=*/150.0,
    /*store_unit=*/140.0,
    /*datapath_per_bit=*/1.4117,
    /*align_per_bit=*/2.5875,
    /*pad_per_bit=*/0.5,
    /*stage_per_mux_bit=*/1.2,
    /*postfix_segment=*/220.0,
    /*transform_per_wire=*/3.0,
};

// The hand-crafted design points of [1]: static 32 KB load/store units,
// single non-chainable filter, distributed-RAM buffers (no BRAM), simpler
// alignment. Solved against Table I: paper-PE 9480 / ref-PE 1277 slices.
constexpr FlavorConstants kBaseline{
    /*fixed_glue=*/25.0,
    /*regs_per_reg=*/2.2,
    /*regs_fixed=*/8.0,
    /*load_unit=*/95.0,
    /*store_unit=*/90.0,
    /*datapath_per_bit=*/2.216,
    /*align_per_bit=*/1.2386,
    /*pad_per_bit=*/0.4,
    /*stage_per_mux_bit=*/1.0,
    /*postfix_segment=*/150.0,
    /*transform_per_wire=*/2.4,
};

// The output buffer's re-packing shifter is simpler than the input
// buffer's general alignment barrel.
constexpr double kOutputAlignFactor = 0.3;

// Out-of-context synthesis reports the netlist "without very dense
// packing"; empirical Vivado OOC runs pack roughly 12% looser.
constexpr double kOutOfContextInflation = 1.12;

// Slice composition on 7-series: 4 LUT6 + 8 FF per slice. Packing
// efficiency converts slice estimates into LUT/FF figures for reporting.
constexpr double kLutsPerSlice = 4.0 * 0.72;
constexpr double kFfsPerSlice = 8.0 * 0.55;

const FlavorConstants& constants_for(DesignFlavor flavor) noexcept {
  return flavor == DesignFlavor::kGenerated ? kGenerated : kBaseline;
}

double alignment_levels(double storage_bits, double word_bits) noexcept {
  if (storage_bits <= word_bits) return 0.0;
  return std::log2(storage_bits / word_bits);
}

ResourceEstimate from_slices(double slices, double bram = 0.0) noexcept {
  ResourceEstimate estimate;
  estimate.slices = slices;
  estimate.luts = slices * kLutsPerSlice;
  estimate.ffs = slices * kFfsPerSlice;
  estimate.bram36 = bram;
  return estimate;
}

}  // namespace

const DeviceInfo& xc7z045() noexcept {
  static const DeviceInfo device;
  return device;
}

ResourceEstimate& ResourceEstimate::operator+=(
    const ResourceEstimate& other) noexcept {
  slices += other.slices;
  luts += other.luts;
  ffs += other.ffs;
  bram36 += other.bram36;
  return *this;
}

PEResourceReport estimate_pe(const PEDesign& design, SynthesisMode mode) {
  const FlavorConstants& k = constants_for(design.flavor);
  const auto& parser = design.parser;
  const double storage_in = parser.input.storage_bits;
  const double padded_in = parser.input.padded_bits;
  const double storage_out = parser.output.storage_bits;
  const double padded_out = parser.output.padded_bits;
  const double word = kDataWidthBits;
  const double cmp_width = parser.input.comparator_width_bits;
  const double n_relevant = static_cast<double>(parser.input.relevant_count());
  const double n_postfix_in =
      static_cast<double>(parser.input.fields.size()) - n_relevant;
  const double n_postfix_out =
      static_cast<double>(parser.output.fields.size()) -
      static_cast<double>(parser.output.relevant_count());

  PEResourceReport report;
  report.pe_name = design.name;
  report.mode = mode;

  auto add = [&report](const std::string& name, ResourceEstimate estimate) {
    report.per_module.emplace_back(name, estimate);
    report.total += estimate;
  };

  for (const auto& module : design.modules) {
    switch (module.kind) {
      case ModuleKind::kControlRegs: {
        const double regs = static_cast<double>(module.param("num_registers"));
        add(module.name, from_slices(k.regs_fixed + k.regs_per_reg * regs));
        break;
      }
      case ModuleKind::kLoadUnit:
        add(module.name, from_slices(k.load_unit));
        break;
      case ModuleKind::kStoreUnit:
        add(module.name, from_slices(k.store_unit));
        break;
      case ModuleKind::kTupleInputBuffer: {
        // Word regrouping + alignment barrel + field padding/splitting.
        // Each generated accelerator maps its staging buffer onto one BRAM
        // (paper: "each of our generated accelerators also uses a single
        // BRAM slice, which was not the case for [1]").
        const double slices =
            k.datapath_per_bit * (storage_in + padded_in) * 0.5 +
            k.align_per_bit * storage_in * alignment_levels(storage_in, word) +
            k.pad_per_bit * cmp_width * n_relevant +
            k.postfix_segment * n_postfix_in;
        const double bram =
            design.flavor == DesignFlavor::kGenerated ? 0.5 : 0.0;
        add(module.name, from_slices(slices, bram));
        break;
      }
      case ModuleKind::kTupleOutputBuffer: {
        const double slices =
            k.datapath_per_bit * (storage_out + padded_out) * 0.5 +
            kOutputAlignFactor * k.align_per_bit * storage_out *
                alignment_levels(storage_out, word) +
            k.postfix_segment * n_postfix_out * 0.5;
        const double bram =
            design.flavor == DesignFlavor::kGenerated ? 0.5 : 0.0;
        add(module.name, from_slices(slices, bram));
        break;
      }
      case ModuleKind::kFilterStage: {
        // Field-select mux + compare unit + elastic tuple FIFO.
        const double mux_and_cmp = k.stage_per_mux_bit * cmp_width * n_relevant;
        const double fifo = 0.12 * padded_in *
                            static_cast<double>(module.param("fifo_depth"));
        const double op_decode =
            2.0 * static_cast<double>(module.param("num_operators"));
        add(module.name, from_slices(mux_and_cmp + fifo + op_decode));
        break;
      }
      case ModuleKind::kAggregateUnit: {
        // Operand mux (shares the filter mux structure), a W-bit
        // adder/comparator datapath and the accumulator register.
        const double mux = 0.8 * k.stage_per_mux_bit * cmp_width * n_relevant;
        const double alu = 2.2 * cmp_width;
        const double fifo = 0.12 * padded_in *
                            static_cast<double>(module.param("fifo_depth"));
        add(module.name, from_slices(mux + alu + fifo + 25.0));
        break;
      }
      case ModuleKind::kTransformUnit: {
        const double wires = static_cast<double>(module.param("wires"));
        const bool identity = module.param("identity") != 0;
        const double slices =
            (identity ? 0.0 : k.transform_per_wire * wires) +
            0.12 * padded_out *
                static_cast<double>(module.param("fifo_depth"));
        add(module.name, from_slices(slices));
        break;
      }
    }
  }
  add("glue", from_slices(k.fixed_glue));

  if (mode == SynthesisMode::kOutOfContext) {
    for (auto& [name, estimate] : report.per_module) {
      estimate.slices *= kOutOfContextInflation;
      estimate.luts *= kOutOfContextInflation;
      estimate.ffs *= kOutOfContextInflation;
    }
    report.total.slices *= kOutOfContextInflation;
    report.total.luts *= kOutOfContextInflation;
    report.total.ffs *= kOutOfContextInflation;
  }
  return report;
}

double platform_base_slices(DesignFlavor flavor, std::uint32_t num_pe_ports) {
  // NVMe core + 2x Tiger4 flash controllers + DMA engines: fixed.
  constexpr double kNvmeAndFlash = 14000.0;
  // Interconnect fabric per attached PE port. Calibrated so that the full
  // designs land on the published Table I totals (41934 vs 40821 slices).
  const double per_port =
      flavor == DesignFlavor::kGenerated ? 433.0 : 1050.25;
  return kNvmeAndFlash + per_port * static_cast<double>(num_pe_ports);
}

std::string PEResourceReport::dump() const {
  std::ostringstream out;
  out << "PE '" << pe_name << "' ("
      << (mode == SynthesisMode::kInContext ? "in-context" : "out-of-context")
      << "): " << static_cast<long>(total.slices + 0.5) << " slices, "
      << static_cast<long>(total.luts + 0.5) << " LUTs, "
      << static_cast<long>(total.ffs + 0.5) << " FFs, " << total.bram36
      << " BRAM36\n";
  for (const auto& [name, estimate] : per_module) {
    out << "  " << name << ": " << static_cast<long>(estimate.slices + 0.5)
        << " slices\n";
  }
  return out.str();
}

namespace {

/// Fill latency one tuple spends crossing a module of this kind, in PE
/// cycles. Buffers pay their word-regrouping registers; the memory units
/// pay the AXI handshake; every computation stage is one pipeline flop.
std::uint32_t stage_fill_cycles(ModuleKind kind) noexcept {
  switch (kind) {
    case ModuleKind::kControlRegs: return 0;  // Off the datapath.
    case ModuleKind::kLoadUnit: return 4;
    case ModuleKind::kStoreUnit: return 4;
    case ModuleKind::kTupleInputBuffer: return 2;
    case ModuleKind::kTupleOutputBuffer: return 2;
    case ModuleKind::kFilterStage: return 1;
    case ModuleKind::kAggregateUnit: return 1;
    case ModuleKind::kTransformUnit: return 1;
  }
  return 1;
}

}  // namespace

ChainBudget default_chain_budget(DesignFlavor flavor, std::uint32_t slots) {
  NDPGEN_CHECK_ARG(slots >= 1, "chain budget needs at least one PE slot");
  const DeviceInfo& device = xc7z045();
  const double free_slices =
      static_cast<double>(device.total_slices) - platform_base_slices(flavor, slots);
  ChainBudget budget;
  budget.max_slices = free_slices / static_cast<double>(slots);
  // Each generated PE maps its staging buffers onto BRAM; leave the same
  // fraction of the device's BRAM to every slot.
  budget.max_bram36 = static_cast<double>(device.total_bram36) /
                      static_cast<double>(slots) * 0.25;
  budget.max_stages = 16;
  return budget;
}

Result<ChainPricing> price_chain(const PEDesign& design, SynthesisMode mode,
                                 const ChainBudget& budget) {
  const std::uint32_t stages = design.filter_stage_count();
  if (stages > budget.max_stages) {
    return Result<ChainPricing>::failure(
        ErrorKind::kGeneration,
        "chained PE '" + design.name + "' has " + std::to_string(stages) +
            " filter stages, budget allows " +
            std::to_string(budget.max_stages));
  }

  const PEResourceReport report = estimate_pe(design, mode);

  ChainPricing pricing;
  pricing.pe_name = design.name;
  pricing.mode = mode;
  pricing.filter_stages = stages;

  // estimate_pe reports design.modules in order plus a trailing "glue"
  // entry; fold the glue into the running total before the stage walk so
  // the budget check prices the whole netlist, not just the datapath.
  NDPGEN_CHECK(report.per_module.size() == design.modules.size() + 1,
               "resource report does not line up with the module list");
  pricing.total += report.per_module.back().second;

  for (std::size_t i = 0; i < design.modules.size(); ++i) {
    const ModuleInstance& module = design.modules[i];
    ChainStage stage;
    stage.name = module.name;
    stage.kind = module.kind;
    stage.resources = report.per_module[i].second;
    stage.latency_cycles = stage_fill_cycles(module.kind);

    pricing.total += stage.resources;
    pricing.pipeline_fill_cycles += stage.latency_cycles;
    pricing.stages.push_back(std::move(stage));

    if (pricing.total.slices > budget.max_slices ||
        pricing.total.bram36 > budget.max_bram36) {
      std::ostringstream out;
      out << "chained PE '" << design.name << "' exceeds the slot budget at "
          << "stage '" << module.name << "': "
          << static_cast<long>(pricing.total.slices + 0.5) << " slices / "
          << pricing.total.bram36 << " BRAM36 against "
          << static_cast<long>(budget.max_slices + 0.5) << " / "
          << budget.max_bram36;
      return Result<ChainPricing>::failure(ErrorKind::kGeneration, out.str());
    }
  }
  return pricing;
}

std::string ChainPricing::dump() const {
  std::ostringstream out;
  out << "chain '" << pe_name << "' ("
      << (mode == SynthesisMode::kInContext ? "in-context" : "out-of-context")
      << "): " << static_cast<long>(total.slices + 0.5) << " slices, "
      << total.bram36 << " BRAM36, " << filter_stages << " filter stages, "
      << pipeline_fill_cycles << "-cycle fill\n";
  for (const auto& stage : stages) {
    out << "  " << stage.name << ": "
        << static_cast<long>(stage.resources.slices + 0.5) << " slices, +"
        << stage.latency_cycles << " cy\n";
  }
  return out.str();
}

}  // namespace ndpgen::hwgen
