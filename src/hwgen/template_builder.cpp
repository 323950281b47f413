#include "hwgen/template_builder.hpp"

#include "support/error.hpp"

namespace ndpgen::hwgen {

PEDesign build_pe_design(const analysis::AnalyzedParser& parser,
                         const TemplateOptions& options) {
  PEDesign design;
  design.name = parser.name;
  design.flavor = options.flavor;
  design.parser = parser;
  design.operators = options.use_spec_operators
                         ? OperatorSet::from_names(parser.operators)
                         : options.operators;
  design.static_payload_bytes =
      options.flavor == DesignFlavor::kHandcraftedBaseline
          ? options.static_payload_bytes
          : 0;

  const bool baseline = options.flavor == DesignFlavor::kHandcraftedBaseline;
  // [1]'s hand-crafted architecture supported a single, non-chainable
  // filtering unit; the chain length is a capability of *our* template.
  const std::uint32_t stages = baseline ? 1 : parser.filter_stages;
  const bool configurable_io = !baseline;
  const bool aggregation =
      (options.enable_aggregation || parser.aggregate) && !baseline;

  design.regmap =
      build_standard_register_map(stages, configurable_io, aggregation);

  auto add_module = [&design](ModuleKind kind, std::string name)
      -> ModuleInstance& {
    design.modules.push_back(ModuleInstance{kind, std::move(name), {}});
    return design.modules.back();
  };

  // (a) Control component.
  auto& regs = add_module(ModuleKind::kControlRegs, "control_regs");
  regs.params["num_registers"] = design.regmap.size();

  // (b) Memory interface.
  auto& load = add_module(ModuleKind::kLoadUnit, "load_unit");
  load.params["data_width"] = kDataWidthBits;
  load.params["max_chunk_bytes"] = parser.chunk_size_bytes;
  load.params["configurable"] = configurable_io ? 1 : 0;

  // (c) Accessor component, input side.
  auto& in_buffer = add_module(ModuleKind::kTupleInputBuffer, "tuple_in");
  in_buffer.params["data_width"] = kDataWidthBits;
  in_buffer.params["storage_bits"] = parser.input.storage_bits;
  in_buffer.params["padded_bits"] = parser.input.padded_bits;
  in_buffer.params["relevant_fields"] = parser.input.relevant_count();
  in_buffer.params["comparator_width"] = parser.input.comparator_width_bits;

  // (d) Computation component: chainable filter stages...
  for (std::uint32_t stage = 0; stage < stages; ++stage) {
    auto& filter =
        add_module(ModuleKind::kFilterStage,
                   "filter_stage_" + std::to_string(stage));
    filter.params["stage_index"] = stage;
    filter.params["comparator_width"] = parser.input.comparator_width_bits;
    filter.params["relevant_fields"] = parser.input.relevant_count();
    filter.params["tuple_bits"] = parser.input.padded_bits;
    filter.params["num_operators"] = design.operators.size();
    filter.params["fifo_depth"] = kFifoDepth;
  }

  // ... optionally the aggregation unit (extension, §VII outlook) ...
  if (aggregation) {
    auto& aggregate = add_module(ModuleKind::kAggregateUnit, "aggregate_unit");
    aggregate.params["comparator_width"] = parser.input.comparator_width_bits;
    aggregate.params["relevant_fields"] = parser.input.relevant_count();
    aggregate.params["tuple_bits"] = parser.input.padded_bits;
    aggregate.params["fifo_depth"] = kFifoDepth;
  }

  // ... then the data transformation unit.
  auto& transform = add_module(ModuleKind::kTransformUnit, "transform_unit");
  transform.params["in_bits"] = parser.input.padded_bits;
  transform.params["out_bits"] = parser.output.padded_bits;
  transform.params["wires"] = parser.mapping.wires.size();
  transform.params["identity"] = parser.mapping.identity ? 1 : 0;
  transform.params["fifo_depth"] = kFifoDepth;

  // (c) Accessor component, output side.
  auto& out_buffer = add_module(ModuleKind::kTupleOutputBuffer, "tuple_out");
  out_buffer.params["data_width"] = kDataWidthBits;
  out_buffer.params["storage_bits"] = parser.output.storage_bits;
  out_buffer.params["padded_bits"] = parser.output.padded_bits;

  // (b) Memory interface, store side.
  auto& store = add_module(ModuleKind::kStoreUnit, "store_unit");
  store.params["data_width"] = kDataWidthBits;
  store.params["max_chunk_bytes"] = parser.chunk_size_bytes;
  store.params["configurable"] = configurable_io ? 1 : 0;

  // Latency-insensitive pipeline wiring: "Due to their latency-insensitive
  // design, the corresponding interfaces can be directly wired-up."
  auto connect = [&design](const std::string& from, const std::string& to) {
    design.connections.push_back(Connection{from, to});
  };
  connect("load_unit", "tuple_in");
  std::string previous = "tuple_in";
  for (std::uint32_t stage = 0; stage < stages; ++stage) {
    const std::string name = "filter_stage_" + std::to_string(stage);
    connect(previous, name);
    previous = name;
  }
  if (aggregation) {
    connect(previous, "aggregate_unit");
    previous = "aggregate_unit";
  }
  connect(previous, "transform_unit");
  connect("transform_unit", "tuple_out");
  connect("tuple_out", "store_unit");

  design.validate();
  return design;
}

}  // namespace ndpgen::hwgen
