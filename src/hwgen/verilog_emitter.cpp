#include "hwgen/verilog_emitter.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>
#include <vector>

#include "support/error.hpp"

namespace ndpgen::hwgen {

namespace {

/// The Verilog operator of a standard compare kind, two columns wide.
std::string_view verilog_compare(CompareKind kind) {
  switch (kind) {
    case CompareKind::kNe: return "!=";
    case CompareKind::kEq: return "==";
    case CompareKind::kGt: return "> ";
    case CompareKind::kGe: return ">=";
    case CompareKind::kLt: return "< ";
    case CompareKind::kLe: return "<=";
    case CompareKind::kNop:
    case CompareKind::kCustom: break;
  }
  ndpgen::raise(ErrorKind::kInternal,
                "no Verilog operator for nop or a custom kind");
}

std::string width_decl(std::uint64_t bits) {
  if (bits <= 1) return "";
  return "[" + std::to_string(bits - 1) + ":0] ";
}

/// Emits a parameterized ready/valid FIFO used by every elastic stage.
void emit_stream_fifo(std::ostringstream& out) {
  out << R"(// Elastic ready/valid FIFO (one per pipeline stage boundary).
module ndp_stream_fifo #(
    parameter WIDTH = 64,
    parameter DEPTH = 2
) (
    input  wire             clk,
    input  wire             rst_n,
    input  wire [WIDTH-1:0] in_data,
    input  wire             in_valid,
    output wire             in_ready,
    output wire [WIDTH-1:0] out_data,
    output wire             out_valid,
    input  wire             out_ready
);
  localparam PTR_BITS = $clog2(DEPTH) + 1;
  reg [WIDTH-1:0] mem [0:DEPTH-1];
  reg [PTR_BITS-1:0] wr_ptr, rd_ptr;
  wire [PTR_BITS-1:0] count = wr_ptr - rd_ptr;
  assign in_ready  = (count < DEPTH);
  assign out_valid = (count != 0);
  assign out_data  = mem[rd_ptr[PTR_BITS-2:0]];
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      wr_ptr <= 0;
      rd_ptr <= 0;
    end else begin
      if (in_valid && in_ready) begin
        mem[wr_ptr[PTR_BITS-2:0]] <= in_data;
        wr_ptr <= wr_ptr + 1'b1;
      end
      if (out_valid && out_ready) rd_ptr <= rd_ptr + 1'b1;
    end
  end
endmodule

)";
}

void emit_control_regs(std::ostringstream& out, const PEDesign& design) {
  const auto& map = design.regmap;
  out << "// (a) Control component: AXI4-Lite register file.\n"
      << "module " << design.name << "_control_regs (\n"
      << "    input  wire        clk,\n"
      << "    input  wire        rst_n,\n"
      << "    // AXI4-Lite subset (single-beat).\n"
      << "    input  wire [11:0] s_axil_addr,\n"
      << "    input  wire        s_axil_wen,\n"
      << "    input  wire [31:0] s_axil_wdata,\n"
      << "    output reg  [31:0] s_axil_rdata,\n";
  for (const auto& def : map.registers()) {
    const bool read_only = def.access == RegAccess::kReadOnly;
    out << "    " << (read_only ? "input  wire" : "output reg ")
        << " [31:0] reg_" << def.name << ",  // 0x" << std::hex << def.offset
        << std::dec << "\n";
  }
  out << "    output wire        start_pulse\n"
      << ");\n";
  out << "  // Write decode.\n"
      << "  always @(posedge clk or negedge rst_n) begin\n"
      << "    if (!rst_n) begin\n";
  for (const auto& def : map.registers()) {
    if (def.access == RegAccess::kReadWrite) {
      out << "      reg_" << def.name << " <= 32'd0;\n";
    }
  }
  out << "    end else if (s_axil_wen) begin\n"
      << "      case (s_axil_addr)\n";
  for (const auto& def : map.registers()) {
    if (def.access == RegAccess::kReadWrite) {
      out << "        12'h" << std::hex << def.offset << std::dec << ": reg_"
          << def.name << " <= s_axil_wdata;\n";
    }
  }
  out << "        default: ;\n"
      << "      endcase\n"
      << "    end\n"
      << "  end\n";
  out << "  // Read decode.\n"
      << "  always @(*) begin\n"
      << "    case (s_axil_addr)\n";
  for (const auto& def : map.registers()) {
    out << "      12'h" << std::hex << def.offset << std::dec
        << ": s_axil_rdata = reg_" << def.name << ";\n";
  }
  out << "      default: s_axil_rdata = 32'hdead_beef;\n"
      << "    endcase\n"
      << "  end\n"
      << "  assign start_pulse = s_axil_wen && (s_axil_addr == 12'h"
      << std::hex << map.offset_of(reg::kStart) << std::dec
      << ") && s_axil_wdata[0];\n"
      << "endmodule\n\n";
}

void emit_load_unit(std::ostringstream& out, const PEDesign& design,
                    const ModuleInstance& module) {
  const bool configurable = module.param("configurable") != 0;
  out << "// (b) Memory interface, load side"
      << (configurable ? " (configurable partial-block loads)."
                       : " (static full-block loads, [1] baseline).")
      << "\n"
      << "module " << design.name << "_load_unit #(\n"
      << "    parameter DATA_WIDTH = " << module.param("data_width") << ",\n"
      << "    parameter MAX_CHUNK_BYTES = " << module.param("max_chunk_bytes")
      << "\n"
      << ") (\n"
      << "    input  wire                   clk,\n"
      << "    input  wire                   rst_n,\n"
      << "    input  wire                   start,\n"
      << "    input  wire [63:0]            src_addr,\n"
      << (configurable
              ? "    input  wire [31:0]            load_bytes,\n"
              : "")
      << "    // AXI4 read channel (simplified).\n"
      << "    output reg  [63:0]            m_axi_araddr,\n"
      << "    output reg                    m_axi_arvalid,\n"
      << "    input  wire                   m_axi_arready,\n"
      << "    input  wire [DATA_WIDTH-1:0]  m_axi_rdata,\n"
      << "    input  wire                   m_axi_rvalid,\n"
      << "    output wire                   m_axi_rready,\n"
      << "    // Word stream to the tuple input buffer.\n"
      << "    output wire [DATA_WIDTH-1:0]  out_data,\n"
      << "    output wire                   out_valid,\n"
      << "    input  wire                   out_ready,\n"
      << "    output reg                    done\n"
      << ");\n"
      << "  localparam WORD_BYTES = DATA_WIDTH / 8;\n"
      << "  reg [31:0] remaining_words;\n"
      << "  wire [31:0] total_words = "
      << (configurable ? "(load_bytes + WORD_BYTES - 1) / WORD_BYTES"
                       : "MAX_CHUNK_BYTES / WORD_BYTES")
      << ";\n"
      << "  assign out_data  = m_axi_rdata;\n"
      << "  assign out_valid = m_axi_rvalid && (remaining_words != 0);\n"
      << "  assign m_axi_rready = out_ready && (remaining_words != 0);\n"
      << "  always @(posedge clk or negedge rst_n) begin\n"
      << "    if (!rst_n) begin\n"
      << "      remaining_words <= 0;\n"
      << "      m_axi_arvalid <= 1'b0;\n"
      << "      done <= 1'b1;\n"
      << "    end else if (start) begin\n"
      << "      remaining_words <= total_words;\n"
      << "      m_axi_araddr <= src_addr;\n"
      << "      m_axi_arvalid <= 1'b1;\n"
      << "      done <= (total_words == 0);\n"
      << "    end else begin\n"
      << "      if (m_axi_arvalid && m_axi_arready) m_axi_arvalid <= 1'b0;\n"
      << "      if (m_axi_rvalid && m_axi_rready) begin\n"
      << "        remaining_words <= remaining_words - 1'b1;\n"
      << "        if (remaining_words == 1) done <= 1'b1;\n"
      << "      end\n"
      << "    end\n"
      << "  end\n"
      << "endmodule\n\n";
}

void emit_store_unit(std::ostringstream& out, const PEDesign& design,
                     const ModuleInstance& module) {
  const bool configurable = module.param("configurable") != 0;
  out << "// (b) Memory interface, store side"
      << (configurable ? " (variable-length result write-back)."
                       : " (static full-block write-back, [1] baseline).")
      << "\n"
      << "module " << design.name << "_store_unit #(\n"
      << "    parameter DATA_WIDTH = " << module.param("data_width") << ",\n"
      << "    parameter MAX_CHUNK_BYTES = " << module.param("max_chunk_bytes")
      << "\n"
      << ") (\n"
      << "    input  wire                   clk,\n"
      << "    input  wire                   rst_n,\n"
      << "    input  wire                   start,\n"
      << "    input  wire                   upstream_done,\n"
      << "    input  wire [63:0]            dst_addr,\n"
      << "    input  wire [DATA_WIDTH-1:0]  in_data,\n"
      << "    input  wire                   in_valid,\n"
      << "    output wire                   in_ready,\n"
      << "    // AXI4 write channel (simplified).\n"
      << "    output reg  [63:0]            m_axi_awaddr,\n"
      << "    output wire [DATA_WIDTH-1:0]  m_axi_wdata,\n"
      << "    output wire                   m_axi_wvalid,\n"
      << "    input  wire                   m_axi_wready,\n"
      << "    output reg  [31:0]            bytes_written,\n"
      << "    output wire                   done\n"
      << ");\n"
      << "  localparam WORD_BYTES = DATA_WIDTH / 8;\n"
      << "  assign m_axi_wdata  = in_data;\n"
      << "  assign m_axi_wvalid = in_valid;\n"
      << "  assign in_ready     = m_axi_wready;\n"
      << "  assign done = upstream_done && !in_valid;\n"
      << "  always @(posedge clk or negedge rst_n) begin\n"
      << "    if (!rst_n) begin\n"
      << "      bytes_written <= 0;\n"
      << "    end else if (start) begin\n"
      << "      m_axi_awaddr <= dst_addr;\n"
      << "      bytes_written <= 0;\n"
      << "    end else if (m_axi_wvalid && m_axi_wready) begin\n"
      << "      m_axi_awaddr <= m_axi_awaddr + WORD_BYTES;\n"
      << "      bytes_written <= bytes_written + WORD_BYTES;\n"
      << "    end\n"
      << "  end\n"
      << "endmodule\n\n";
}

void emit_tuple_input_buffer(std::ostringstream& out, const PEDesign& design,
                             const ModuleInstance& module) {
  const auto& layout = design.parser.input;
  out << "// (c) Accessor component: regroups the " << module.param("data_width")
      << "-bit word stream into " << layout.storage_bits
      << "-bit tuples and splits them\n"
      << "// into the padded field vector (comparator width "
      << layout.comparator_width_bits << " bits) plus string postfixes.\n"
      << "module " << design.name << "_tuple_input_buffer (\n"
      << "    input  wire        clk,\n"
      << "    input  wire        rst_n,\n"
      << "    input  wire [" << module.param("data_width") - 1
      << ":0] in_data,\n"
      << "    input  wire        in_valid,\n"
      << "    output wire        in_ready,\n"
      << "    output wire " << width_decl(layout.padded_bits) << "out_tuple,\n"
      << "    output wire        out_valid,\n"
      << "    input  wire        out_ready\n"
      << ");\n"
      << "  // Word accumulator.\n"
      << "  reg " << width_decl(layout.storage_bits) << "shift_reg;\n"
      << "  reg [15:0] bits_held;\n"
      << "  wire tuple_complete = (bits_held >= " << layout.storage_bits
      << ");\n"
      << "  assign in_ready = !tuple_complete || out_ready;\n"
      << "  assign out_valid = tuple_complete;\n";
  // Field splitting: wire each padded field from its packed position.
  for (const auto& field : layout.fields) {
    out << "  wire " << width_decl(field.storage_width_bits) << "f_"
        << /* sanitized path */ [&] {
             std::string name = field.path;
             for (auto& c : name) {
               if (c == '.') c = '_';
             }
             return name;
           }()
        << " = shift_reg[" << (field.storage_offset_bits +
                               field.storage_width_bits - 1)
        << ":" << field.storage_offset_bits << "];"
        << (field.relevant ? "" : "  // string postfix (opaque)") << "\n";
  }
  // Concatenation is MSB-first: order fields by padded offset descending.
  out << "  assign out_tuple = {";
  bool first = true;
  std::vector<const analysis::FieldLayout*> ordered;
  for (const auto& field : layout.fields) ordered.push_back(&field);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto* a, const auto* b) {
              return a->padded_offset_bits > b->padded_offset_bits;
            });
  for (const auto* field : ordered) {
    std::string name = field->path;
    for (auto& c : name) {
      if (c == '.') c = '_';
    }
    if (!first) out << ", ";
    first = false;
    const std::uint32_t pad = field->padded_width_bits -
                              field->storage_width_bits;
    if (pad > 0) out << "{" << pad << "'d0, f_" << name << "}";
    else out << "f_" << name;
  }
  out << "};\n"
      << "  always @(posedge clk or negedge rst_n) begin\n"
      << "    if (!rst_n) begin\n"
      << "      bits_held <= 0;\n"
      << "    end else begin\n"
      << "      if (in_valid && in_ready) begin\n"
      << "        shift_reg <= {in_data, shift_reg["
      << layout.storage_bits - 1 << ":" << module.param("data_width")
      << "]};\n"
      << "        bits_held <= bits_held + " << module.param("data_width")
      << ";\n"
      << "      end\n"
      << "      if (out_valid && out_ready) bits_held <= bits_held - "
      << layout.storage_bits << ";\n"
      << "    end\n"
      << "  end\n"
      << "endmodule\n\n";
}

void emit_filter_stage(std::ostringstream& out, const PEDesign& design,
                       const ModuleInstance& module) {
  const auto& layout = design.parser.input;
  const std::uint64_t stage = module.param("stage_index");
  const std::uint32_t cmp = layout.comparator_width_bits;
  out << "// (d) Filtering unit, stage " << stage
      << ": field mux + compare unit + elastic FIFO (Fig. 5).\n"
      << "module " << design.name << "_filter_stage_" << stage << " (\n"
      << "    input  wire        clk,\n"
      << "    input  wire        rst_n,\n"
      << "    input  wire " << width_decl(layout.padded_bits) << "in_tuple,\n"
      << "    input  wire        in_valid,\n"
      << "    output wire        in_ready,\n"
      << "    input  wire [31:0] field_select,\n"
      << "    input  wire [31:0] operator_select,\n"
      << "    input  wire [63:0] compare_value,\n"
      << "    output wire " << width_decl(layout.padded_bits) << "out_tuple,\n"
      << "    output wire        out_valid,\n"
      << "    input  wire        out_ready,\n"
      << "    output reg  [31:0] pass_counter\n"
      << ");\n"
      << "  // Field-select multiplexer over the padded field vector.\n"
      << "  reg [" << cmp - 1 << ":0] element;\n"
      << "  always @(*) begin\n"
      << "    case (field_select)\n";
  const auto relevant = layout.relevant_indices();
  for (std::size_t i = 0; i < relevant.size(); ++i) {
    const auto& field = layout.fields[relevant[i]];
    out << "      32'd" << i << ": element = in_tuple["
        << field.padded_offset_bits + cmp - 1 << ":"
        << field.padded_offset_bits << "];  // " << field.path << "\n";
  }
  out << "      default: element = " << cmp << "'d0;\n"
      << "    endcase\n"
      << "  end\n"
      << "  // Compare unit: the operator set is generated (extensible).\n"
      << "  reg predicate;\n"
      << "  always @(*) begin\n"
      << "    case (operator_select)\n";
  for (const auto& op : design.operators.ops()) {
    out << "      32'd" << op.encoding << ": predicate = ";
    const std::string rhs = "compare_value[" + std::to_string(cmp - 1) + ":0]";
    if (op.kind == CompareKind::kNop) {
      out << "1'b1;";
    } else if (op.kind == CompareKind::kCustom) {
      out << design.name << "_op_" << op.name << "(element, " << rhs
          << ");  // custom operator (external function)";
    } else {
      out << "(element " << verilog_compare(op.kind) << " " << rhs << ");";
    }
    out << "\n";
  }
  out << "      default: predicate = 1'b0;\n"
      << "    endcase\n"
      << "  end\n"
      << "  // Elastic output FIFO; non-matching tuples are dropped.\n"
      << "  wire fifo_in_ready;\n"
      << "  assign in_ready = fifo_in_ready;\n"
      << "  ndp_stream_fifo #(.WIDTH(" << layout.padded_bits << "), .DEPTH("
      << module.param("fifo_depth") << ")) fifo (\n"
      << "    .clk(clk), .rst_n(rst_n),\n"
      << "    .in_data(in_tuple), .in_valid(in_valid && predicate),\n"
      << "    .in_ready(fifo_in_ready),\n"
      << "    .out_data(out_tuple), .out_valid(out_valid),\n"
      << "    .out_ready(out_ready)\n"
      << "  );\n"
      << "  always @(posedge clk or negedge rst_n) begin\n"
      << "    if (!rst_n) pass_counter <= 0;\n"
      << "    else if (in_valid && in_ready && predicate)\n"
      << "      pass_counter <= pass_counter + 1'b1;\n"
      << "  end\n"
      << "endmodule\n\n";
}

void emit_aggregate_unit(std::ostringstream& out, const PEDesign& design,
                         const ModuleInstance& module) {
  const auto& layout = design.parser.input;
  const std::uint32_t cmp = layout.comparator_width_bits;
  out << "// (d) Aggregation Unit (extension): folds the selected field of\n"
      << "// passing tuples into count/sum/min/max; pass-through when\n"
      << "// agg_op == 0.\n"
      << "module " << design.name << "_aggregate_unit (\n"
      << "    input  wire        clk,\n"
      << "    input  wire        rst_n,\n"
      << "    input  wire        start,\n"
      << "    input  wire " << width_decl(layout.padded_bits) << "in_tuple,\n"
      << "    input  wire        in_valid,\n"
      << "    output wire        in_ready,\n"
      << "    input  wire [31:0] agg_op,\n"
      << "    input  wire [31:0] agg_field,\n"
      << "    output wire " << width_decl(layout.padded_bits)
      << "out_tuple,\n"
      << "    output wire        out_valid,\n"
      << "    input  wire        out_ready,\n"
      << "    output reg  [63:0] agg_result,\n"
      << "    output reg  [31:0] agg_count\n"
      << ");\n"
      << "  // Operand mux over the padded field vector (as in Fig. 5).\n"
      << "  reg [" << cmp - 1 << ":0] element;\n"
      << "  always @(*) begin\n"
      << "    case (agg_field)\n";
  const auto relevant = layout.relevant_indices();
  for (std::size_t i = 0; i < relevant.size(); ++i) {
    const auto& field = layout.fields[relevant[i]];
    out << "      32'd" << i << ": element = in_tuple["
        << field.padded_offset_bits + cmp - 1 << ":"
        << field.padded_offset_bits << "];  // " << field.path << "\n";
  }
  const std::string extended =
      cmp == 64 ? "element"
                : "{" + std::to_string(64 - cmp) + "'d0, element}";
  out << "      default: element = " << cmp << "'d0;\n"
      << "    endcase\n"
      << "  end\n"
      << "  wire aggregating = (agg_op != 32'd0);\n"
      << "  wire fold = in_valid && aggregating;\n"
      << "  assign in_ready  = aggregating ? 1'b1 : out_ready;\n"
      << "  assign out_valid = aggregating ? 1'b0 : in_valid;\n"
      << "  assign out_tuple = in_tuple;\n"
      << "  always @(posedge clk or negedge rst_n) begin\n"
      << "    if (!rst_n || start) begin\n"
      << "      agg_result <= (agg_op == 32'd3) ? ~64'd0 : 64'd0;  // seed\n"
      << "      agg_count <= 32'd0;\n"
      << "    end else if (fold) begin\n"
      << "      agg_count <= agg_count + 1'b1;\n"
      << "      case (agg_op)\n"
      << "        32'd1: agg_result <= agg_result + 64'd1;  // count\n"
      << "        32'd2: agg_result <= agg_result + " << extended
      << ";  // sum\n"
      << "        32'd3: if (" << extended << " < agg_result)\n"
      << "                 agg_result <= " << extended << ";  // min\n"
      << "        32'd4: if (" << extended << " > agg_result)\n"
      << "                 agg_result <= " << extended << ";  // max\n"
      << "        default: ;\n"
      << "      endcase\n"
      << "    end\n"
      << "  end\n"
      << "endmodule\n\n";
  (void)module;
}

void emit_transform_unit(std::ostringstream& out, const PEDesign& design,
                         const ModuleInstance& module) {
  const auto& input = design.parser.input;
  const auto& output = design.parser.output;
  out << "// (d) Data Transformation Unit: " << input.type_name << " -> "
      << output.type_name
      << (design.parser.mapping.identity ? " (identity pass-through)" : "")
      << ".\n"
      << "module " << design.name << "_transform_unit (\n"
      << "    input  wire        clk,\n"
      << "    input  wire        rst_n,\n"
      << "    input  wire " << width_decl(input.padded_bits) << "in_tuple,\n"
      << "    input  wire        in_valid,\n"
      << "    output wire        in_ready,\n"
      << "    output wire " << width_decl(output.padded_bits)
      << "out_tuple,\n"
      << "    output wire        out_valid,\n"
      << "    input  wire        out_ready\n"
      << ");\n"
      << "  wire " << width_decl(output.padded_bits) << "mapped;\n";
  for (const auto& wire : design.parser.mapping.wires) {
    const auto& src = input.fields[wire.input_field];
    const auto& dst = output.fields[wire.output_field];
    out << "  assign mapped[" << dst.padded_offset_bits + dst.padded_width_bits - 1
        << ":" << dst.padded_offset_bits << "] = in_tuple["
        << src.padded_offset_bits + dst.padded_width_bits - 1 << ":"
        << src.padded_offset_bits << "];  // " << dst.path << " <= "
        << src.path << "\n";
  }
  out << "  ndp_stream_fifo #(.WIDTH(" << output.padded_bits << "), .DEPTH("
      << module.param("fifo_depth") << ")) fifo (\n"
      << "    .clk(clk), .rst_n(rst_n),\n"
      << "    .in_data(mapped), .in_valid(in_valid), .in_ready(in_ready),\n"
      << "    .out_data(out_tuple), .out_valid(out_valid),\n"
      << "    .out_ready(out_ready)\n"
      << "  );\n"
      << "endmodule\n\n";
}

void emit_tuple_output_buffer(std::ostringstream& out, const PEDesign& design,
                              const ModuleInstance& module) {
  const auto& layout = design.parser.output;
  out << "// (c) Accessor component, output side: re-packs padded tuples\n"
      << "// into the storage layout and streams them out as "
      << module.param("data_width") << "-bit words.\n"
      << "module " << design.name << "_tuple_output_buffer (\n"
      << "    input  wire        clk,\n"
      << "    input  wire        rst_n,\n"
      << "    input  wire " << width_decl(layout.padded_bits) << "in_tuple,\n"
      << "    input  wire        in_valid,\n"
      << "    output wire        in_ready,\n"
      << "    output wire [" << module.param("data_width") - 1
      << ":0] out_data,\n"
      << "    output wire        out_valid,\n"
      << "    input  wire        out_ready\n"
      << ");\n"
      << "  // Re-packing: inverse of the input buffer's split.\n"
      << "  wire " << width_decl(layout.storage_bits) << "packed_tuple;\n";
  for (const auto& field : layout.fields) {
    out << "  assign packed_tuple["
        << field.storage_offset_bits + field.storage_width_bits - 1 << ":"
        << field.storage_offset_bits << "] = in_tuple["
        << field.padded_offset_bits + field.storage_width_bits - 1 << ":"
        << field.padded_offset_bits << "];  // " << field.path << "\n";
  }
  out << "  reg " << width_decl(layout.storage_bits) << "shift_reg;\n"
      << "  reg [15:0] bits_held;\n"
      << "  assign in_ready  = (bits_held == 0);\n"
      << "  assign out_valid = (bits_held >= " << module.param("data_width")
      << ") || (bits_held > 0 && bits_held < " << module.param("data_width")
      << ");\n"
      << "  assign out_data = shift_reg[" << module.param("data_width") - 1
      << ":0];\n"
      << "  always @(posedge clk or negedge rst_n) begin\n"
      << "    if (!rst_n) bits_held <= 0;\n"
      << "    else begin\n"
      << "      if (in_valid && in_ready) begin\n"
      << "        shift_reg <= packed_tuple;\n"
      << "        bits_held <= " << layout.storage_bits << ";\n"
      << "      end\n"
      << "      if (out_valid && out_ready) begin\n"
      << "        shift_reg <= shift_reg >> " << module.param("data_width")
      << ";\n"
      << "        bits_held <= (bits_held > " << module.param("data_width")
      << ") ? bits_held - " << module.param("data_width") << " : 16'd0;\n"
      << "      end\n"
      << "    end\n"
      << "  end\n"
      << "endmodule\n\n";
}

}  // namespace

std::string emit_verilog_top(const PEDesign& design) {
  std::ostringstream out;
  out << "// Top-level PE wrapper: composition of the architecture template\n"
      << "// (control regs + load/store + tuple buffers + "
      << design.filter_stage_count() << " filter stage(s) + transform).\n"
      << "module " << design.name << "_top (\n"
      << "    input  wire clk,\n"
      << "    input  wire rst_n,\n"
      << "    // AXI4-Lite control port (mapped into ARM address space).\n"
      << "    input  wire [11:0] s_axil_addr,\n"
      << "    input  wire        s_axil_wen,\n"
      << "    input  wire [31:0] s_axil_wdata,\n"
      << "    output wire [31:0] s_axil_rdata,\n"
      << "    // AXI4 memory port (shared, to PS DRAM).\n"
      << "    output wire [63:0] m_axi_araddr,\n"
      << "    output wire        m_axi_arvalid,\n"
      << "    input  wire        m_axi_arready,\n"
      << "    input  wire [" << kDataWidthBits - 1
      << ":0] m_axi_rdata,\n"
      << "    input  wire        m_axi_rvalid,\n"
      << "    output wire        m_axi_rready,\n"
      << "    output wire [63:0] m_axi_awaddr,\n"
      << "    output wire [" << kDataWidthBits - 1
      << ":0] m_axi_wdata,\n"
      << "    output wire        m_axi_wvalid,\n"
      << "    input  wire        m_axi_wready\n"
      << ");\n";

  const auto& map = design.regmap;
  const std::uint32_t padded_in = design.parser.input.padded_bits;
  const std::uint32_t padded_out = design.parser.output.padded_bits;
  const std::uint32_t stages = design.filter_stage_count();
  const bool configurable = map.find(reg::kInSize) != nullptr;
  const bool aggregation = map.find(reg::kAggOp) != nullptr;

  // --- Control register file -------------------------------------------
  out << "  // (a) Control component.\n";
  for (const auto& def : map.registers()) {
    out << "  wire [31:0] reg_" << def.name << ";\n";
  }
  out << "  wire start_pulse;\n"
      << "  " << design.name << "_control_regs control_regs (\n"
      << "    .clk(clk), .rst_n(rst_n),\n"
      << "    .s_axil_addr(s_axil_addr), .s_axil_wen(s_axil_wen),\n"
      << "    .s_axil_wdata(s_axil_wdata), .s_axil_rdata(s_axil_rdata),\n";
  for (const auto& def : map.registers()) {
    out << "    .reg_" << def.name << "(reg_" << def.name << "),\n";
  }
  out << "    .start_pulse(start_pulse)\n"
      << "  );\n\n";

  // --- Inter-module streams (latency-insensitive, directly wired) -------
  out << "  // (b)-(d) Datapath: " ;
  for (const auto& connection : design.connections) {
    out << connection.from << "->" << connection.to << " ";
  }
  out << "\n"
      << "  wire [" << kDataWidthBits - 1 << ":0] ld_data;\n"
      << "  wire ld_valid, ld_ready, ld_done;\n"
      << "  " << design.name << "_load_unit load_unit (\n"
      << "    .clk(clk), .rst_n(rst_n), .start(start_pulse),\n"
      << "    .src_addr({reg_IN_ADDR_HI, reg_IN_ADDR_LO}),\n"
      << (configurable ? "    .load_bytes(reg_IN_SIZE),\n" : "")
      << "    .m_axi_araddr(m_axi_araddr), .m_axi_arvalid(m_axi_arvalid),\n"
      << "    .m_axi_arready(m_axi_arready), .m_axi_rdata(m_axi_rdata),\n"
      << "    .m_axi_rvalid(m_axi_rvalid), .m_axi_rready(m_axi_rready),\n"
      << "    .out_data(ld_data), .out_valid(ld_valid), .out_ready(ld_ready),\n"
      << "    .done(ld_done)\n"
      << "  );\n\n";

  out << "  wire " << width_decl(padded_in) << "t0_tuple;\n"
      << "  wire t0_valid, t0_ready;\n"
      << "  " << design.name << "_tuple_input_buffer tuple_in (\n"
      << "    .clk(clk), .rst_n(rst_n),\n"
      << "    .in_data(ld_data), .in_valid(ld_valid), .in_ready(ld_ready),\n"
      << "    .out_tuple(t0_tuple), .out_valid(t0_valid), "
         ".out_ready(t0_ready)\n"
      << "  );\n\n";

  std::string prev = "t0";
  for (std::uint32_t stage = 0; stage < stages; ++stage) {
    const std::string next = "t" + std::to_string(stage + 1);
    out << "  wire " << width_decl(padded_in) << next << "_tuple;\n"
        << "  wire " << next << "_valid, " << next << "_ready;\n";
    if (stage + 1 != stages) {
      // Intermediate pass counters are generated but not register-mapped.
      out << "  wire [31:0] reg_FILTER_PASS_" << stage << ";\n";
    }
    out << "  " << design.name << "_filter_stage_" << stage
        << " filter_stage_" << stage << " (\n"
        << "    .clk(clk), .rst_n(rst_n),\n"
        << "    .in_tuple(" << prev << "_tuple), .in_valid(" << prev
        << "_valid), .in_ready(" << prev << "_ready),\n"
        << "    .field_select(reg_" << reg::filter_field(stage) << "),\n"
        << "    .operator_select(reg_" << reg::filter_op(stage) << "),\n"
        << "    .compare_value({reg_" << reg::filter_value_hi(stage)
        << ", reg_" << reg::filter_value_lo(stage) << "}),\n"
        << "    .out_tuple(" << next << "_tuple), .out_valid(" << next
        << "_valid), .out_ready(" << next << "_ready),\n"
        << "    .pass_counter(reg_"
        << (stage + 1 == stages ? std::string(reg::kFilterCounter)
                                : "FILTER_PASS_" + std::to_string(stage))
        << ")\n"
        << "  );\n\n";
    prev = next;
  }

  if (aggregation) {
    out << "  wire " << width_decl(padded_in) << "agg_tuple;\n"
        << "  wire agg_valid, agg_ready;\n"
        << "  " << design.name << "_aggregate_unit aggregate_unit (\n"
        << "    .clk(clk), .rst_n(rst_n), .start(start_pulse),\n"
        << "    .in_tuple(" << prev << "_tuple), .in_valid(" << prev
        << "_valid), .in_ready(" << prev << "_ready),\n"
        << "    .agg_op(reg_AGG_OP), .agg_field(reg_AGG_FIELD),\n"
        << "    .out_tuple(agg_tuple), .out_valid(agg_valid), "
           ".out_ready(agg_ready),\n"
        << "    .agg_result({reg_AGG_RESULT_HI, reg_AGG_RESULT_LO}),\n"
        << "    .agg_count(reg_AGG_COUNT)\n"
        << "  );\n\n";
    prev = "agg";
  }

  out << "  wire " << width_decl(padded_out) << "tr_tuple;\n"
      << "  wire tr_valid, tr_ready;\n"
      << "  " << design.name << "_transform_unit transform_unit (\n"
      << "    .clk(clk), .rst_n(rst_n),\n"
      << "    .in_tuple(" << prev << "_tuple), .in_valid(" << prev
      << "_valid), .in_ready(" << prev << "_ready),\n"
      << "    .out_tuple(tr_tuple), .out_valid(tr_valid), "
         ".out_ready(tr_ready)\n"
      << "  );\n\n";

  out << "  wire [" << kDataWidthBits - 1 << ":0] st_data;\n"
      << "  wire st_valid, st_ready, st_done;\n"
      << "  " << design.name << "_tuple_output_buffer tuple_out (\n"
      << "    .clk(clk), .rst_n(rst_n),\n"
      << "    .in_tuple(tr_tuple), .in_valid(tr_valid), "
         ".in_ready(tr_ready),\n"
      << "    .out_data(st_data), .out_valid(st_valid), "
         ".out_ready(st_ready)\n"
      << "  );\n\n"
      << "  " << design.name << "_store_unit store_unit (\n"
      << "    .clk(clk), .rst_n(rst_n), .start(start_pulse),\n"
      << "    .upstream_done(ld_done),\n"
      << "    .dst_addr({reg_OUT_ADDR_HI, reg_OUT_ADDR_LO}),\n"
      << "    .in_data(st_data), .in_valid(st_valid), .in_ready(st_ready),\n"
      << "    .m_axi_awaddr(m_axi_awaddr), .m_axi_wdata(m_axi_wdata),\n"
      << "    .m_axi_wvalid(m_axi_wvalid), .m_axi_wready(m_axi_wready),\n"
      << "    .bytes_written(reg_OUT_SIZE),\n"
      << "    .done(st_done)\n"
      << "  );\n\n"
      << "  // Status: busy from start until load AND store drained.\n"
      << "  reg busy_r;\n"
      << "  always @(posedge clk or negedge rst_n) begin\n"
      << "    if (!rst_n) busy_r <= 1'b0;\n"
      << "    else if (start_pulse) busy_r <= 1'b1;\n"
      << "    else if (ld_done && st_done) busy_r <= 1'b0;\n"
      << "  end\n"
      << "  assign reg_BUSY = {31'd0, busy_r};\n"
      << "  // Result bookkeeping exposed through the RO registers.\n"
      << "  assign reg_TUPLE_COUNT = reg_" << reg::kFilterCounter << ";\n"
      << "  reg [31:0] cycle_r;\n"
      << "  always @(posedge clk or negedge rst_n) begin\n"
      << "    if (!rst_n) cycle_r <= 32'd0;\n"
      << "    else if (start_pulse) cycle_r <= 32'd0;\n"
      << "    else if (busy_r) cycle_r <= cycle_r + 1'b1;\n"
      << "  end\n"
      << "  assign reg_CYCLE_COUNTER = cycle_r;\n"
      << "endmodule\n";
  return out.str();
}

std::string emit_verilog(const PEDesign& design) {
  std::ostringstream out;
  out << "// ============================================================\n"
      << "// Automatically generated NDP accelerator: " << design.name << "\n"
      << "// Flavor: " << to_string(design.flavor) << "\n"
      << "// Input tuple:  " << design.parser.input.type_name << " ("
      << design.parser.input.storage_bits << " bits packed, "
      << design.parser.input.padded_bits << " bits padded)\n"
      << "// Output tuple: " << design.parser.output.type_name << " ("
      << design.parser.output.storage_bits << " bits packed)\n"
      << "// Filter stages: " << design.filter_stage_count()
      << "  Clock: " << kPeClockMhz << " MHz\n"
      << "// Generated by ndpgen — do not edit.\n"
      << "// ============================================================\n\n";
  emit_stream_fifo(out);
  for (const auto& module : design.modules) {
    switch (module.kind) {
      case ModuleKind::kControlRegs:
        emit_control_regs(out, design);
        break;
      case ModuleKind::kLoadUnit:
        emit_load_unit(out, design, module);
        break;
      case ModuleKind::kStoreUnit:
        emit_store_unit(out, design, module);
        break;
      case ModuleKind::kTupleInputBuffer:
        emit_tuple_input_buffer(out, design, module);
        break;
      case ModuleKind::kTupleOutputBuffer:
        emit_tuple_output_buffer(out, design, module);
        break;
      case ModuleKind::kFilterStage:
        emit_filter_stage(out, design, module);
        break;
      case ModuleKind::kTransformUnit:
        emit_transform_unit(out, design, module);
        break;
      case ModuleKind::kAggregateUnit:
        emit_aggregate_unit(out, design, module);
        break;
    }
  }
  out << emit_verilog_top(design);
  return out.str();
}

}  // namespace ndpgen::hwgen
