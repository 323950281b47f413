// Fixed parameters of the PE platform.
//
// Every PE is elaborated from one architecture template for one device:
// a Zynq-7000 whose PEs sit on 64-bit HP ports, are clocked at 100 MHz
// and chain their stages through elastic FIFOs (paper §IV-V). Only the
// analyzed layouts vary between designs, so these are constants, read by
// the template, the Verilog and resource models, hwsim and the platform
// timing model alike.
#pragma once

#include <cstdint>

namespace ndpgen::hwgen {

/// Native width of the Zynq-7000 HP ports: one AXI memory beat.
inline constexpr std::uint32_t kDataWidthBits = 64;
/// Depth of every elastic stage FIFO.
inline constexpr std::uint32_t kFifoDepth = 2;
/// PE clock (paper: 100 MHz).
inline constexpr std::uint32_t kPeClockMhz = 100;
/// Beats the load unit and the store unit each keep in flight on their
/// AXI channel: a modest burst capability (4 outstanding 8-beat bursts).
inline constexpr std::uint32_t kIssueWindow = 32;

}  // namespace ndpgen::hwgen
