# CLI usage-error table, run as a ctest target:
#
#   cmake -DNDPGEN_BIN=<path to ndpgen> -DWORK_DIR=<scratch dir> \
#         -P cli_usage_errors.cmake
#
# Every case below is a bad flag or argument and must exit 2 (usage)
# instead of running anyway. @SPEC@ expands to a one-parser spec file
# (parser P over a single uint64_t field) written into WORK_DIR.
if(NOT NDPGEN_BIN OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DNDPGEN_BIN=... -DWORK_DIR=... -P cli_usage_errors.cmake")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(spec "${WORK_DIR}/usage.spec")
file(WRITE "${spec}"
  "typedef struct { uint64_t a; } T;\n"
  "/* @autogen define parser P with input = T, output = T */\n")

set(cases
  # A bad shared device flag, on the command that takes the fewest.
  "query --plan early_count --pes 0"
  # Unknown arguments.
  "simulate @SPEC@ P --tuples 5 --bogus"
  "testbench @SPEC@ P --bogus"
  # query --serve drives one HW PE; it cannot honour these.
  "query --plan hot_window --serve --mode sw"
  "query --plan hot_window --serve --pes 4"
  "query --plan hot_window --serve --threads 2"
  # Numbers: no sign, no trailing text, in the target type's range.
  "serve --arrival-rate -5"
  "scan --scale 12abc"
  "serve --max-retries -1"
  "scan --threads -1"
  # Fractions and rates: finite, no trailing text, in the flag's range.
  "recover --torn-fraction 0.5abc"
  "recover --torn-fraction -3"
  "serve --scrub-share nan"
  "scrub --bandwidth-mbps 10x")

set(failed "")
foreach(command IN LISTS cases)
  string(REPLACE "@SPEC@" "${spec}" command "${command}")
  separate_arguments(args UNIX_COMMAND "${command}")
  execute_process(
    COMMAND "${NDPGEN_BIN}" ${args}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT status EQUAL 2)
    message(SEND_ERROR "ndpgen ${command}: exit ${status}, expected 2 (usage)\n${stdout}")
    list(APPEND failed "${command}")
  endif()
endforeach()

if(failed)
  message(FATAL_ERROR "CLI usage-error mismatch: ${failed}")
endif()
list(LENGTH cases count)
message(STATUS "CLI usage-error check passed (${count} cases)")
