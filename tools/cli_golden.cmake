# CLI stdout golden check, run as a ctest target:
#
#   cmake -DNDPGEN_BIN=<path to ndpgen> -DGOLDEN_DIR=<tools/golden> \
#         -P cli_golden.cmake [-DUPDATE=ON]
#
# Runs each case below and compares its stdout byte for byte with
# GOLDEN_DIR/<case>.txt. Everything printed is virtual time or a
# deterministic count, so any difference is a behaviour change of the
# device build, the executor or the query layer. A deliberate change
# re-records the files with -DUPDATE=ON (and says why in the commit).
if(NOT NDPGEN_BIN OR NOT GOLDEN_DIR)
  message(FATAL_ERROR "usage: cmake -DNDPGEN_BIN=... -DGOLDEN_DIR=... -P cli_golden.cmake")
endif()

set(cases
  "scan_papers_hw|scan --dataset papers --mode hw --scale 4096"
  "scan_papers_sw|scan --dataset papers --mode sw --scale 4096"
  "scan_papers_host|scan --dataset papers --mode host --scale 4096"
  "scan_refs_hw|scan --dataset refs --mode hw --scale 4096"
  "scan_refs_sw|scan --dataset refs --mode sw --scale 4096"
  "scan_refs_host|scan --dataset refs --mode host --scale 4096"
  "scan_papers_hw_pes4|scan --dataset papers --mode hw --pes 4 --scale 4096"
  "scan_refs_hw_pes4|scan --dataset refs --mode hw --pes 4 --scale 4096"
  "serve_single|serve --tenants 2 --qd 8 --arrival-rate 2000 --requests 48 --scale 65536"
  "serve_cluster|serve --devices 4 --replication 2 --requests 48 --scale 65536"
  "serve_cluster_device_loss|serve --devices 4 --replication 2 --requests 48 --scale 65536 --fault-profile device-loss"
  "scrub|scrub --requests 64 --scale 65536"
  "query_early_count|query --plan early_count --scale 8192"
  "query_hot_window|query --plan hot_window --scale 8192")

set(failed "")
foreach(case IN LISTS cases)
  string(FIND "${case}" "|" bar)
  string(SUBSTRING "${case}" 0 ${bar} name)
  math(EXPR start "${bar} + 1")
  string(SUBSTRING "${case}" ${start} -1 command)
  separate_arguments(args UNIX_COMMAND "${command}")
  execute_process(
    COMMAND "${NDPGEN_BIN}" ${args}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "ndpgen ${command} failed (${status}):\n${stdout}\n${stderr}")
  endif()
  set(golden "${GOLDEN_DIR}/${name}.txt")
  if(UPDATE)
    file(WRITE "${golden}" "${stdout}")
    continue()
  endif()
  file(READ "${golden}" expected)
  if(NOT stdout STREQUAL expected)
    message(SEND_ERROR "ndpgen ${command}: stdout differs from ${golden}\n--- expected\n${expected}--- got\n${stdout}")
    list(APPEND failed "${name}")
  endif()
endforeach()

if(failed)
  message(FATAL_ERROR "CLI golden mismatch: ${failed}")
endif()
list(LENGTH cases count)
message(STATUS "CLI golden check passed (${count} cases)")
