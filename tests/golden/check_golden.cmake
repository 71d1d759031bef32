# Diffs each paper driver's stdout against its committed golden file, once
# with the schedule cache at its default (on) and once with
# BINE_SCHED_CACHE=0 -- or only in the modes CACHE_MODES lists. The goldens
# pin the healthy machine, so an inherited BINE_FAULT_SPEC is cleared for
# the run.
#
#   cmake -DBIN_DIR=<dir with the drivers> -DGOLDEN_DIR=<tests/golden>
#         -DDRIVERS=<name,name,...> [-DCACHE_MODES=default,0] -P check_golden.cmake
string(REPLACE "," ";" drivers "${DRIVERS}")
if(NOT DEFINED CACHE_MODES)
  set(CACHE_MODES "default,0")
endif()
string(REPLACE "," ";" cache_modes "${CACHE_MODES}")
unset(ENV{BINE_FAULT_SPEC})
set(failed "")
foreach(driver IN LISTS drivers)
  file(READ "${GOLDEN_DIR}/${driver}.txt" expected)
  foreach(cache_mode IN LISTS cache_modes)
    if(cache_mode STREQUAL "default")
      unset(ENV{BINE_SCHED_CACHE})
    else()
      set(ENV{BINE_SCHED_CACHE} ${cache_mode})
    endif()
    execute_process(COMMAND "${BIN_DIR}/${driver}"
                    OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      list(APPEND failed "${driver} (BINE_SCHED_CACHE=${cache_mode}): exit ${rc}")
    elseif(NOT actual STREQUAL expected)
      file(WRITE "${BIN_DIR}/${driver}.golden-diff.txt" "${actual}")
      list(APPEND failed "${driver} (BINE_SCHED_CACHE=${cache_mode}): output differs, "
                         "see ${BIN_DIR}/${driver}.golden-diff.txt")
    endif()
  endforeach()
endforeach()
if(failed)
  string(REPLACE ";" "\n  " report "${failed}")
  message(FATAL_ERROR "golden mismatch:\n  ${report}")
endif()
