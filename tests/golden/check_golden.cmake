# Diffs each paper driver's stdout against its committed golden file. The
# goldens pin the healthy machine, so an inherited BINE_FAULT_SPEC is
# cleared for the run.
#
#   cmake -DBIN_DIR=<dir with the drivers> -DGOLDEN_DIR=<tests/golden>
#         -DDRIVERS=<name,name,...> -P check_golden.cmake
string(REPLACE "," ";" drivers "${DRIVERS}")
unset(ENV{BINE_FAULT_SPEC})
set(failed "")
foreach(driver IN LISTS drivers)
  file(READ "${GOLDEN_DIR}/${driver}.txt" expected)
  execute_process(COMMAND "${BIN_DIR}/${driver}"
                  OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    list(APPEND failed "${driver}: exit ${rc}")
  elseif(NOT actual STREQUAL expected)
    file(WRITE "${BIN_DIR}/${driver}.golden-diff.txt" "${actual}")
    list(APPEND failed "${driver}: output differs, "
                       "see ${BIN_DIR}/${driver}.golden-diff.txt")
  endif()
endforeach()
if(failed)
  string(REPLACE ";" "\n  " report "${failed}")
  message(FATAL_ERROR "golden mismatch:\n  ${report}")
endif()
