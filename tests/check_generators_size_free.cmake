# Lint: schedule generators never read the vector size. Fails if any file
# under src/coll/ names elem_count, elem_size, total_elems or bytes_of, except
# inside config.hpp's `struct Config` declaration and `make_base`, which copy
# the size onto the schedule. Op bytes are a view derived from blocks
# (sched::Schedule::op_bytes), so this is the static half of "structure never
# depends on size"; the registry-wide resolution test in
# test_schedule_cache.cpp is the dynamic half.
#
#   cmake -DCOLL_DIR=<src/coll> -P check_generators_size_free.cmake
file(GLOB_RECURSE sources "${COLL_DIR}/*.hpp" "${COLL_DIR}/*.cpp")
list(SORT sources)
if(NOT sources)
  message(FATAL_ERROR "no sources under '${COLL_DIR}'")
endif()
set(failed "")
foreach(src IN LISTS sources)
  get_filename_component(name "${src}" NAME)
  file(READ "${src}" text)
  # One list element per line: neutralize the characters CMake lists treat
  # specially before splitting on newlines.
  string(REGEX REPLACE "[][;\\]" " " text "${text}")
  string(REPLACE "\n" ";" lines "${text}")
  set(lineno 0)
  set(allowed "")
  foreach(line IN LISTS lines)
    math(EXPR lineno "${lineno} + 1")
    if(name STREQUAL "config.hpp")
      if(line MATCHES "^struct Config " OR line MATCHES "make_base\\(")
        set(allowed "yes")
      elseif(allowed AND line MATCHES "^}")
        set(allowed "")
        continue()
      endif()
    endif()
    if(NOT allowed AND line MATCHES "(elem_count|elem_size|total_elems|bytes_of)")
      string(STRIP "${line}" line)
      list(APPEND failed "src/coll/${name}:${lineno}: ${line}")
    endif()
  endforeach()
endforeach()
if(failed)
  string(REPLACE ";" "\n  " report "${failed}")
  message(FATAL_ERROR "generators name the vector size:\n  ${report}")
endif()
