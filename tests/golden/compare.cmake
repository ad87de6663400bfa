# Golden-output regression check: runs BENCH with ARGS and byte-compares
# its stdout against EXPECTED. Invoked by ctest (see tests/CMakeLists.txt):
#
#   cmake -DBENCH=<exe> -DARGS="--iters;5" -DEXPECTED=<file> -P compare.cmake
#
# KEEP, when given, is a line regex: only the stdout lines it matches are
# compared (perf_sim's "^CHECKSUM " lines; the rest of its stdout is host
# wall time). A KEEP that matches no line fails the test.
#
# Observer outputs are checked too when given: ATTR_OUT (the --attr-out file
# ARGS names) must equal ATTR_EXPECTED byte for byte, and TRACE_OUT (the
# --trace-out file) must hash to TRACE_MD5 — traces are too large to check
# in whole.
#
# The simulator is deterministic for a fixed seed at any --jobs, so the
# checked-in files only change when simulated timing or table formatting
# changes — both of which deserve a deliberate refresh:
#
#   <exe> <args> > tests/golden/<name>.txt
#   <exe> <args> | grep '<KEEP>' > tests/golden/<name>.txt    # with KEEP
#
# and, for golden_observers (stdout shares golden/fig6_barrier.txt; the
# trace and attribution report are deterministic at --jobs 1 only):
#
#   <exe> <args>                      # writes the --trace-out/--attr-out files
#   cp <attr-out> tests/golden/fig6_barrier.attr.json
#   md5sum <trace-out>                # paste as TRACE_MD5 in tests/CMakeLists.txt
if(NOT DEFINED BENCH OR NOT DEFINED EXPECTED)
  message(FATAL_ERROR "compare.cmake needs -DBENCH=... and -DEXPECTED=...")
endif()
separate_arguments(ARG_LIST UNIX_COMMAND "${ARGS}")
foreach(out ${ATTR_OUT} ${TRACE_OUT})
  get_filename_component(out_dir "${out}" DIRECTORY)
  file(MAKE_DIRECTORY "${out_dir}")
  file(REMOVE "${out}")
endforeach()
execute_process(
  COMMAND ${BENCH} ${ARG_LIST}
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE bench_err
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}:\n${bench_err}")
endif()
set(refresh "${BENCH} ${ARGS} > ${EXPECTED}")
if(DEFINED KEEP)
  set(refresh "${BENCH} ${ARGS} | grep '${KEEP}' > ${EXPECTED}")
  string(REGEX MATCHALL "[^\n]*\n" out_lines "${actual}")
  set(actual "")
  foreach(line IN LISTS out_lines)
    if(line MATCHES "${KEEP}")
      string(APPEND actual "${line}")
    endif()
  endforeach()
  if(actual STREQUAL "")
    message(FATAL_ERROR "KEEP '${KEEP}' matched no line of ${BENCH}'s stdout")
  endif()
endif()
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${EXPECTED}.actual" "${actual}")
  message(FATAL_ERROR
    "stdout diverged from ${EXPECTED}\n"
    "actual output written to ${EXPECTED}.actual\n"
    "if the change is intentional, refresh the golden file:\n"
    "  ${refresh}")
endif()
if(DEFINED ATTR_OUT)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${ATTR_OUT}" "${ATTR_EXPECTED}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR
      "attribution report ${ATTR_OUT} diverged from ${ATTR_EXPECTED}")
  endif()
endif()
if(DEFINED TRACE_OUT)
  file(MD5 "${TRACE_OUT}" trace_md5)
  if(NOT trace_md5 STREQUAL TRACE_MD5)
    message(FATAL_ERROR
      "trace ${TRACE_OUT} has MD5 ${trace_md5}, expected ${TRACE_MD5}")
  endif()
  file(REMOVE "${TRACE_OUT}")  # ~38 MB; kept only when it diverged
endif()
