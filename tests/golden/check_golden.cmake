# Runs one paper figure/table binary and diffs its stdout against the
# checked-in expectation tests/golden/<name>.txt (the paper-golden label).
#
#   cmake -DBIN=<binary> -DGOLDEN=<expected.txt> -DACTUAL=<out.txt>
#         -P check_golden.cmake
#
# After an intended output change, re-record with
#   ./build/bench/<name> > tests/golden/<name>.txt
# and give the reason in EXPERIMENTS.md.
execute_process(COMMAND "${BIN}" OUTPUT_FILE "${ACTUAL}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with status ${rc}")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${ACTUAL}"
  RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF_PROGRAM diff)
  if(DIFF_PROGRAM)
    execute_process(COMMAND "${DIFF_PROGRAM}" -u "${GOLDEN}" "${ACTUAL}")
  endif()
  message(FATAL_ERROR
    "stdout differs from ${GOLDEN}; the actual output is in ${ACTUAL}")
endif()
