# Runs one paper figure/table binary (or reshape_cli) and diffs its
# stdout against the checked-in expectation tests/golden/<name>.txt (the
# paper-golden label).
#
#   cmake -DBIN=<binary> -DGOLDEN=<expected.txt> -DACTUAL=<out.txt>
#         [-DARGS="<args>"] [-DEXIT=<status>] -P check_golden.cmake
#
# EXIT is the exit status the run must end with (default 0).  After an
# intended output change, re-record with
#   ./build/bench/<name> > tests/golden/<name>.txt
# and give the reason in EXPERIMENTS.md.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(NOT DEFINED EXIT)
  set(EXIT 0)
endif()
execute_process(COMMAND "${BIN}" ${args} OUTPUT_FILE "${ACTUAL}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL EXIT)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with status ${rc}, not ${EXIT}")
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
