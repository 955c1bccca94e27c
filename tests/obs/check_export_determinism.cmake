# Runs BIN twice with --trace/--metrics (the obs-export label): the two
# traces, and with CMP_METRICS the two metrics snapshots, must match.
#
#   cmake -DBIN=<binary> -DOUT=<path prefix> [-DARGS="<args>"]
#         [-DCMP_METRICS=ON] -P check_export_determinism.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
foreach(run a b)
  execute_process(COMMAND "${BIN}" ${args}
    --trace "${OUT}.${run}.trace.json" --metrics "${OUT}.${run}.metrics.json"
    OUTPUT_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with status ${rc}")
  endif()
endforeach()
set(kinds trace)
if(CMP_METRICS)
  list(APPEND kinds metrics)
endif()
foreach(kind IN LISTS kinds)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${OUT}.a.${kind}.json" "${OUT}.b.${kind}.json" RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "two ${kind} exports of ${BIN} ${ARGS} differ")
  endif()
endforeach()
