# The end-to-end benchmark driver.  Included by hook.cmake at the end of
# the repository's top-level CMakeLists.txt.
add_executable(perfbench_driver
  ${PERFBENCH_SOURCE_DIR}/src/main.cpp
  ${PERFBENCH_SOURCE_DIR}/src/pipeline.cpp
  ${PERFBENCH_SOURCE_DIR}/src/campaign.cpp
  ${PERFBENCH_SOURCE_DIR}/src/text.cpp
  ${PERFBENCH_SOURCE_DIR}/src/serve.cpp
)
target_link_libraries(perfbench_driver PRIVATE
  reshape_serve reshape_mapreduce reshape_provision reshape_pack reshape_model
  reshape_cloud reshape_corpus reshape_textproc reshape_sim reshape_common
  reshape_obs)
target_compile_definitions(perfbench_driver PRIVATE
  PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
  PERFBENCH_COMPILER="${CMAKE_CXX_COMPILER_ID}")
