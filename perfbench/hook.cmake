# Passed as CMAKE_PROJECT_INCLUDE when run.py configures the repository
# (cmake -S <checkout> -DCMAKE_PROJECT_INCLUDE=<this file>).  It runs right
# after the repository's own project() call and defers defining the
# benchmark driver (driver.cmake) to the end of the top-level
# CMakeLists.txt, once every library exists, so the driver builds with the
# same flags and build type as the programs it measures.
set(PERFBENCH_SOURCE_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${PERFBENCH_SOURCE_DIR}/driver.cmake")
