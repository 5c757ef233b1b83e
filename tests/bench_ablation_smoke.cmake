# CTest script: bench_ablation, the runner's other multi-configuration
# consumer, at the LEAPS_FAST preset. Its numbers are not pinned; the run
# must exit 0 and reach its closing "reading:" line.
#
# Variables (passed with -D): LEAPS_BENCH_ABLATION.

set(ENV{LEAPS_FAST} 1)
execute_process(COMMAND ${LEAPS_BENCH_ABLATION} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_ablation exited ${rc}\nstdout:\n${out}\n"
                      "stderr:\n${err}")
endif()
string(FIND "${out}" "\nreading:" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "bench_ablation printed no 'reading:' line:\n${out}")
endif()
