# Benchmark binaries — included from the top-level CMakeLists (instead of
# add_subdirectory) so ${CMAKE_BINARY_DIR}/bench holds ONLY the executables
# and `for b in build/bench/*; do $b; done` runs clean.
set(LEAPS_BENCH_TARGETS
  bench_paper
  bench_ablation
  bench_srctrojan
  bench_hmm
  bench_baselines
  bench_universal
  bench_micro
  bench_online
  bench_train
  bench_campaign
)
foreach(b ${LEAPS_BENCH_TARGETS})
  add_executable(${b} bench/${b}.cc)
  target_link_libraries(${b} PRIVATE leaps_core)
  target_include_directories(${b} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  set_target_properties(${b} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()
target_link_libraries(bench_micro PRIVATE benchmark::benchmark)
target_link_libraries(bench_online PRIVATE leaps_serve leaps_online)
target_link_libraries(bench_campaign PRIVATE leaps_attrib)
