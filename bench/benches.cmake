# Included from the top-level CMakeLists so that build/bench/ contains ONLY
# the bench binaries (the canonical run command globs that directory).
function(faros_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE
    faros_farm faros_graph faros_sa faros_attacks faros_baselines faros_core
    faros_os faros_vm faros_common)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

# The paper benches check the results they print and exit 1 on a
# REPRODUCTION FAILURE, so ctest runs them (label `paper`).
foreach(name bench_table2_provenance bench_fig7_9_reflective
    bench_fig10_hollowing bench_table3_jit_fp bench_table4_fp_dataset
    bench_headline_detection bench_cuckoo_comparison
    bench_ablation_indirect_flows bench_evasion)
  faros_bench(${name})
  add_test(NAME ${name} COMMAND ${name})
  set_tests_properties(${name} PROPERTIES LABELS paper)
endforeach()
faros_bench(bench_table5_performance)

add_executable(bench_micro_dift ${CMAKE_SOURCE_DIR}/bench/bench_micro_dift.cpp)
target_link_libraries(bench_micro_dift PRIVATE
  faros_attacks faros_core faros_os faros_vm faros_common
  benchmark::benchmark)
set_target_properties(bench_micro_dift PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
faros_bench(bench_farm_throughput)
faros_bench(bench_sa_analyze)
faros_bench(bench_graph_export)
