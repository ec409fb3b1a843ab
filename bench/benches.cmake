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

faros_bench(bench_table2_provenance)
# Table II checks the provenance chain it prints, so ctest runs it.
add_test(NAME bench_table2_provenance COMMAND bench_table2_provenance)
set_tests_properties(bench_table2_provenance PROPERTIES LABELS paper)
faros_bench(bench_fig7_9_reflective)
faros_bench(bench_fig10_hollowing)
faros_bench(bench_table3_jit_fp)
faros_bench(bench_table4_fp_dataset)
faros_bench(bench_table5_performance)
faros_bench(bench_headline_detection)
faros_bench(bench_cuckoo_comparison)
faros_bench(bench_ablation_indirect_flows)

add_executable(bench_micro_dift ${CMAKE_SOURCE_DIR}/bench/bench_micro_dift.cpp)
target_link_libraries(bench_micro_dift PRIVATE
  faros_attacks faros_core faros_os faros_vm faros_common
  benchmark::benchmark)
set_target_properties(bench_micro_dift PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
faros_bench(bench_evasion)
faros_bench(bench_farm_throughput)
faros_bench(bench_sa_analyze)
faros_bench(bench_graph_export)
