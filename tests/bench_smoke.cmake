# bench_smoke.cmake — run every experiment binary at tiny smoke settings
# with --json-dir, then validate the BENCH_*.json documents with
# `levyreport --check`. Registered as the tier-1 ctest `bench_json_smoke`:
#
#   cmake -DBENCH_DIR=<build>/bench -DLEVYREPORT=<build>/tools/levyreport \
#         -DOUT_DIR=<scratch> -P bench_smoke.cmake
#
# Per-bench trial/scale overrides keep each run fast while staying above
# the floor its regression fits need (a fit over all-zero hit counts has
# <2 points and the bench aborts loudly — the right behavior, so the smoke
# settings are tuned per bench instead of silencing the guard).

foreach(var BENCH_DIR LEVYREPORT OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_smoke.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

set(benches
  e1_superdiffusive_hit e2_early_hitting e3_eventual_hit e4_diffusive_hit
  e5_ballistic_hit e6_optimal_alpha e7_parallel_scaling e8_random_exponent
  e9_ants_baselines e10_monotonicity e11_origin_visits e12_distributions
  e13_displacement e14_kleinberg e15_micro e16_intermittent e17_foraging
  e18_strategy_ablation e19_torus_cauchy e20_first_passage
  e21_exact_occupancy e22_advice_tradeoff e23_serve_load
  e24_billion_walkers)

set(default_args --trials=50 --scale=0.25)
# E1/E2: hit probabilities are tiny, the log-log fit needs >=2 budgets with
# at least one hit each. E12: the jump-tail histogram fit needs a dense
# sample. E15: Google Benchmark; one representative micro-benchmark. E21 is
# an exact DP that declares no Monte-Carlo flags, so it gets none.
set(args_e1_superdiffusive_hit --trials=500 --scale=0.25)
set(args_e2_early_hitting --trials=1000 --scale=0.05)
set(args_e12_distributions --trials=20000 --scale=0.25)
set(args_e15_micro --benchmark_filter=BM_Xoshiro)
set(args_e21_exact_occupancy "")
# E24: out-of-core sweep; tiny trial count, scale keeps k <= 4096 while the
# default memory budget still forces spill/reload traffic.
set(args_e24_billion_walkers --trials=2 --scale=0.25)

foreach(bench IN LISTS benches)
  set(exe "${BENCH_DIR}/bench_${bench}")
  if(DEFINED args_${bench})
    set(args ${args_${bench}})
  else()
    set(args ${default_args})
  endif()
  execute_process(
    COMMAND "${exe}" ${args} --json-dir=${OUT_DIR}
    OUTPUT_QUIET
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "bench_${bench} ${args} failed with status ${status}")
  endif()
endforeach()

execute_process(
  COMMAND "${LEVYREPORT}" --check "${OUT_DIR}"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "levyreport --check found invalid documents in ${OUT_DIR}")
endif()

# The summary table doubles as a human-readable smoke log in the ctest
# output (and exercises the non-check reporting path).
execute_process(
  COMMAND "${LEVYREPORT}" "${OUT_DIR}"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "levyreport summary failed for ${OUT_DIR}")
endif()
