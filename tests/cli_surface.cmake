# cli_surface.cmake — every bench, example and tool accepts exactly the
# flags it declares. Registered as the tier-1 ctest `cli_surface`:
#
#   cmake -DBUILD_DIR=<build> -P cli_surface.cmake
#
# For each binary (and subcommand): `--help` exits 0 and lists exactly the
# expected flags, and one flag outside that set exits non-zero with a
# message naming it. The expected sets are the flag groups of
# src/sim/experiment.h; a binary that starts honouring a group (or stops)
# must change its line here too. levylint keeps its own space-separated CLI
# (it already rejects unknown options) and is not listed.

if(NOT DEFINED BUILD_DIR)
  message(FATAL_ERROR "cli_surface.cmake: -DBUILD_DIR=... is required")
endif()

set(MC trials scale threads seed)
set(CSV csv)
set(CKPT checkpoint checkpoint-interval)
set(WATCHDOG max-steps-per-trial)
set(ENGINE engine cap)
set(SHARDING shards memory-budget spill-dir sync-rounds)
set(SERVING deadline-ms queue-capacity)
set(REPORT json json-dir trace)
set(TELEMETRY progress metrics-port)
set(BENCH_ALWAYS ${REPORT} ${TELEMETRY})

set(failures "")

# surface(<exe> [CMD <subcommand>] [FLAGS <flag>...] BAD <arg> [NAMES <flag>]
#         [SHOWS <--flag=default>...])
# SHOWS: help lines that must read exactly so (flag and shown default).
function(surface exe)
  cmake_parse_arguments(S "" "BAD;NAMES" "CMD;FLAGS;SHOWS" ${ARGN})
  set(label "${exe} ${S_CMD}")
  set(path "${BUILD_DIR}/${exe}")

  execute_process(COMMAND "${path}" ${S_CMD} --help
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 60)
  if(NOT rc EQUAL 0)
    list(APPEND failures "${label} --help exited ${rc}: ${err}")
  endif()
  string(REGEX MATCHALL "\n  --[a-z0-9-]+[= ]" lines "\n${out}")
  set(listed "")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^\n  --([a-z0-9-]+).*$" "\\1" flag "${line}")
    list(APPEND listed "${flag}")
  endforeach()
  set(expected ${S_FLAGS})
  list(SORT listed)
  list(SORT expected)
  if(NOT "${listed}" STREQUAL "${expected}")
    string(REPLACE ";" " " listed "${listed}")
    string(REPLACE ";" " " expected "${expected}")
    list(APPEND failures "${label} --help lists [${listed}], expected [${expected}]")
  endif()
  foreach(shown IN LISTS S_SHOWS)
    string(FIND "${out}" "\n  ${shown} " at)
    if(at EQUAL -1)
      list(APPEND failures "${label} --help does not show ${shown}")
    endif()
  endforeach()

  if(NOT DEFINED S_NAMES)
    string(REGEX REPLACE "^(--[^=]*).*$" "\\1" S_NAMES "${S_BAD}")
  endif()
  execute_process(COMMAND "${path}" ${S_CMD} ${S_BAD}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
  string(FIND "${err}" "${S_NAMES}" named)
  if(rc EQUAL 0 OR named EQUAL -1)
    list(APPEND failures "${label} ${S_BAD}: exit ${rc}, stderr does not name ${S_NAMES}: ${err}")
  endif()
  set(failures "${failures}" PARENT_SCOPE)
endfunction()

# --- benches -----------------------------------------------------------------
surface(bench/bench_e1_superdiffusive_hit BAD --shards=2
  FLAGS ${MC} ${CSV} ${CKPT} ${WATCHDOG} ${ENGINE} ${BENCH_ALWAYS})
foreach(b e2_early_hitting e3_eventual_hit e4_diffusive_hit e5_ballistic_hit)
  surface(bench/bench_${b} BAD --engine=scalar
    FLAGS ${MC} ${CKPT} ${WATCHDOG} ${BENCH_ALWAYS})
endforeach()
foreach(b e6_optimal_alpha e7_parallel_scaling e24_billion_walkers)
  surface(bench/bench_${b} BAD --csv=x
    FLAGS ${MC} ${CKPT} ${WATCHDOG} ${ENGINE} ${SHARDING} ${BENCH_ALWAYS})
endforeach()
foreach(b e8_random_exponent e18_strategy_ablation)
  surface(bench/bench_${b} BAD --cap=5
    FLAGS ${MC} ${CKPT} ${WATCHDOG} ${SHARDING} ${BENCH_ALWAYS})
endforeach()
foreach(b e9_ants_baselines e10_monotonicity e11_origin_visits e13_displacement
          e14_kleinberg e16_intermittent e17_foraging e19_torus_cauchy
          e20_first_passage e22_advice_tradeoff)
  surface(bench/bench_${b} BAD --max-steps-per-trial=5
    FLAGS ${MC} ${CKPT} ${BENCH_ALWAYS})
endforeach()
surface(bench/bench_e12_distributions BAD --checkpoint=d FLAGS ${MC} ${BENCH_ALWAYS})
surface(bench/bench_e15_micro BAD --trials=5 FLAGS ${REPORT})
surface(bench/bench_e21_exact_occupancy BAD --csv=x FLAGS ${BENCH_ALWAYS})
surface(bench/bench_e23_serve_load BAD --checkpoint=d FLAGS ${MC} ${SERVING} ${BENCH_ALWAYS})

# --- examples ----------------------------------------------------------------
surface(examples/quickstart BAD --seed=1)
foreach(e ants_problem direct_path_gallery torus_search)
  surface(examples/${e} BAD --checkpoint=d FLAGS ${MC})
endforeach()
foreach(e exponent_tuning foraging smallworld_routing)
  surface(examples/${e} BAD --json=x FLAGS ${MC} ${CKPT})
endforeach()

# --- tools -------------------------------------------------------------------
surface(tools/levysim BAD --alpha=2)
surface(tools/levysim CMD walk BAD --stpes=5 FLAGS alpha steps seed)
surface(tools/levysim CMD hit BAD --k=3 FLAGS alpha ell budget trials seed)
surface(tools/levysim CMD parallel BAD --steps=5 FLAGS k ell budget random alpha trials seed)
surface(tools/levysim CMD sweep BAD --budget=5 FLAGS k ell trials seed)
surface(tools/levysim CMD occupancy BAD --ell=3 FLAGS alpha steps radius)

surface(tools/levyserve CMD serve BAD --queue-capcity=3
  FLAGS port workers queue-capacity deadline-ms max-deadline-ms steps-per-ms trials seed
        cache cache-capacity cache-flush-every port-file fault-exit-at-cache-flush
        fault-throw-at-query
  SHOWS --fault-exit-at-cache-flush=never --fault-throw-at-query=never)
surface(tools/levyserve CMD replay BAD --requests=5 FLAGS port out batch count)
surface(tools/levyserve CMD loadgen BAD --out=x FLAGS port requests concurrency timeout path)
surface(tools/levyserve CMD selftest BAD --port=1 FLAGS dir)

surface(tools/levyfault CMD run BAD --shards=2
  FLAGS trials seed threads checkpoint checkpoint-interval crash-after cancel-after
        torn-write short-write max-steps-per-trial out
  SHOWS --crash-after=never --cancel-after=never --torn-write=never --short-write=never)
surface(tools/levyfault CMD shardrun BAD --checkpoint=x
  FLAGS trials seed threads kill-at-spill shards memory-budget spill-dir out
  SHOWS --kill-at-spill=never)
surface(tools/levyfault CMD selftest BAD --trials=3 FLAGS dir)
surface(tools/levyfault CMD shards BAD --trials=3 FLAGS dir)
surface(tools/levyfault CMD serve BAD --dir=x)

surface(tools/levytop BAD --port=abc FLAGS port host interval once raw)
surface(tools/levyreport BAD --bogus=1 FLAGS check fail-on-regression)

if(failures)
  list(JOIN failures "\n  " report)
  message(FATAL_ERROR "cli_surface: flag surface mismatches:\n  ${report}")
endif()
message(STATUS "cli_surface: every binary accepts exactly its declared flags")
