# Open-search pruning acceptance test (ctest `lbectl_open_prune_equivalence`):
# the same open-window PTM workload searched with block-max span pruning on
# (the default) and off must write byte-identical psms.tsv — over a cold
# build, a warm (mapped) v5 bundle, and a fully open window. The
# pruned run must also actually prune: metrics.csv's spans_pruned +
# blocks_pruned columns must be nonzero, so the equivalence is not
# vacuously "pruning never fired".
# Invoked as:
#   cmake -DLBECTL=<lbectl> -DWORK_DIR=<scratch> -P open_prune_equivalence_test.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Coarse 1.0 Da bins keep many postings per bin, so bins span several
# 128-posting codec blocks and the per-block mass bounds have teeth.
set(COMMON --entries 20000 --num_queries 24 --ranks 2 --seed 2019
    --resolution 1.0 --ptm_fraction 0.5)

function(run_search label)
  execute_process(
    COMMAND ${LBECTL} search ${COMMON} ${ARGN} --out ${WORK_DIR}/${label}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "lbectl search (${label}) failed (${status})")
  endif()
endfunction()

function(require_identical a b what)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/${a}/psms.tsv ${WORK_DIR}/${b}/psms.tsv
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "psms.tsv differs: ${what}")
  endif()
  message(STATUS "psms.tsv identical: ${what}")
endfunction()

# Cold builds, wide window: pruning on vs off.
run_search(wide_on --open-window 100)
run_search(wide_off --open-window 100 --prune false)
require_identical(wide_on wide_off "wide window, prune on vs off (cold)")

# Fully open window: only the score-threshold half of pruning can fire.
run_search(inf_on --open-window inf)
run_search(inf_off --open-window inf --prune false)
require_identical(inf_on inf_off "open window, prune on vs off (cold)")

# Warm v5 bundle: bounds bound from the mapping must prune the same way
# the cold-built bounds did. The cold reference here re-runs
# against the SAME plan (synthetic query draws differ between the
# workload-linked and plan-db paths, so wide_on above is not comparable).
execute_process(
  COMMAND ${LBECTL} prepare ${COMMON} --out ${WORK_DIR}/prep
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "lbectl prepare failed (${status})")
endif()
run_search(cold_plan --open-window 100 --plan ${WORK_DIR}/prep/plan.lbe)
run_search(warm_mapped --open-window 100
           --plan ${WORK_DIR}/prep/plan.lbe --index ${WORK_DIR}/prep)
require_identical(cold_plan warm_mapped "cold vs warm-mapped (prune on)")
run_search(warm_off --open-window 100 --prune false
           --plan ${WORK_DIR}/prep/plan.lbe --index ${WORK_DIR}/prep)
require_identical(warm_mapped warm_off "warm bundle, prune on vs off")

# Anti-vacuity: the pruned wide-window run must report pruning work.
file(READ ${WORK_DIR}/wide_on/metrics.csv metrics)
string(REPLACE "\n" ";" metrics_lines "${metrics}")
list(GET metrics_lines 0 header)
if(NOT header MATCHES "spans_pruned" OR NOT header MATCHES "blocks_pruned")
  message(FATAL_ERROR "metrics.csv lacks pruning columns: ${header}")
endif()
set(total_pruned 0)
list(LENGTH metrics_lines line_count)
math(EXPR last_line "${line_count} - 1")
foreach(i RANGE 1 ${last_line})
  list(GET metrics_lines ${i} line)
  if(line STREQUAL "")
    continue()
  endif()
  # rank,entries,index_bytes,build_seconds,query_seconds,work_units,
  # spans_walked,spans_pruned,blocks_pruned,candidates_scored,...
  string(REPLACE "," ";" fields "${line}")
  list(GET fields 8 blocks_pruned)
  math(EXPR total_pruned "${total_pruned} + ${blocks_pruned}")
endforeach()
if(total_pruned EQUAL 0)
  message(FATAL_ERROR "wide-window pruned run pruned zero blocks")
endif()
message(STATUS "wide-window pruned run skipped ${total_pruned} blocks")
