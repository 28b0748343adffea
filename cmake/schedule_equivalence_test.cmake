# Schedule-equivalence acceptance test (ctest `lbectl_schedule_equivalence`):
# work stealing is a pure execution-order change — the same search run with
# --schedule stealing must produce a psms.tsv byte-identical to
# --schedule lbe_static, on every rank transport. The merge's strict total
# order over global PSM ids is what makes this hold no matter which rank
# executed which batch or how a victim/thief race resolved; this script is
# the end-to-end check that no layer between the CLI and the wire breaks it.
# The batch size is kept small so the queue is deep enough for grants to
# actually fire when scheduling jitter allows (byte-identity must hold
# whether or not any batch migrates).
# Invoked as:
#   cmake -DLBECTL=<lbectl> -DWORK_DIR=<scratch> -P schedule_equivalence_test.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(COMMON --entries 12000 --num_queries 32 --ranks 4 --batch 4 --seed 2019)

# At the default open window and at a narrow one (--open-window 0.05),
# where the precursor-first window path answers most queries.
foreach(window inf 0.05)
  foreach(backend virtual threads process)
    execute_process(
      COMMAND ${LBECTL} search ${COMMON} --open-window ${window}
              --backend ${backend} --schedule lbe_static --out ${WORK_DIR}/static_${backend}_${window}
      RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR
              "lbectl search --schedule lbe_static --backend ${backend} "
              "failed (${status})")
    endif()

    execute_process(
      COMMAND ${LBECTL} search ${COMMON} --open-window ${window}
              --backend ${backend} --schedule stealing --steal_threshold 1.0
              --out ${WORK_DIR}/stealing_${backend}_${window}
      RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR
              "lbectl search --schedule stealing --backend ${backend} "
              "failed (${status})")
    endif()

    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              ${WORK_DIR}/static_${backend}_${window}/psms.tsv
              ${WORK_DIR}/stealing_${backend}_${window}/psms.tsv
      RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR
              "--schedule stealing psms.tsv differs from lbe_static on "
              "--backend ${backend} (window ${window})")
    endif()
    message(STATUS
            "--backend ${backend}, window ${window}: stealing psms.tsv is "
            "byte-identical to lbe_static")
  endforeach()
endforeach()

# The stealing run must surface its scheduling telemetry: metrics.csv gains
# the batches_stolen and cost-model error columns.
file(READ ${WORK_DIR}/stealing_virtual_inf/metrics.csv metrics)
foreach(column batches_stolen predicted_cost pred_rel_err_mean)
  if(NOT metrics MATCHES "${column}")
    message(FATAL_ERROR "metrics.csv is missing the ${column} column")
  endif()
endforeach()
message(STATUS "stealing metrics.csv carries the scheduling columns")
