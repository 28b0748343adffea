# Warm-start acceptance test (ctest `lbectl_warm_start_identical`):
# prepare writes the plan + index bundle, then a warm `search --index` —
# which maps every rank file and materializes chunks lazily — must produce
# a byte-identical psms.tsv to a cold rebuild, at the default open window
# and at --open-window 0.05.
# Invoked as:
#   cmake -DLBECTL=<lbectl> -DWORK_DIR=<scratch> -P warm_start_test.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(COMMON --entries 12000 --num_queries 16 --ranks 4 --seed 2019)

execute_process(
  COMMAND ${LBECTL} prepare ${COMMON} --out ${WORK_DIR}/prep
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "lbectl prepare failed (${status})")
endif()

# At the default open window and at a narrow one (--open-window 0.05),
# where the precursor-first window path answers most queries.
foreach(window inf 0.05)
  execute_process(
    COMMAND ${LBECTL} search ${COMMON} --open-window ${window}
            --plan ${WORK_DIR}/prep/plan.lbe --out ${WORK_DIR}/cold_${window}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "cold lbectl search (window ${window}) failed (${status})")
  endif()

  execute_process(
    COMMAND ${LBECTL} search ${COMMON} --open-window ${window}
            --plan ${WORK_DIR}/prep/plan.lbe --index ${WORK_DIR}/prep
            --out ${WORK_DIR}/warm_${window}
    OUTPUT_VARIABLE warm_output
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "warm lbectl search (window ${window}) failed (${status})")
  endif()
  if(NOT warm_output MATCHES "warm start: loaded .* \\(mmap, lazy chunks\\)")
    message(FATAL_ERROR
            "warm search (window ${window}) did not report a mapped warm "
            "start:\n${warm_output}")
  endif()

  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/cold_${window}/psms.tsv
            ${WORK_DIR}/warm_${window}/psms.tsv
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "warm-start (window ${window}) psms.tsv differs from the cold "
            "rebuild")
  endif()
  message(STATUS
          "warm-start (window ${window}) psms.tsv is byte-identical to the "
          "cold rebuild")
endforeach()
