# Backend-equivalence acceptance test (ctest `lbectl_backend_equivalence`):
# the same search run over every rank transport — virtual (token-serialized
# simulation), threads (real concurrent threads), process (one forked OS
# worker per rank over Unix-domain sockets) — must produce a byte-identical
# psms.tsv. Covers both the cold start (the process backend stages a bundle
# under out_dir) and the warm start (all backends mmap the prepared bundle).
# Invoked as:
#   cmake -DLBECTL=<lbectl> -DWORK_DIR=<scratch> -P backend_equivalence_test.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(COMMON --entries 12000 --num_queries 16 --ranks 4 --seed 2019)

# --- cold start: no prepared bundle anywhere -------------------------------
foreach(backend virtual threads process)
  execute_process(
    COMMAND ${LBECTL} search ${COMMON} --backend ${backend}
            --out ${WORK_DIR}/cold_${backend}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "cold lbectl search --backend ${backend} failed (${status})")
  endif()
endforeach()

foreach(backend threads process)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/cold_virtual/psms.tsv
            ${WORK_DIR}/cold_${backend}/psms.tsv
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "cold --backend ${backend} psms.tsv differs from --backend "
            "virtual")
  endif()
  message(STATUS
          "cold --backend ${backend} psms.tsv is byte-identical to virtual")
endforeach()

# The process backend must report real wire traffic in metrics.csv: every
# worker rank ships at least its result batches and stats, so comm_messages
# must be nonzero for some rank.
file(READ ${WORK_DIR}/cold_process/metrics.csv metrics)
if(NOT metrics MATCHES "comm_messages")
  message(FATAL_ERROR "metrics.csv is missing the comm_messages column")
endif()
set(saw_comm_traffic FALSE)
string(REPLACE "\n" ";" metrics_lines "${metrics}")
foreach(line IN LISTS metrics_lines)
  # rank,entries,index_bytes,build_s,query_s,work,comm_messages,comm_bytes,rss
  if(line MATCHES "^[0-9]+,([0-9.e+-]+,)+")
    string(REPLACE "," ";" fields "${line}")
    list(GET fields 6 comm_messages)
    if(comm_messages GREATER 0)
      set(saw_comm_traffic TRUE)
    endif()
  endif()
endforeach()
if(NOT saw_comm_traffic)
  message(FATAL_ERROR
          "process backend reported zero comm_messages on every rank")
endif()
message(STATUS "process backend reported real comm traffic in metrics.csv")

# --- warm start: every backend over one prepared, mmap'd bundle ------------
execute_process(
  COMMAND ${LBECTL} prepare ${COMMON} --out ${WORK_DIR}/prep
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "lbectl prepare failed (${status})")
endif()

# The warm baseline: a cold rebuild over the *prepared plan* (the plan's
# stored database, not this invocation's synthetic one). Run at the default
# open window and at a narrow one (--open-window 0.05), where the
# precursor-first window path answers most queries.
foreach(window inf 0.05)
  execute_process(
    COMMAND ${LBECTL} search ${COMMON} --open-window ${window}
            --plan ${WORK_DIR}/prep/plan.lbe --out ${WORK_DIR}/plan_cold_${window}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "plan-based cold lbectl search (window ${window}) failed (${status})")
  endif()

  foreach(backend virtual threads process)
    set(label warm_${backend}_${window})
    execute_process(
      COMMAND ${LBECTL} search ${COMMON} --open-window ${window}
              --plan ${WORK_DIR}/prep/plan.lbe
              --index ${WORK_DIR}/prep --backend ${backend}
              --out ${WORK_DIR}/${label}
      OUTPUT_VARIABLE warm_output
      RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "warm lbectl search (${label}) failed (${status})")
    endif()
    if(NOT warm_output MATCHES "warm start: loaded")
      message(FATAL_ERROR
              "warm search (${label}) did not report a warm start:\n"
              "${warm_output}")
    endif()

    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              ${WORK_DIR}/plan_cold_${window}/psms.tsv
              ${WORK_DIR}/${label}/psms.tsv
      RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR
              "warm --backend ${backend} psms.tsv (window ${window}) differs "
              "from the cold rebuild over the same plan")
    endif()
    message(STATUS
            "warm --backend ${backend} psms.tsv (window ${window}) is "
            "byte-identical to the cold rebuild over the same plan")
  endforeach()
endforeach()
