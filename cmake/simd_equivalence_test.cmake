# SIMD equivalence acceptance test (ctest `lbectl_simd_equivalence`):
# one prepared v4 bundle, searched warm at every decode kernel the CPU
# supports (--simd scalar/sse/avx2 over the mapped path), must produce a
# psms.tsv byte-identical to a cold rebuild over the same plan, whose
# postings are raw u32 and never pass through any decode kernel.
# Unsupported levels are skipped with a notice — lbectl clamps them to the
# best available kernel, so a cmp there would only re-test the fallback.
# Invoked as:
#   cmake -DLBECTL=<lbectl> -DWORK_DIR=<scratch> -P simd_equivalence_test.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(COMMON --entries 12000 --num_queries 16 --ranks 4 --seed 2019)

execute_process(
  COMMAND ${LBECTL} prepare ${COMMON} --out ${WORK_DIR}/prep
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "lbectl prepare failed (${status})")
endif()

# Baseline: the cold rebuild, searching the freshly built raw u32
# postings with no decode at all. Byte-identity against this run proves
# both the codec kernels and the lazy mapped path change nothing
# observable.
execute_process(
  COMMAND ${LBECTL} search ${COMMON} --plan ${WORK_DIR}/prep/plan.lbe
          --out ${WORK_DIR}/baseline
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "baseline cold lbectl search failed (${status})")
endif()

foreach(simd_level scalar sse avx2)
  execute_process(
    COMMAND ${LBECTL} search ${COMMON} --plan ${WORK_DIR}/prep/plan.lbe
            --index ${WORK_DIR}/prep --simd ${simd_level}
            --out ${WORK_DIR}/simd_${simd_level}
    OUTPUT_VARIABLE search_output
    ERROR_VARIABLE search_stderr
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "lbectl search --simd ${simd_level} failed (${status})")
  endif()
  if(search_stderr MATCHES "not supported by this CPU")
    message(STATUS
            "simd level '${simd_level}' unsupported on this CPU; skipped")
    continue()
  endif()
  if(NOT search_output MATCHES "warm start: loaded")
    message(FATAL_ERROR
            "search --simd ${simd_level} did not report a warm start:\n"
            "${search_output}")
  endif()

  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/baseline/psms.tsv
            ${WORK_DIR}/simd_${simd_level}/psms.tsv
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "--simd ${simd_level} psms.tsv differs from the cold baseline")
  endif()
  message(STATUS
          "--simd ${simd_level} psms.tsv is byte-identical to the cold "
          "baseline")
endforeach()
