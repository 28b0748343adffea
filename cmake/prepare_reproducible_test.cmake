# Reproducible-bundle test (ctest `lbectl_prepare_reproducible`): two
# identical `lbectl prepare` runs must write byte-identical bundles — every
# file, rank indexes included. Every "bundle byte-identical" contract rests
# on this: a raw-written struct with uninitialised padding would put heap
# noise on disk and into the section CRCs.
# Invoked as:
#   cmake -DLBECTL=<lbectl> -DWORK_DIR=<scratch> -P prepare_reproducible_test.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(COMMON --entries 30000 --ranks 4 --seed 2019)

foreach(run a b)
  execute_process(
    COMMAND ${LBECTL} prepare ${COMMON} --out ${WORK_DIR}/${run}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "lbectl prepare (run ${run}) failed (${status})")
  endif()
endforeach()

file(GLOB_RECURSE files_a RELATIVE ${WORK_DIR}/a ${WORK_DIR}/a/*)
file(GLOB_RECURSE files_b RELATIVE ${WORK_DIR}/b ${WORK_DIR}/b/*)
list(SORT files_a)
list(SORT files_b)
if(NOT files_a STREQUAL files_b)
  message(FATAL_ERROR
          "the two bundles hold different files:\n${files_a}\nvs\n${files_b}")
endif()
list(LENGTH files_a count)
if(count LESS 3)
  message(FATAL_ERROR "prepare wrote only ${count} files: ${files_a}")
endif()

foreach(file IN LISTS files_a)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/a/${file} ${WORK_DIR}/b/${file}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "prepare is not reproducible: ${file} differs")
  endif()
endforeach()
message(STATUS "two prepare runs wrote ${count} byte-identical files")
