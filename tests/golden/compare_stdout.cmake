# Run BENCH (with the ;-separated ARGS) and fail unless its stdout is
# byte-identical to the GOLDEN file. On a mismatch the actual output
# is left next to the test as ACTUAL for a `diff -u GOLDEN ACTUAL`.
# With JSON, BENCH runs in WORKDIR and the report JSON it writes there
# must also be byte-identical to GOLDEN_JSON; a stale report from an
# earlier run is removed first.
#
#   cmake -DBENCH=<exe> [-DARGS=<args>] -DGOLDEN=<file> -DACTUAL=<file>
#         [-DWORKDIR=<dir> -DJSON=<name> -DGOLDEN_JSON=<file>]
#         -P compare_stdout.cmake

if(NOT WORKDIR)
    set(WORKDIR ${CMAKE_CURRENT_BINARY_DIR})
endif()
if(JSON)
    file(MAKE_DIRECTORY ${WORKDIR})
    file(REMOVE ${WORKDIR}/${JSON})
endif()

execute_process(COMMAND ${BENCH} ${ARGS}
    WORKING_DIRECTORY ${WORKDIR}
    OUTPUT_VARIABLE actual
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${rc}")
endif()

file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    file(WRITE ${ACTUAL} "${actual}")
    message(FATAL_ERROR "stdout of ${BENCH} ${ARGS} differs from the "
                        "golden; see: diff -u ${GOLDEN} ${ACTUAL}")
endif()

if(JSON)
    if(NOT EXISTS ${WORKDIR}/${JSON})
        message(FATAL_ERROR "${BENCH} ${ARGS} wrote no ${JSON}")
    endif()
    file(READ ${WORKDIR}/${JSON} actual_json)
    file(READ ${GOLDEN_JSON} expected_json)
    if(NOT actual_json STREQUAL expected_json)
        message(FATAL_ERROR "${JSON} of ${BENCH} ${ARGS} differs from "
                            "the golden; see: diff -u ${GOLDEN_JSON} "
                            "${WORKDIR}/${JSON}")
    endif()
endif()
