# Run BENCH (with the ;-separated ARGS) and fail unless its stdout is
# byte-identical to the GOLDEN file. On a mismatch the actual output
# is left next to the test as ACTUAL for a `diff -u GOLDEN ACTUAL`.
#
#   cmake -DBENCH=<exe> [-DARGS=<args>] -DGOLDEN=<file> -DACTUAL=<file>
#         -P compare_stdout.cmake

execute_process(COMMAND ${BENCH} ${ARGS}
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
