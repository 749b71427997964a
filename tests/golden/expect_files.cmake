# Run BENCH (with the ;-separated ARGS) in WORKDIR and fail unless it
# exits 0 and leaves every file named in the ;-separated FILES there,
# non-empty. Copies left by an earlier run are removed first.
#
#   cmake -DBENCH=<exe> [-DARGS=<args>] -DWORKDIR=<dir> -DFILES=<names>
#         -P expect_files.cmake

file(MAKE_DIRECTORY ${WORKDIR})
foreach(name IN LISTS FILES)
    file(REMOVE ${WORKDIR}/${name})
endforeach()

execute_process(COMMAND ${BENCH} ${ARGS}
    WORKING_DIRECTORY ${WORKDIR}
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${rc}")
endif()

foreach(name IN LISTS FILES)
    if(NOT EXISTS ${WORKDIR}/${name})
        message(FATAL_ERROR "${BENCH} ${ARGS} wrote no ${name}")
    endif()
    file(SIZE ${WORKDIR}/${name} size)
    if(size EQUAL 0)
        message(FATAL_ERROR "${BENCH} ${ARGS} wrote an empty ${name}")
    endif()
endforeach()
