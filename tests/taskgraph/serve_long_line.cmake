# Send t3d-serve one request line a byte past its 16 MiB cap, then a
# valid job, on stdin. The long line must get a typed error, and the
# job after it must still be answered.
#
#   cmake -DSERVE=<t3d-serve> -DINPUT=<scratch file>
#         -P serve_long_line.cmake

string(REPEAT "x" 16777217 long_line)
file(WRITE ${INPUT} "${long_line}\n"
    "{\"id\":\"after\",\"graph\":{\"tasks\":[{\"id\":\"a\"}]}}\n")
execute_process(COMMAND ${SERVE} --quiet
    INPUT_FILE ${INPUT}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
file(REMOVE ${INPUT})
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "t3d-serve exited with ${rc}")
endif()
if(NOT out MATCHES "{\"id\":\"\\?\",\"ok\":false,\"error\":\"request line longer than 16777216 bytes\"}\n")
    message(FATAL_ERROR "no line-length error in:\n${out}")
endif()
if(NOT out MATCHES "{\"id\":\"after\",\"ok\":true,")
    message(FATAL_ERROR "the job after the long line was not answered:\n${out}")
endif()
