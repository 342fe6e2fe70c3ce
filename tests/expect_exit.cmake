# Runs EXE with ARGS (one space-separated string) and passes only when it
# exits with status EXIT and its standard error matches STDERR_REGEX. A
# PASS_REGULAR_EXPRESSION alone ignores the exit status, so it would also
# pass a program that prints the message and then aborts.
#
#   cmake -DEXE=prog -DARGS="--reps abc" -DEXIT=2 -DSTDERR_REGEX=... -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE stderr)
if(NOT status STREQUAL "${EXIT}")
  message(FATAL_ERROR "${EXE} ${ARGS}: exit status '${status}', want ${EXIT}\n"
                      "stderr: ${stderr}")
endif()
if(NOT stderr MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "${EXE} ${ARGS}: stderr does not match "
                      "'${STDERR_REGEX}'\nstderr: ${stderr}")
endif()
