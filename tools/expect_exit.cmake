# Runs EXE with the space-separated ARGS; fails unless it exits with EXPECT
# and, when PATTERN is non-empty, its stdout+stderr match PATTERN.
#   cmake -DEXE=... -DARGS="lint --model mlp" -DEXPECT=0 [-DPATTERN=re] -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "rannc ${ARGS}: exit ${rc}, expected ${EXPECT}\n${out}${err}")
endif()
if(PATTERN AND NOT "${out}${err}" MATCHES "${PATTERN}")
  message(FATAL_ERROR "rannc ${ARGS}: output does not match '${PATTERN}'\n${out}${err}")
endif()
