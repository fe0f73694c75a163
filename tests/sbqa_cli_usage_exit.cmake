# sbqa_cli must reject a malformed numeric flag with the usage exit (2)
# instead of running on a half-parsed value: a value that does not parse
# whole, and an --omega outside [0, 1]. A well-formed run must still exit 0.
#
#   cmake -DSBQA_CLI=<path to sbqa_cli> -P tests/sbqa_cli_usage_exit.cmake

if(NOT SBQA_CLI)
  message(FATAL_ERROR "pass -DSBQA_CLI=<path to sbqa_cli>")
endif()

# A tiny population and horizon, so an accepted flag finishes at once.
set(small_run --volunteers=20 --duration=1 --json)

foreach(flag --omega=abc --omega=2 --omega=-0.5 --omega=0.5x --k=abc
             --volunteers=12x --duration=abc)
  execute_process(COMMAND ${SBQA_CLI} ${small_run} ${flag}
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
  if(NOT code STREQUAL "2")
    message(SEND_ERROR "sbqa_cli ${flag}: exit '${code}', expected 2")
  endif()
endforeach()

execute_process(COMMAND ${SBQA_CLI} ${small_run} --omega=0.5 --k=10
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(NOT code STREQUAL "0")
  message(SEND_ERROR "sbqa_cli --omega=0.5 --k=10: exit '${code}', expected 0")
endif()
