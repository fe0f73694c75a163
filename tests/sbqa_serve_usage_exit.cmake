# sbqa_serve must reject a malformed numeric flag with the usage exit (2)
# instead of serving on a half-parsed value. A well-formed run must still
# exit 0.
#
#   cmake -DSBQA_SERVE=<path to sbqa_serve> -P tests/sbqa_serve_usage_exit.cmake

if(NOT SBQA_SERVE)
  message(FATAL_ERROR "pass -DSBQA_SERVE=<path to sbqa_serve>")
endif()

# A few queries at a high rate over a tiny population, so an accepted flag
# finishes at once.
set(small_run --queries=50 --rate=1000 --providers=4 --json)

foreach(flag --queries=50x --queries=abc --rate=abc --shards=2x)
  execute_process(COMMAND ${SBQA_SERVE} ${small_run} ${flag}
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code STREQUAL "2")
    message(SEND_ERROR "sbqa_serve ${flag}: exit '${code}', expected 2")
  elseif(NOT err MATCHES "usage: sbqa_serve")
    message(SEND_ERROR "sbqa_serve ${flag}: exit 2 without the usage")
  endif()
endforeach()

execute_process(COMMAND ${SBQA_SERVE} ${small_run}
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(NOT code STREQUAL "0")
  message(SEND_ERROR "sbqa_serve ${small_run}: exit '${code}', expected 0")
endif()
