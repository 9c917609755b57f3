# zugchain_sim must reject a malformed node id or a fault configuration
# that names a node outside the consist with exit code 2, instead of
# running a different scenario or aborting on an uncaught exception.
#
#   cmake -DSIM=path/to/zugchain_sim -P sim_bad_config_test.cmake
foreach(args "--crash;2:x" "--crash;2:9" "--adversary;equivocator:9")
  execute_process(COMMAND ${SIM} --duration-s 5 --json ${args}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "zugchain_sim ${args}: exit ${rc}, want 2\n${err}")
  endif()
endforeach()
