# zugchain_sim --fleet must reject the single-consist fault flags it
# cannot apply (--crash, --flap, --crash-primary-at-s) with exit code 2
# and an error naming the flag, instead of silently running without them.
#
#   cmake -DSIM=path/to/zugchain_sim -P sim_fleet_fault_flags_test.cmake
foreach(case "--crash;3:1" "--flap;4:3:lte" "--crash-primary-at-s;4")
  list(GET case 0 flag)
  execute_process(COMMAND ${SIM} --fleet 2 --duration-s 5 --json ${case}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "zugchain_sim --fleet 2 ${case}: exit ${rc}, want 2\n${err}")
  endif()
  string(FIND "${err}" "${flag} is not supported with --fleet" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "zugchain_sim --fleet 2 ${case}: error does not name ${flag}\n${err}")
  endif()
endforeach()
