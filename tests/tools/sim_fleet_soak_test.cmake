# A fleet soak must honour the fleet settings a fleet run honours: an
# --adversary lands on train 0 (the report differs from the same soak
# without it, and the soak still exits 0: audit clean, no stuck alarm),
# and --store-dir persists every train's chain under DIR/train-<t>.
#
#   cmake -DSIM=path/to/zugchain_sim -DWORK=scratch/dir -P sim_fleet_soak_test.cmake
set(soak --fleet 2 --soak 0.1 --soak-segment-s 60 --cycle-ms 1024 --payload 256 --json)
file(REMOVE_RECURSE ${WORK})

execute_process(COMMAND ${SIM} ${soak} RESULT_VARIABLE rc OUTPUT_VARIABLE plain
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fleet soak: exit ${rc}, want 0\n${err}")
endif()

execute_process(COMMAND ${SIM} ${soak} --adversary equivocator:1 RESULT_VARIABLE rc
                OUTPUT_VARIABLE byzantine ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fleet soak --adversary equivocator:1: exit ${rc}, want 0\n${err}")
endif()
if(plain STREQUAL byzantine)
  message(FATAL_ERROR "fleet soak ignored --adversary: report unchanged\n${plain}")
endif()

execute_process(COMMAND ${SIM} ${soak} --store-dir ${WORK}/stores RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fleet soak --store-dir: exit ${rc}, want 0\n${err}")
endif()
if(NOT IS_DIRECTORY ${WORK}/stores/train-1/node-0)
  message(FATAL_ERROR "fleet soak --store-dir wrote no ${WORK}/stores/train-1/node-0")
endif()
file(REMOVE_RECURSE ${WORK})
