# CLI-level distributed digest gate, run as a ctest:
#   cmake -DCLI=<greenhpc binary> -DWORKDIR=<scratch dir> -P distributed_digest.cmake
#
# Runs the same small sweep single-process and with 2 worker processes and
# requires the two printed digests to be bit-identical — the coordinator
# contract observable from the outside, with no test hooks.

if(NOT DEFINED CLI OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DCLI=... -DWORKDIR=... -P distributed_digest.cmake")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

set(SWEEP_ARGS sweep --quiet --regions DE,FR --kinds average --nodes 64
    --jobs 60 --days 1 --replicas 2 --sched easy,carbon-easy,conservative --block 4)

function(run_sweep out_var)
  execute_process(
    COMMAND ${CLI} ${SWEEP_ARGS} ${ARGN}
    WORKING_DIRECTORY "${WORKDIR}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sweep ${ARGN} exited ${rc}:\n${out}\n${err}")
  endif()
  string(REGEX MATCH "digest: ([0-9a-f]+)" _ "${out}")
  if(NOT CMAKE_MATCH_1)
    message(FATAL_ERROR "sweep ${ARGN} printed no digest line:\n${out}")
  endif()
  set(${out_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

run_sweep(single)
run_sweep(distributed --workers 2)

if(NOT single STREQUAL distributed)
  message(FATAL_ERROR "distributed sweep digest diverged: single-process "
                      "${single} vs --workers 2 ${distributed}")
endif()
message(STATUS "digest ${single} bit-identical single-process and --workers 2")
