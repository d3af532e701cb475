# CTest smoke driver for factorhd_serve: pipes a scripted session through
# the line protocol and asserts the responses. Run as
#   cmake -DSERVE_BIN=<path> -P serve_smoke.cmake
# D=2048 keeps the 2-object roundtrip reliably exact (the D the CLI demo
# uses); smaller dims fail statistically, not through any serving bug.
set(script "model gen demo 3 8,4 2048 7
serve demo 8
listen 0
roundtrip 2
burst 12 1
listen stop
stats
stats prom
trace dump
stats reset
stats
quit
")

# execute_process has no INPUT_STRING; write the script to a temp file.
set(tmp ${CMAKE_CURRENT_BINARY_DIR}/serve_smoke_input.txt)
file(WRITE ${tmp} "${script}")
execute_process(
  COMMAND ${SERVE_BIN}
  INPUT_FILE ${tmp}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
file(REMOVE ${tmp})

if(NOT rc EQUAL 0)
  message(FATAL_ERROR "factorhd_serve exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()
foreach(needle
    "ok model demo"
    "ok serving demo"
    "ok listening on 127\\.0\\.0\\.1:"
    "ok listen stopped"
    "ok roundtrip exact"
    "ok burst 12 requests, 12 exact"
    "ok stats"
    "stage scan:"
    "dispatcher\\[0\\]:"
    "factorhd_stage_latency_us"
    "ok stats prom"
    "ok trace dump"
    "ok stats reset"
    "ok bye")
  if(NOT out MATCHES "${needle}")
    message(FATAL_ERROR "expected '${needle}' in serve output:\n${out}")
  endif()
endforeach()
if(out MATCHES "err:")
  message(FATAL_ERROR "serve session reported an error:\n${out}")
endif()
