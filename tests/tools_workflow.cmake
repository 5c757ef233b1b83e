# CTest script: end-to-end CLI workflow integration test.
#
# Drives the tools exactly as a user would:
#   leaps-sim   → raw logs (text and binary)
#   leaps-train → detector file (with calibration), byte-identical across
#                 log dialects and thread counts
#   leaps-scan  → exit 3 on the malicious log, exit 0 on the benign log
#   leaps-serve → concurrent replay of both logs, same verdict contract
# Any deviation fails the test.
#
# Variables (passed with -D): LEAPS_SIM, LEAPS_TRAIN, LEAPS_SCAN,
# LEAPS_STAT, LEAPS_SERVE, LEAPS_ROLLOVER, WORK_DIR.

function(run_checked expect_rc)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR "command [${ARGN}] exited ${rc} (expected "
                        "${expect_rc})\nstdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# --- text-format round ----------------------------------------------------
run_checked(0 ${LEAPS_SIM} vim_reverse_tcp_online ${WORK_DIR}
            --events 3000 --seed 99)
run_checked(0 ${LEAPS_TRAIN} ${WORK_DIR}/benign.log ${WORK_DIR}/mixed.log
            ${WORK_DIR}/detector.txt --folds 5 --max-false-alarms 0.05)
run_checked(3 ${LEAPS_SCAN} ${WORK_DIR}/detector.txt
            ${WORK_DIR}/malicious.log)
run_checked(0 ${LEAPS_SCAN} ${WORK_DIR}/detector.txt ${WORK_DIR}/benign.log)

# --- binary-format round (same detector must accept both) ------------------
file(MAKE_DIRECTORY ${WORK_DIR}/bin)
run_checked(0 ${LEAPS_SIM} vim_reverse_tcp_online ${WORK_DIR}/bin
            --events 3000 --seed 99 --binary)
run_checked(3 ${LEAPS_SCAN} ${WORK_DIR}/detector.txt
            ${WORK_DIR}/bin/malicious.log)

# --- determinism: one detector file, byte for byte ---------------------------
# Training on the binary dialect of the same logs, or on one thread instead
# of the pool, must write exactly the text round's detector file.
run_checked(0 ${LEAPS_TRAIN} ${WORK_DIR}/bin/benign.log
            ${WORK_DIR}/bin/mixed.log ${WORK_DIR}/bin/detector.txt
            --folds 5 --max-false-alarms 0.05)
run_checked(0 ${LEAPS_TRAIN} ${WORK_DIR}/benign.log ${WORK_DIR}/mixed.log
            ${WORK_DIR}/detector_t1.txt --folds 5 --max-false-alarms 0.05
            --threads 1)
file(SHA256 ${WORK_DIR}/detector.txt text_sha)
foreach(other ${WORK_DIR}/bin/detector.txt ${WORK_DIR}/detector_t1.txt)
  file(SHA256 ${other} other_sha)
  if(NOT other_sha STREQUAL text_sha)
    message(FATAL_ERROR "${other} differs from ${WORK_DIR}/detector.txt "
                        "(${other_sha} vs ${text_sha})")
  endif()
endforeach()

# --- stats tool over both formats -------------------------------------------
run_checked(0 ${LEAPS_STAT} ${WORK_DIR}/benign.log ${WORK_DIR}/bin/mixed.log)
run_checked(1 ${LEAPS_STAT} /nonexistent.log)

# --- concurrent serving round ----------------------------------------------
# Mixed fleet: malicious sessions must flip the exit code to 3; a clean
# fleet exits 0. Both text- and binary-format logs replay through the server.
run_checked(3 ${LEAPS_SERVE} ${WORK_DIR}/detector.txt
            ${WORK_DIR}/malicious.log ${WORK_DIR}/benign.log
            ${WORK_DIR}/bin/malicious.log --workers 2 --sessions 4)
run_checked(0 ${LEAPS_SERVE} ${WORK_DIR}/detector.txt ${WORK_DIR}/benign.log
            --workers 2 --policy drop-oldest --json)

# --- observability flags -----------------------------------------------------
# Every tool honours --trace-out / --profile / --metrics-out without
# changing its verdict, and the outputs are machine-readable: the trace is
# a chrome://tracing event array, the metrics file is Prometheus text
# exposition (or JSON when the path ends in .json).
run_checked(0 ${LEAPS_SCAN} ${WORK_DIR}/detector.txt ${WORK_DIR}/benign.log
            --profile --trace-out ${WORK_DIR}/scan_trace.json
            --metrics-out ${WORK_DIR}/scan_metrics.json)
run_checked(3 ${LEAPS_SERVE} ${WORK_DIR}/detector.txt
            ${WORK_DIR}/malicious.log ${WORK_DIR}/benign.log --workers 2
            --metrics-out ${WORK_DIR}/serve_metrics.prom)

# A `.json` metrics path switches to the JSON exposition.
file(READ ${WORK_DIR}/scan_metrics.json metrics_json)
if(NOT metrics_json MATCHES "^{" OR
   NOT metrics_json MATCHES "\"leaps_ingest_events_total\"")
  message(FATAL_ERROR "--metrics-out *.json did not produce JSON metrics:\n"
                      "${metrics_json}")
endif()

# Trace export: a JSON array of "X" complete events.
file(READ ${WORK_DIR}/scan_trace.json trace_json)
if(NOT trace_json MATCHES "^\\[" OR NOT trace_json MATCHES "\"ph\":\"X\"")
  message(FATAL_ERROR "--trace-out did not produce a trace-event array:\n"
                      "${trace_json}")
endif()

# Prometheus exposition: # TYPE headers, `name value` sample lines, and —
# because the server registers onto the shared registry — both serving and
# ingest counters in the one scrape document.
file(READ ${WORK_DIR}/serve_metrics.prom prom)
foreach(needle
        "# TYPE leaps_serve_events_ingested_total counter"
        "# TYPE leaps_ingest_events_total counter"
        "leaps_serve_queue_wait_us_bucket{le=\"+Inf\"}"
        "leaps_serve_queue_wait_us_count")
  string(FIND "${prom}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "metrics file missing '${needle}':\n${prom}")
  endif()
endforeach()
string(REGEX REPLACE "\n$" "" prom_body "${prom}")
string(REPLACE "\n" ";" prom_lines "${prom_body}")
foreach(line ${prom_lines})
  # Values may be floats: summary metrics (decision-value quantiles,
  # _sum) export alongside the integer counters and gauges.
  if(NOT line MATCHES "^# (HELP|TYPE) " AND
     NOT line MATCHES
       "^[a-zA-Z_:][a-zA-Z0-9_:]*({[^}]*})? -?[0-9]+(\\.[0-9]+)?([eE][-+]?[0-9]+)?$")
    message(FATAL_ERROR "bad Prometheus exposition line: '${line}'")
  endif()
endforeach()

# --- online learning / rollover round ---------------------------------------
# leaps-serve --online over two replay rounds of benign traffic: round 1
# accumulates classified-benign windows and the inter-round poll triggers a
# warm-started retrain + shadow deploy; round 2 streams through both
# detectors; the final poll clears the gates and promotes via the RCU swap.
# The metrics JSON must show the whole story: >= 1 retrain cycle, > 0 SMO
# iterations saved by the warm start, >= 1 promotion, no rollback, zero
# dropped events.
run_checked(0 ${LEAPS_SERVE} ${WORK_DIR}/detector.txt ${WORK_DIR}/benign.log
            --workers 2 --online --online-replays 2 --retrain-events 1
            --admit-floor 0 --shadow-min-windows 2 --shadow-max-disagree 1.0
            --shadow-max-latency 1000000
            --metrics-out ${WORK_DIR}/online_metrics.json)
file(READ ${WORK_DIR}/online_metrics.json online_json)
foreach(needle
        "\"leaps_online_retrain_cycles_total\":{\"type\":\"counter\",\"value\":[1-9]"
        "\"leaps_online_warm_iterations_saved_total\":{\"type\":\"counter\",\"value\":[1-9]"
        "\"leaps_online_promotions_total\":{\"type\":\"counter\",\"value\":[1-9]"
        "\"leaps_online_rollbacks_total\":{\"type\":\"counter\",\"value\":0"
        "\"leaps_serve_events_dropped_total\":{\"type\":\"counter\",\"value\":0")
  string(REGEX MATCH "${needle}" found "${online_json}")
  if(found STREQUAL "")
    message(FATAL_ERROR "online metrics missing/mismatching '${needle}':\n"
                        "${online_json}")
  endif()
endforeach()

# Offline rollover tooling against the same detector. retrain must report a
# warm start that saves iterations and write a loadable candidate; the
# candidate then shadows the incumbent over live-like traffic and promotes.
run_checked(0 ${LEAPS_ROLLOVER} retrain ${WORK_DIR}/detector.txt
            ${WORK_DIR}/benign.log ${WORK_DIR}/candidate.txt)
# max-disagree 0.1 absorbs churn on the incumbent's calibrated false
# alarms (up to 5%) while still gating real verdict drift.
run_checked(0 ${LEAPS_ROLLOVER} shadow ${WORK_DIR}/detector.txt
            ${WORK_DIR}/candidate.txt ${WORK_DIR}/benign.log
            --shadow-min-windows 2 --shadow-max-disagree 0.1
            --shadow-max-latency 1000000)
run_checked(0 ${LEAPS_ROLLOVER} diff ${WORK_DIR}/detector.txt
            ${WORK_DIR}/detector.txt ${WORK_DIR}/benign.log)

# Rollback drill: a deliberately broken candidate (all-malicious) must trip
# the disagreement gate on benign traffic and exit 4.
run_checked(0 ${LEAPS_ROLLOVER} drill ${WORK_DIR}/detector.txt
            ${WORK_DIR}/broken.txt)
run_checked(4 ${LEAPS_ROLLOVER} shadow ${WORK_DIR}/detector.txt
            ${WORK_DIR}/broken.txt ${WORK_DIR}/benign.log
            --shadow-min-windows 2)

# --- campaign / auditd / attribution round ----------------------------------
# A multi-stage APT campaign emitted in the auditd dialect must flow
# through every tool unchanged (stat, train, scan, serve all sniff the
# format), and the attribution pipeline must name the campaign: the true
# signature at rank 1 with both permuted decoys scoring strictly lower —
# online (leaps-serve --attrib, surfaced in --status-json) and offline
# (leaps-attrib match over the audit JSONL).
file(MAKE_DIRECTORY ${WORK_DIR}/camp ${WORK_DIR}/camp/sigs)
run_checked(0 ${LEAPS_SIM} campaign_putty_apt ${WORK_DIR}/camp
            --events 4000 --seed 7 --auditd)
run_checked(0 ${LEAPS_STAT} ${WORK_DIR}/camp/benign.log)
run_checked(0 ${LEAPS_TRAIN} ${WORK_DIR}/camp/benign.log
            ${WORK_DIR}/camp/mixed.log ${WORK_DIR}/camp/detector.txt
            --folds 5 --max-false-alarms 0.02)
run_checked(3 ${LEAPS_SCAN} ${WORK_DIR}/camp/detector.txt
            ${WORK_DIR}/camp/malicious.log)
run_checked(0 ${LEAPS_ATTRIB} derive campaign_putty_apt ${WORK_DIR}/camp/sigs
            --decoys)
run_checked(3 ${LEAPS_SERVE} ${WORK_DIR}/camp/detector.txt
            ${WORK_DIR}/camp/mixed.log --attrib ${WORK_DIR}/camp/sigs
            --audit-out ${WORK_DIR}/camp/audit.jsonl
            --status-json ${WORK_DIR}/camp/status.json --workers 2)

file(READ ${WORK_DIR}/camp/status.json camp_status)
if(NOT camp_status MATCHES "\"type\":\"AttributionVerdict\"" OR
   NOT camp_status MATCHES "\"signature\":\"campaign_putty_apt\"")
  message(FATAL_ERROR "--status-json carries no AttributionVerdict:\n"
                      "${camp_status}")
endif()

execute_process(COMMAND ${LEAPS_ATTRIB} match ${WORK_DIR}/camp/audit.jsonl
                ${WORK_DIR}/camp/sigs
                RESULT_VARIABLE rc OUTPUT_VARIABLE attrib_out
                ERROR_VARIABLE attrib_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "leaps-attrib match exited ${rc}:\n${attrib_out}\n"
                      "${attrib_err}")
endif()
string(REGEX MATCH "rank=1 signature=campaign_putty_apt score=([0-9.]+)"
       rank1 "${attrib_out}")
if(rank1 STREQUAL "")
  message(FATAL_ERROR "true signature is not rank 1:\n${attrib_out}")
endif()
set(true_score ${CMAKE_MATCH_1})
string(REGEX MATCH "rank=2 signature=campaign_putty_apt__[a-z]+ "
       rank2 "${attrib_out}")
if(rank2 STREQUAL "")
  message(FATAL_ERROR "rank 2 is not a decoy:\n${attrib_out}")
endif()
# Scores print as fixed-width %.6f, so lexicographic comparison is
# numeric comparison; the decoys must be STRICTLY below the true score.
foreach(decoy __reversed __rotated)
  string(REGEX MATCH
         "signature=campaign_putty_apt${decoy} score=([0-9.]+)"
         found "${attrib_out}")
  if(found STREQUAL "")
    message(FATAL_ERROR "decoy ${decoy} missing from ranking:\n${attrib_out}")
  endif()
  if(NOT CMAKE_MATCH_1 STRLESS true_score)
    message(FATAL_ERROR "decoy ${decoy} (${CMAKE_MATCH_1}) does not score "
                        "strictly below the true signature (${true_score}):\n"
                        "${attrib_out}")
  endif()
endforeach()

# --- help and version flags --------------------------------------------------
foreach(tool ${LEAPS_SIM} ${LEAPS_TRAIN} ${LEAPS_SCAN} ${LEAPS_STAT}
        ${LEAPS_SERVE})
  run_checked(0 ${tool} --help)
  run_checked(0 ${tool} --version)
endforeach()

# --- error handling ---------------------------------------------------------
run_checked(2 ${LEAPS_SIM} no_such_scenario ${WORK_DIR})
run_checked(2 ${LEAPS_SCAN} ${WORK_DIR}/detector.txt)
run_checked(1 ${LEAPS_SCAN} ${WORK_DIR}/detector.txt /nonexistent.log)
run_checked(2 ${LEAPS_SCAN} ${WORK_DIR}/detector.txt ${WORK_DIR}/benign.log
            --no-such-option)
run_checked(2 ${LEAPS_SERVE} ${WORK_DIR}/detector.txt)
run_checked(2 ${LEAPS_SERVE} ${WORK_DIR}/detector.txt ${WORK_DIR}/benign.log
            --policy bogus)

message(STATUS "tools workflow OK")
