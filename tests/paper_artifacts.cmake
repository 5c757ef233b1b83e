# CTest script: the paper's evaluation, pinned.
#
# Runs bench_paper (Table I, Figures 6/7 and Figure 5) at the default
# configuration and requires
#   * exit status 0;
#   * the paper's shape claims: WSVM >= SVM and WSVM >= CGraph on 13/13
#     offline-infection and 8/8 online-injection datasets;
#   * stdout byte-identical to the expected file;
#   * every Table I "Measured" cell in EXPERIMENTS.md equal to the pinned
#     row, so the prose cannot drift from the code.
# Changing the expected file is a re-record, documented in CHANGES.md (see
# EXPERIMENTS.md); the shape claims hold the re-record to the paper.
#
# Variables (passed with -D): LEAPS_BENCH_PAPER, EXPECTED, EXPERIMENTS_MD,
# WORK_DIR.

# The pinned output is the default configuration's: the size knobs (CI sets
# LEAPS_FAST=1 for the rest of the suite) would shrink the run, and
# LEAPS_CSV_DIR adds "(CSV -> ...)" lines.
foreach(knob LEAPS_FAST LEAPS_RUNS LEAPS_EVENTS LEAPS_FOLDS LEAPS_CSV_DIR)
  unset(ENV{${knob}})
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(actual ${WORK_DIR}/paper_artifacts.txt)
execute_process(COMMAND ${LEAPS_BENCH_PAPER} RESULT_VARIABLE rc
                OUTPUT_FILE ${actual} ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${LEAPS_BENCH_PAPER} exited ${rc}\nstderr:\n${err}")
endif()

file(READ ${actual} out)
foreach(shape "13/13 datasets; WSVM >= CGraph on 13/13"
              "8/8 datasets; WSVM >= CGraph on 8/8")
  string(FIND "${out}" "shape check: WSVM >= SVM on ${shape} " pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "the paper's shape claim fails: ${actual} lacks "
                        "'shape check: WSVM >= SVM on ${shape}'")
  endif()
endforeach()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${actual}
                        ${EXPECTED} RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "bench_paper output ${actual} differs from the pinned "
                      "${EXPECTED}; a deliberate change is a re-record "
                      "documented in CHANGES.md")
endif()

# Table I rows: "<name>  <attack method>  ACC PPV TPR TNR NPV".
file(STRINGS ${EXPECTED} rows
     REGEX "^[^ ]+ +(Offline Infection|Online Injection) +[0-9]")
list(LENGTH rows n_rows)
if(NOT n_rows EQUAL 21)
  message(FATAL_ERROR "${EXPECTED} holds ${n_rows} Table I rows, not 21")
endif()
file(READ ${EXPERIMENTS_MD} doc)
set(stale "")
foreach(row IN LISTS rows)
  string(REGEX MATCH
         "^([^ ]+) +[A-Za-z ]+ ([0-9.]+) +([0-9.]+) +([0-9.]+) +([0-9.]+) +([0-9.]+)$"
         matched "${row}")
  string(CONCAT cell "| ${CMAKE_MATCH_1} | ${CMAKE_MATCH_2} / "
         "${CMAKE_MATCH_3} / ${CMAKE_MATCH_4} / ${CMAKE_MATCH_5} / "
         "${CMAKE_MATCH_6} |")
  string(FIND "${doc}" "${cell}" pos)
  if(NOT matched OR pos EQUAL -1)
    string(APPEND stale "\n  ${row}")
  endif()
endforeach()
if(stale)
  message(FATAL_ERROR "EXPERIMENTS.md's Table I does not show these pinned "
                      "rows of ${EXPECTED}:${stale}")
endif()
