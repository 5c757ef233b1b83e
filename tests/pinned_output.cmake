# Shared steps of the pinned-output ctest scripts (paper_artifacts.cmake,
# extension_artifacts.cmake): run a bench binary at the default
# configuration and require
#   * exit status 0;
#   * every REQUIRE substring (the shape claims) in its stdout, and no
#     FORBID substring;
#   * stdout byte-identical to the pinned file.
# Each script then holds its own document's cells to the pinned file.
#
#   leaps_pinned_run(<binary> <expected> <work_dir>
#                    [REQUIRE <substring>...] [FORBID <substring>...])

function(leaps_pinned_run binary expected work_dir)
  # PARSE_ARGV keeps the semicolons inside a shape line.
  cmake_parse_arguments(PARSE_ARGV 3 ARG "" "" "REQUIRE;FORBID")
  # The pinned output is the default configuration's: the size knobs (CI
  # sets LEAPS_FAST=1 for the rest of the suite) would shrink the run, and
  # LEAPS_CSV_DIR adds "(CSV -> ...)" lines.
  foreach(knob LEAPS_FAST LEAPS_RUNS LEAPS_EVENTS LEAPS_FOLDS LEAPS_CSV_DIR)
    unset(ENV{${knob}})
  endforeach()

  file(REMOVE_RECURSE ${work_dir})
  file(MAKE_DIRECTORY ${work_dir})
  get_filename_component(name ${expected} NAME)
  set(actual ${work_dir}/${name})
  execute_process(COMMAND ${binary} RESULT_VARIABLE rc
                  OUTPUT_FILE ${actual} ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${binary} exited ${rc}\nstderr:\n${err}")
  endif()

  file(READ ${actual} out)
  foreach(needle IN LISTS ARG_REQUIRE)
    string(FIND "${out}" "${needle}" pos)
    if(pos EQUAL -1)
      message(FATAL_ERROR "a shape claim fails: ${actual} lacks "
                          "'${needle}'")
    endif()
  endforeach()
  foreach(needle IN LISTS ARG_FORBID)
    string(FIND "${out}" "${needle}" pos)
    if(NOT pos EQUAL -1)
      message(FATAL_ERROR "a shape claim fails: ${actual} shows "
                          "'${needle}'")
    endif()
  endforeach()

  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${actual}
                          ${expected} RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${binary} output ${actual} differs from the pinned "
                        "${expected}; a deliberate change is a re-record "
                        "documented in CHANGES.md")
  endif()
endfunction()
