# CTest script: the extension studies, pinned.
#
# Runs bench_extensions (§VI-A source trojans + CFG alignment, §VI-B HMM
# sequence models, §III-D-2 alternative classifiers, §II-B-2 universal
# classifier, campaigns + attribution) at the default configuration
# through leaps_pinned_run (pinned_output.cmake: exit status 0, stdout
# byte-identical to the expected file) and requires
#   * the studies' shape claims: aligned WSVM >= unaligned on 4/4, WHMM >=
#     HMM and >= SVM on 5/5, the universal WSVM within 0.10 of the
#     dedicated ones on 3/4, and the true signature at rank 1 on every
#     campaign (no "(WRONG)");
#   * every row of EXPERIMENTS.md's extension tables equal to its pinned
#     row, each looked up under the "### <section>" heading the pinned
#     "== <section>" header names, so the prose cannot drift from the code;
#   * one evaluation protocol: on every scenario both the §VI-B and the
#     §III-D-2 table name, §III-D-2's WSVM and W-HMM cells equal §VI-B's
#     WSVM and WHMM cells.
# Changing the expected file is a re-record, documented in CHANGES.md (see
# EXPERIMENTS.md); the shape claims hold the re-record to the studies.
#
# Variables (passed with -D): LEAPS_BENCH_EXTENSIONS, EXPECTED,
# EXPERIMENTS_MD, WORK_DIR.

include(${CMAKE_CURRENT_LIST_DIR}/pinned_output.cmake)
leaps_pinned_run(${LEAPS_BENCH_EXTENSIONS} ${EXPECTED} ${WORK_DIR}
  REQUIRE
    "shape check: aligned WSVM >= unaligned WSVM on 4/4 source-trojan "
    "shape check: CFG-weighted HMM >= unweighted HMM on 5/5; >= plain SVM on 5/5\n"
    "shape check: universal within 0.10 ACC of dedicated on 3/4 "
  FORBID
    "(WRONG)")

file(READ ${EXPERIMENTS_MD} doc)

# The EXPERIMENTS.md text under "### <key> ", up to the next heading.
function(doc_section key out)
  string(FIND "${doc}" "\n### ${key} " begin)
  if(begin EQUAL -1)
    message(FATAL_ERROR "EXPERIMENTS.md has no '### ${key} ' heading")
  endif()
  string(SUBSTRING "${doc}" ${begin} -1 rest)
  string(SUBSTRING "${rest}" 1 -1 rest)
  string(FIND "${rest}" "\n#" end)
  string(SUBSTRING "${rest}" 0 ${end} text)
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

# Each pinned row becomes the EXPERIMENTS.md table row that must show it:
#   §VI-A     | <dataset> | <CGraph> | <SVM> | <WSVM> | <WSVM+A> |   (ACC)
#   §VI-B     | <name> | <CGraph> | <SVM> | <WSVM> | <HMM> | <WHMM> |
#   §III-D-2  | <name> | <W-LR> | <W-Tree> | <W-RF> | <WSVM> | <W-HMM> |
#   §II-B-2   | <name> | <universal> | <dedicated> | <gap> |  and
#             | POOLED | <ACC> |
#   Campaign  | <name> | <ACC> | <PPV> | <TPR> | <TNR> | <rank-1> | <score>
#             | <margin> |
# with minus signs spelled U+2212, as the prose spells them.
set(num "([-+]?[0-9]+[.][0-9]+)")
file(STRINGS ${EXPECTED} lines ENCODING UTF-8)
set(key "")
set(stale "")
set(shared 0)
set(apart "")
foreach(line IN LISTS lines)
  set(cell "")
  if(line MATCHES "^== ([^ ]+) ")
    set(key ${CMAKE_MATCH_1})
    doc_section(${key} text)
    string(REPLACE "§" "" id "${key}")  # variable names stay ASCII
    set(cells_${id} 0)
  elseif(key STREQUAL "§VI-A" AND
         line MATCHES "^([^ ]+) +(CGraph|SVM|WSVM|WSVM[+]A) +${num} ")
    set(acc_${CMAKE_MATCH_2} ${CMAKE_MATCH_3})
    if(CMAKE_MATCH_2 STREQUAL "WSVM+A")
      string(CONCAT cell "| ${CMAKE_MATCH_1} | ${acc_CGraph} | "
             "${acc_SVM} | ${acc_WSVM} | ${acc_WSVM+A} |")
    endif()
  elseif((key STREQUAL "§VI-B" OR key STREQUAL "§III-D-2") AND
         line MATCHES "^([^ ]+) +${num} +${num} +${num} +${num} +${num}$")
    string(CONCAT cell "| ${CMAKE_MATCH_1} | ${CMAKE_MATCH_2} | "
           "${CMAKE_MATCH_3} | ${CMAKE_MATCH_4} | ${CMAKE_MATCH_5} | "
           "${CMAKE_MATCH_6} |")
    # One protocol: §III-D-2's WSVM and W-HMM are §VI-B's WSVM and WHMM.
    if(key STREQUAL "§VI-B")
      set(vib_${CMAKE_MATCH_1} "${CMAKE_MATCH_4} ${CMAKE_MATCH_6}")
    elseif(DEFINED vib_${CMAKE_MATCH_1})
      math(EXPR shared "${shared} + 1")
      if(NOT "${CMAKE_MATCH_5} ${CMAKE_MATCH_6}" STREQUAL
         "${vib_${CMAKE_MATCH_1}}")
        string(APPEND apart "\n  ${CMAKE_MATCH_1}: §III-D-2 WSVM/W-HMM "
               "${CMAKE_MATCH_5} ${CMAKE_MATCH_6}, §VI-B WSVM/WHMM "
               "${vib_${CMAKE_MATCH_1}}")
      endif()
    endif()
  elseif(key STREQUAL "§II-B-2" AND line MATCHES
         "^  ([^ ]+) +ACC ${num}  [(]dedicated ${num}, gap ${num}[)]$")
    string(CONCAT cell "| ${CMAKE_MATCH_1} | ${CMAKE_MATCH_2} | "
           "${CMAKE_MATCH_3} | ${CMAKE_MATCH_4} |")
  elseif(key STREQUAL "§II-B-2" AND line MATCHES "^  POOLED +ACC ${num}$")
    set(cell "| POOLED | ${CMAKE_MATCH_1} |")
  elseif(key STREQUAL "Campaign" AND line MATCHES
         "^([^ ]+) +${num} +${num} +${num} +${num}  ([^ ]+) +${num} +${num}$")
    string(CONCAT cell "| ${CMAKE_MATCH_1} | ${CMAKE_MATCH_2} | "
           "${CMAKE_MATCH_3} | ${CMAKE_MATCH_4} | ${CMAKE_MATCH_5} | "
           "${CMAKE_MATCH_6} | ${CMAKE_MATCH_7} | ${CMAKE_MATCH_8} |")
  endif()
  if(cell)
    string(REPLACE "-" "−" cell "${cell}")
    math(EXPR cells_${id} "${cells_${id}} + 1")
    string(FIND "${text}" "${cell}" pos)
    if(pos EQUAL -1)
      string(APPEND stale "\n  ${key}: ${cell}")
    endif()
  endif()
endforeach()

foreach(expect "VI-A=4" "VI-B=5" "III-D-2=3" "II-B-2=5" "Campaign=4")
  string(REPLACE "=" ";" expect "${expect}")
  list(GET expect 0 id)
  list(GET expect 1 want)
  if(NOT "${cells_${id}}" EQUAL want)
    message(FATAL_ERROR "${EXPECTED} holds '${cells_${id}}' rows of "
                        "section ${id}, not ${want}")
  endif()
endforeach()
if(shared EQUAL 0 OR apart)
  message(FATAL_ERROR "${EXPECTED}: §III-D-2 must show §VI-B's WSVM and "
                      "WHMM cells on every shared scenario (${shared} "
                      "shared):${apart}")
endif()
if(stale)
  message(FATAL_ERROR "EXPERIMENTS.md's extension tables do not show these "
                      "pinned rows of ${EXPECTED}:${stale}")
endif()
