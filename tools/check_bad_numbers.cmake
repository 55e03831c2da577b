# Runs indoor_tool with malformed numeric arguments, and with flags the
# command does not read: each must print the usage text and exit 2, not
# abort, not run with a truncated value and not run with a misspelt flag
# ignored. A well-formed control run must exit 0. Run by ctest:
#   cmake -DTOOL=<indoor_tool> -DWORK_DIR=<dir> -P check_bad_numbers.cmake

set(plan "${WORK_DIR}/bad_numbers_plan.txt")
execute_process(COMMAND "${TOOL}" gen --out "${plan}" --floors 1 --rooms 2
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "indoor_tool gen failed (${rc})")
endif()

# One case per entry, arguments separated by '|'. The first is the control.
set(cases
  "range|${plan}|3|1|5|--objects|10"
  "range|${plan}|abc|1|5"
  "distance|${plan}|1e999|1|2|2"
  "range|${plan}|3|1|5abc"
  "range|${plan}|3|1|5|--objects|-5"
  "knn|${plan}|3|1|2|--objects|2.5"
  "knn|${plan}|3|1|2|--seed|-1"
  "path|${plan}|nan|1|2|2"
  "stats|${plan}|--queries|1e3"
  "serve|${plan}|--requests|3|--query-log|${WORK_DIR}/bad_numbers.qlog|--slow-ms|-5"
  "gen|--out|${WORK_DIR}/bad_numbers_unused.txt|--floors|two"
  "build|${plan}|${WORK_DIR}/bad_numbers_unused.idx|--hierarchy|--cell-taget|4"
  "serve|${plan}|--requests|30|--bogus-flag|3"
)
set(expect 0)
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" argv "${case}")
  string(REPLACE "|" " " shown "${case}")
  execute_process(COMMAND "${TOOL}" ${argv} RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${expect}")
    message(FATAL_ERROR "indoor_tool ${shown}: exit ${rc}, expected ${expect}")
  endif()
  if(expect EQUAL 2 AND NOT err MATCHES "usage:")
    message(FATAL_ERROR "indoor_tool ${shown}: no usage text")
  endif()
  set(expect 2)
endforeach()
