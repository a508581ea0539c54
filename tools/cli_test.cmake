# End-to-end smoke test of stj_cli, driven by ctest:
#   generate -> prepare -> relate -> join (find-relation and predicate modes,
#   in memory, with --shard-dir, and over prepared sides), plus the
#   malformed-input exit paths (strict vs permissive loading, aprilcheck,
#   corrupt and mismatched prepared sides, per-command flag lists, distinct
#   exit codes).
# Invoked as: cmake -DCLI=<path-to-stj_cli> -DWORK=<scratch-dir> -P cli_test.cmake

if(NOT DEFINED CLI OR NOT DEFINED WORK)
  message(FATAL_ERROR "pass -DCLI=... and -DWORK=...")
endif()
file(MAKE_DIRECTORY ${WORK})

function(run_checked)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

# Runs a command that must exit with code ${expect_rc} and whose stderr must
# match ${expect_err} (a regex; "" skips the check).
function(run_expect expect_rc expect_err)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR
            "expected exit ${expect_rc}, got ${rc}: ${ARGN}\n${out}\n${err}")
  endif()
  if(NOT expect_err STREQUAL "" AND NOT err MATCHES "${expect_err}")
    message(FATAL_ERROR
            "stderr of ${ARGN} does not match '${expect_err}':\n${err}")
  endif()
endfunction()

# Runs a command that must be rejected before it reads any input: exit
# ${expect_rc}, stderr matching ${expect_err}, nothing on stdout and no
# `[load]` or `[april]` line on stderr.
function(run_rejected expect_rc expect_err)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR
            "expected exit ${expect_rc}, got ${rc}: ${ARGN}\n${out}\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "rejected run printed to stdout: ${ARGN}\n${out}")
  endif()
  if(err MATCHES "\\[load\\]")
    message(FATAL_ERROR "rejected run loaded an input: ${ARGN}\n${err}")
  endif()
  if(err MATCHES "\\[april\\]")
    message(FATAL_ERROR "rejected run built approximations: ${ARGN}\n${err}")
  endif()
  if(NOT err MATCHES "${expect_err}")
    message(FATAL_ERROR
            "stderr of ${ARGN} does not match '${expect_err}':\n${err}")
  endif()
endfunction()

# generate two small datasets
run_checked(${CLI} generate OLE ${WORK}/ole.wkt --scale=0.01 --seed=3)
run_checked(${CLI} generate OPE ${WORK}/ope.wkt --scale=0.01 --seed=3)
foreach(f ole.wkt ope.wkt)
  if(NOT EXISTS ${WORK}/${f})
    message(FATAL_ERROR "missing ${f}")
  endif()
endforeach()

# generate formats slices of about 2^16 vertices on --threads workers and
# writes them in order: the file's bytes do not depend on the thread count
# (OPE at 0.05 has about 430,000 vertices, so 4 workers format more than one
# round of slices).
foreach(spec "OPE;0.01" "OPE;0.05")
  list(GET spec 0 name)
  list(GET spec 1 scale)
  foreach(threads 1 4)
    run_checked(${CLI} generate ${name} ${WORK}/gen_${threads}.wkt
                --scale=${scale} --seed=5 --threads=${threads})
  endforeach()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${WORK}/gen_1.wkt ${WORK}/gen_4.wkt
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "generate ${name} wrote different bytes at 1 and 4 threads")
  endif()
endforeach()

# generate says where its time went: one [generate] and one [write] line.
run_expect(0 "\\[generate\\] OBE: 2500 objects, [0-9]+ vertices in [0-9.]+s\n\\[write\\] [^\n]*obe_blocks\\.wkt: [0-9.]+ MB in [0-9.]+s\n"
           ${CLI} generate OBE ${WORK}/obe_blocks.wkt --scale=0.05 --seed=3)

# prepare writes both sides as shard sets over their joint grid: the files
# are the same at any --threads, and both sets pass aprilcheck.
foreach(threads 1 4)
  file(REMOVE_RECURSE ${WORK}/prep_t${threads})
  run_expect(0 "\\[april\\] built 70/70 \\+ 90/90 [^\n]*\n\\[shard\\] [^\n]*/r: [0-9]+ tiles"
             ${CLI} prepare ${WORK}/ole.wkt ${WORK}/ope.wkt ${WORK}/prep_t${threads}
             --grid-order=10 --partition-units=2000 --threads=${threads})
endforeach()
foreach(side r s)
  file(GLOB prep_files RELATIVE ${WORK}/prep_t1/${side} ${WORK}/prep_t1/${side}/*)
  list(LENGTH prep_files prep_file_count)
  if(prep_file_count LESS 3)
    message(FATAL_ERROR "expected several tiles under prep_t1/${side}: ${prep_files}")
  endif()
  foreach(f ${prep_files})
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${WORK}/prep_t1/${side}/${f}
                            ${WORK}/prep_t4/${side}/${f}
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "prepare wrote ${side}/${f} differently at 1 and 4 threads")
    endif()
  endforeach()
  run_expect(0 "shard set, .* 0 corrupt" ${CLI} aprilcheck ${WORK}/prep_t4/${side})
endforeach()

# relate two inline polygons
execute_process(
  COMMAND ${CLI} relate "POLYGON ((0 0, 4 0, 4 4, 0 4))"
          "POLYGON ((1 1, 2 1, 2 2, 1 2))"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "contains")
  message(FATAL_ERROR "relate failed: ${out}")
endif()

# find-relation join, and a predicate join; both methods must agree on count
execute_process(COMMAND ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt
                --method=pc --grid-order=10
                RESULT_VARIABLE rc OUTPUT_VARIABLE pc_out ERROR_VARIABLE pc_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pc join failed")
endif()
# One `[load]` line per input.
string(REGEX MATCHALL
       "\\[load\\] [^\n]*: [0-9]+ objects, [0-9]+ vertices, [0-9.]+ MB in [0-9.]+s"
       load_lines "${pc_err}")
list(LENGTH load_lines load_count)
if(NOT load_count EQUAL 2)
  message(FATAL_ERROR "join printed ${load_count} [load] lines, expected 2:\n${pc_err}")
endif()
# The prepared-cache line: per-side lookups, and the indexes built for them.
if(NOT pc_err MATCHES
   "\\[join\\] prepared cache: [0-9]+ hits / [0-9]+ misses, [0-9]+ built\n")
  message(FATAL_ERROR "join printed no 'prepared cache: H hits / M misses, B built' line:\n${pc_err}")
endif()
execute_process(COMMAND ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt
                --method=st2 --grid-order=10
                RESULT_VARIABLE rc OUTPUT_VARIABLE st2_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "st2 join failed")
endif()
if(NOT pc_out STREQUAL st2_out)
  message(FATAL_ERROR "P+C and ST2 joins disagree:\n--- P+C\n${pc_out}\n--- ST2\n${st2_out}")
endif()

execute_process(COMMAND ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt
                --method=pc --predicate=inside --grid-order=10
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "predicate join failed")
endif()

# The in-memory join builds approximations only for the objects its filter
# reads, after the MBR filter: "[april] built R/total + S/total". ST2 reads
# none, so it builds and charges nothing, and a 1 MB budget (which the lists
# of these inputs at grid order 16 overflow) still answers every pair.
run_checked(${CLI} generate OLE ${WORK}/ole11.wkt --scale=0.02 --seed=11)
run_checked(${CLI} generate OPE ${WORK}/ope11.wkt --scale=0.02 --seed=11)
execute_process(COMMAND ${CLI} join ${WORK}/ole11.wkt ${WORK}/ope11.wkt
                --method=st2 --grid-order=16
                RESULT_VARIABLE rc OUTPUT_VARIABLE st2_free_out
                ERROR_VARIABLE st2_free_err)
if(NOT rc EQUAL 0 OR st2_free_out STREQUAL "")
  message(FATAL_ERROR "unbudgeted st2 join failed (${rc}):\n${st2_free_err}")
endif()
execute_process(COMMAND ${CLI} join ${WORK}/ole11.wkt ${WORK}/ope11.wkt
                --method=st2 --max-memory-mb=1 --grid-order=16
                RESULT_VARIABLE rc OUTPUT_VARIABLE st2_budget_out
                ERROR_VARIABLE st2_budget_err)
if(NOT rc EQUAL 0 OR NOT st2_budget_out STREQUAL st2_free_out)
  message(FATAL_ERROR "budgeted st2 join (${rc}) differs from the unbudgeted one:\n${st2_budget_err}")
endif()
if(NOT st2_budget_err MATCHES
   "\\[filter\\] [^\n]*\n\\[april\\] built 0/[0-9]+ \\+ 0/[0-9]+ approximations")
  message(FATAL_ERROR "st2 join built approximations, or before the filter:\n${st2_budget_err}")
endif()
execute_process(COMMAND ${CLI} join ${WORK}/ole11.wkt ${WORK}/ope11.wkt
                --method=pc --max-memory-mb=1 --grid-order=16
                RESULT_VARIABLE rc ERROR_VARIABLE pc_budget_err)
if(NOT rc EQUAL 9 OR NOT pc_budget_err MATCHES "stopped during preprocessing")
  message(FATAL_ERROR "a P+C join over the budget must stop while building (${rc}):\n${pc_budget_err}")
endif()
# The prepare half of --shard-dir gives back the budget its freed lists
# held, so under a budget the prepared join of these inputs fits in, the
# --shard-dir join answers every pair too.
file(REMOVE_RECURSE ${WORK}/prep16 ${WORK}/shards16)
run_checked(${CLI} prepare ${WORK}/ole11.wkt ${WORK}/ope11.wkt ${WORK}/prep16
            --grid-order=16)
execute_process(COMMAND ${CLI} join ${WORK}/prep16/r ${WORK}/prep16/s
                --shard-cache-mb=1 --max-memory-mb=16
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out STREQUAL st2_free_out)
  message(FATAL_ERROR "a prepared join under a 16 MB budget failed (${rc}):\n${err}")
endif()
execute_process(COMMAND ${CLI} join ${WORK}/ole11.wkt ${WORK}/ope11.wkt
                --grid-order=16 --shard-dir=${WORK}/shards16 --shard-cache-mb=1
                --max-memory-mb=16
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out STREQUAL st2_free_out)
  message(FATAL_ERROR "a --shard-dir join under the budget its prepared join fits in failed (${rc}):\n${err}")
endif()

# Canonical output: the links come out sorted by (r, s), so the serial loop
# and the 4-thread block loop print the same bytes, and --time-stages adds
# its stage summary to stderr only.
foreach(threads 1 4)
  execute_process(COMMAND ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt
                  --method=pc --grid-order=10 --threads=${threads}
                  --time-stages
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out_${threads}
                  ERROR_VARIABLE err_${threads})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--threads=${threads} join failed:\n${err_${threads}}")
  endif()
  if(NOT err_${threads} MATCHES "\\[join\\] stages: filter")
    message(FATAL_ERROR "--time-stages summary missing:\n${err_${threads}}")
  endif()
endforeach()
if(NOT out_1 STREQUAL out_4 OR NOT out_1 STREQUAL pc_out)
  message(FATAL_ERROR "join output depends on --threads:\n--- threads=1\n${out_1}\n--- threads=4\n${out_4}")
endif()

# ---- out-of-core sharded join ----

# The sharded join under a deliberately tiny cache budget must print exactly
# the bytes of the in-memory join, and its --time-stages run must surface
# both the shard telemetry and the decoded-record cache counters (the
# sharded path reads compressed APRIL, so the decoded cache engages).
execute_process(COMMAND ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt
                --method=pc --grid-order=10 --shard-dir=${WORK}/shards
                --shard-cache-mb=1 --threads=2 --time-stages
                RESULT_VARIABLE rc OUTPUT_VARIABLE shard_out
                ERROR_VARIABLE shard_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sharded join failed (${rc}):\n${shard_err}")
endif()
if(NOT pc_out STREQUAL shard_out)
  message(FATAL_ERROR "sharded join diverged from in-memory join:\n--- in-memory\n${pc_out}\n--- sharded\n${shard_out}")
endif()
if(shard_err MATCHES "degraded")
  message(FATAL_ERROR "a healthy sharded join reported degraded pairs:\n${shard_err}")
endif()
if(NOT shard_err MATCHES "\\[shard\\] .*/r: .* tiles" OR
   NOT shard_err MATCHES "tasks, .* loads / .* hits")
  message(FATAL_ERROR "sharded join missing shard telemetry:\n${shard_err}")
endif()
if(NOT shard_err MATCHES "\\[join\\] decoded cache: .* hits / .* misses")
  message(FATAL_ERROR "sharded --time-stages missing decoded-cache stats:\n${shard_err}")
endif()

# Shard files are written and tile pairs joined on the --threads workers:
# the shard sets and the links must not depend on the thread count.
foreach(threads 1 4)
  execute_process(COMMAND ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt
                  --method=pc --grid-order=10
                  --shard-dir=${WORK}/shards_t${threads} --shard-cache-mb=1
                  --partition-units=2000 --threads=${threads}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE shard_out_${threads}
                  ERROR_VARIABLE shard_err_${threads})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sharded join at --threads=${threads} failed (${rc}):\n${shard_err_${threads}}")
  endif()
endforeach()
if(NOT shard_out_1 STREQUAL pc_out OR NOT shard_out_4 STREQUAL pc_out)
  message(FATAL_ERROR "sharded join output depends on --threads")
endif()
foreach(side r s)
  file(GLOB shard_files RELATIVE ${WORK}/shards_t1/${side} ${WORK}/shards_t1/${side}/*)
  list(LENGTH shard_files shard_file_count)
  if(shard_file_count LESS 3)
    message(FATAL_ERROR "expected several tiles under shards_t1/${side}: ${shard_files}")
  endif()
  foreach(f ${shard_files})
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${WORK}/shards_t1/${side}/${f}
                            ${WORK}/shards_t4/${side}/${f}
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "shard file ${side}/${f} differs at 1 and 4 threads")
    endif()
  endforeach()
endforeach()

# A join over prepared sides prints the bytes of the in-memory and the
# --shard-dir joins, at every --threads.
foreach(threads 1 4)
  execute_process(COMMAND ${CLI} join ${WORK}/prep_t1/r ${WORK}/prep_t1/s
                  --shard-cache-mb=1 --threads=${threads}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE prep_out
                  ERROR_VARIABLE prep_err)
  if(NOT rc EQUAL 0 OR NOT prep_out STREQUAL pc_out OR
     NOT prep_out STREQUAL shard_out)
    message(FATAL_ERROR "prepared join at --threads=${threads} (${rc}) differs from the in-memory join:\n${prep_err}")
  endif()
  if(prep_err MATCHES "\\[load\\]|\\[april\\]" OR
     NOT prep_err MATCHES "\\[join\\] [0-9]+ links .*sharded")
    message(FATAL_ERROR "prepared join loaded or built, or printed no [join] line:\n${prep_err}")
  endif()
endforeach()

# Sides prepared on different grids cannot be joined: exit 12, naming both
# grids.
file(REMOVE_RECURSE ${WORK}/prep_11)
run_checked(${CLI} prepare ${WORK}/ole.wkt ${WORK}/ope.wkt ${WORK}/prep_11
            --grid-order=11)
run_rejected(12 "prep_t1/r has grid order 10 over .*prep_11/s has grid order 11 over"
             ${CLI} join ${WORK}/prep_t1/r ${WORK}/prep_11/s)

# Both join arguments are WKT files or both prepared sides, and a prepared
# join reads only its own flags: exit 2, naming the flag and the command.
run_rejected(2 "two WKT files or two prepared shard sets"
             ${CLI} join ${WORK}/prep_t1/r ${WORK}/ope.wkt)
run_rejected(2 "two WKT files or two prepared shard sets"
             ${CLI} join ${WORK}/ole.wkt ${WORK}/prep_t1/s)
foreach(flag --grid-order=10 --predicate=inside --permissive
        --shard-dir=${WORK}/shards4 --partition-units=5)
  string(REGEX REPLACE "=.*" "" flag_name "${flag}")
  run_rejected(2 "join over prepared sides does not read ${flag_name}"
               ${CLI} join ${WORK}/prep_t1/r ${WORK}/prep_t1/s ${flag})
endforeach()

# A shard set of another version is bad data (exit 4), for aprilcheck and
# the join alike.
file(REMOVE_RECURSE ${WORK}/prep_v1)
file(COPY ${WORK}/prep_t1/r DESTINATION ${WORK}/prep_v1)
execute_process(
  COMMAND sh -c "printf '\\001' | dd of='${WORK}/prep_v1/r/manifest.stj' bs=1 seek=4 count=1 conv=notrunc status=none"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cannot patch the manifest version")
endif()
run_expect(4 "unsupported manifest version 1" ${CLI} aprilcheck ${WORK}/prep_v1/r)
run_expect(4 "unsupported manifest version 1"
           ${CLI} join ${WORK}/prep_v1/r ${WORK}/prep_t1/s)

# aprilcheck understands shard manifests: the directory and the manifest
# path both route to the shard-set audit; any other path has no manifest
# (exit 3).
run_expect(0 "shard set, .* 0 corrupt" ${CLI} aprilcheck ${WORK}/shards/r)
run_expect(0 "shard set, .* 0 corrupt"
           ${CLI} aprilcheck ${WORK}/shards/s/manifest.stj)

run_expect(3 "ole.wkt/manifest.stj" ${CLI} aprilcheck ${WORK}/ole.wkt)
run_expect(3 "no_such_dir/manifest.stj" ${CLI} aprilcheck ${WORK}/no_such_dir)

# Shard corruption is a distinct failure class: exit 11, naming the tile.
file(APPEND ${WORK}/shards/r/tile_000000.shard "garbage past the layout")
run_expect(11 "tile 0:" ${CLI} aprilcheck ${WORK}/shards/r)

# Predicate mode is not sharded — find-relation only; exit 2 (usage),
# before the inputs are loaded.
run_rejected(2 "--predicate cannot be combined with --shard-dir"
             ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt --predicate=inside
             --shard-dir=${WORK}/shards2)
if(EXISTS ${WORK}/shards2)
  message(FATAL_ERROR "a rejected sharded join must not write shards")
endif()

# ---- malformed-input exit paths ----

# A dataset with one good line, one parse error, one repairable line
# (duplicated consecutive vertex), and one unrepairable line (zero area).
file(WRITE ${WORK}/dirty.wkt
"POLYGON ((0 0, 4 0, 4 4, 0 4))
POLYGON ((0 zero, 1 0, 1 1))
POLYGON ((10 10, 12 10, 12 10, 12 12, 10 12))
POLYGON ((5 5, 6 6, 5 5, 6 6))
")

file(WRITE ${WORK}/unit_square.wkt "POLYGON ((0 0, 1 0, 1 1, 0 1))\n")

# Strict load: exit 4 (bad data), message names file, line 2, and the offset.
file(REMOVE_RECURSE ${WORK}/dirty_prep)  # scratch dir is reused across runs
run_expect(4 "dirty.wkt:2.*expected"
           ${CLI} prepare ${WORK}/dirty.wkt ${WORK}/unit_square.wkt
           ${WORK}/dirty_prep)
if(EXISTS ${WORK}/dirty_prep)
  message(FATAL_ERROR "strict load must not produce an output")
endif()

# Permissive load: succeeds on the clean remainder and reports the triage.
run_expect(0 "1 repaired, 2 skipped"
           ${CLI} prepare ${WORK}/dirty.wkt ${WORK}/unit_square.wkt
           ${WORK}/dirty_prep --permissive)
if(NOT EXISTS ${WORK}/dirty_prep/r/manifest.stj OR
   NOT EXISTS ${WORK}/dirty_prep/s/manifest.stj)
  message(FATAL_ERROR "permissive load must produce both shard sets")
endif()

# A ring of zero area is bad data too: a strict load fails naming the file
# and line (exit 4), as does a `relate` argument with one. Permissive loads
# drop such a hole (and answer as if it were absent) or skip such a polygon.
file(WRITE ${WORK}/flat_hole.wkt
     "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 3 1, 1 1))\n")
file(WRITE ${WORK}/flat_outer.wkt "POLYGON ((0 0, 0 0, 0 0, 0 0))\n")
file(WRITE ${WORK}/square4.wkt "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))\n")
run_expect(4 "flat_hole.wkt:1: degenerate polygon: hole 0 has zero area"
           ${CLI} join ${WORK}/flat_hole.wkt ${WORK}/square4.wkt)
run_expect(4 "flat_outer.wkt:1: degenerate polygon: outer ring has zero area"
           ${CLI} join ${WORK}/flat_outer.wkt ${WORK}/unit_square.wkt)
run_expect(4 "<argument 2>: degenerate polygon: hole 0 has zero area"
           ${CLI} relate "POLYGON ((0 0, 4 0, 4 4, 0 4))"
           "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 3 1, 1 1))")
run_expect(4 "<argument 1>: degenerate polygon: outer ring has zero area"
           ${CLI} relate "POLYGON ((0 0, 0 0, 0 0, 0 0))"
           "POLYGON ((0 0, 1 0, 1 1, 0 1))")
execute_process(COMMAND ${CLI} join ${WORK}/flat_hole.wkt ${WORK}/square4.wkt
                --permissive
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out STREQUAL "0 0 equals\n" OR
   NOT err MATCHES "0 accepted, 1 repaired, 0 skipped")
  message(FATAL_ERROR "permissive zero-area hole join failed (${rc}):\n${out}\n${err}")
endif()
run_expect(0 "0 accepted, 0 repaired, 1 skipped"
           ${CLI} join ${WORK}/flat_outer.wkt ${WORK}/unit_square.wkt
           --permissive)

# Non-finite coordinates are malformed: std::from_chars reads "nan" and
# "inf", and the parser rejects them. Strict: exit 4 naming the line and the
# byte. Permissive: the line is skipped and the rest is answered.
file(WRITE ${WORK}/nonfinite.wkt
"POLYGON ((0.5 0.5, 1.5 0.5, 1.5 1.5, 0.5 1.5))
POLYGON ((0 0, nan 0, 1 1, 0 1, 0 0))
")
file(WRITE ${WORK}/infinite.wkt "POLYGON ((0 0, 1 0, 1 1, inf 1, 0 0))\n")
run_expect(4 "nonfinite.wkt:2 @byte 15: expected x coordinate"
           ${CLI} join ${WORK}/unit_square.wkt ${WORK}/nonfinite.wkt)
run_expect(4 "infinite.wkt:1 @byte 25: expected x coordinate"
           ${CLI} join ${WORK}/unit_square.wkt ${WORK}/infinite.wkt)
execute_process(COMMAND ${CLI} join ${WORK}/unit_square.wkt ${WORK}/nonfinite.wkt
                --permissive
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out STREQUAL "0 0 intersects\n" OR
   NOT err MATCHES "1 accepted, 0 repaired, 1 skipped")
  message(FATAL_ERROR "permissive non-finite join failed (${rc}):\n${out}\n${err}")
endif()

# The coordinate domain is zero or a magnitude in [1e-100, 1e100]. Beyond it
# the dataspace width overflows or products of coordinate differences
# underflow, so both repros are parse errors naming line 1.
file(WRITE ${WORK}/overflow.wkt
"POLYGON ((-1.7e308 -1.7e308, 1.7e308 -1.7e308, 1.7e308 1.7e308, -1.7e308 1.7e308, -1.7e308 -1.7e308))\n")
file(WRITE ${WORK}/underflow.wkt
"POLYGON ((0 0, 1e-300 0, 1e-300 1e-300, 0 1e-300, 0 0))\n")
run_expect(4 "overflow.wkt:1 @byte 10: expected x coordinate"
           ${CLI} join ${WORK}/overflow.wkt ${WORK}/overflow.wkt)
run_expect(4 "underflow.wkt:1 @byte 15: expected x coordinate"
           ${CLI} join ${WORK}/underflow.wkt ${WORK}/underflow.wkt)
foreach(repro overflow underflow)
  run_expect(0 "0 accepted, 0 repaired, 1 skipped"
             ${CLI} join ${WORK}/${repro}.wkt ${WORK}/${repro}.wkt
             --permissive)
endforeach()
# At the bounds both exact methods answer at the coarse and the finest grid.
file(WRITE ${WORK}/bounds_r.wkt
"POLYGON ((-1e100 -1e100, 1e100 -1e100, 1e100 1e100, -1e100 1e100))
POLYGON ((0 -1e100, 1e100 -1e100, 1e100 1e100, 0 1e100))
")
file(WRITE ${WORK}/bounds_s.wkt
"POLYGON ((-1e100 -1e100, 1e100 -1e100, 1e100 1e100, -1e100 1e100))
POLYGON ((-1e100 -1e100, 0 -1e100, 0 1e100, -1e100 1e100))
POLYGON ((0 0, 1e-100 0, 1e-100 1e-100, 0 1e-100))
")
foreach(order 12 16)
  foreach(method pc st2)
    execute_process(COMMAND ${CLI} join ${WORK}/bounds_r.wkt
                    ${WORK}/bounds_s.wkt --method=${method}
                    --grid-order=${order}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0 OR NOT out STREQUAL
       "0 0 equals\n0 1 covers\n0 2 contains\n1 0 covered-by\n1 1 meets\n1 2 covers\n")
      message(FATAL_ERROR
              "join at the coordinate bounds (${method}, grid order ${order}) "
              "failed (${rc}):\n${out}\n${err}")
    endif()
  endforeach()
endforeach()

# Missing input file: exit 3 (I/O), message names the file, and nothing is
# written.
run_expect(3 "no_such_file.wkt"
           ${CLI} prepare ${WORK}/ole.wkt ${WORK}/no_such_file.wkt
           ${WORK}/missing_prep)
if(EXISTS ${WORK}/missing_prep)
  message(FATAL_ERROR "a prepare with a missing input must not write")
endif()

# Inline WKT parse error: exit 4 with a byte offset.
run_expect(4 "@byte" ${CLI} relate "POLYGON ((0 0, 1 0" "POINT (1 1)")

# Unknown method / predicate names: exit 5, before the inputs are loaded.
run_rejected(5 "unknown method"
             ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt --method=warp)
run_rejected(5 "unknown predicate"
             ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt --predicate=touches-ish)

# ---- flag ranges ----

# Two overlapping unit squares: the largest grid order finds their link.
file(WRITE ${WORK}/square_a.wkt "POLYGON ((0 0, 1 0, 1 1, 0 1))\n")
file(WRITE ${WORK}/square_b.wkt
     "POLYGON ((0.5 0.5, 1.5 0.5, 1.5 1.5, 0.5 1.5))\n")
execute_process(COMMAND ${CLI} join ${WORK}/square_a.wkt ${WORK}/square_b.wkt
                --grid-order=16
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out STREQUAL "0 0 intersects\n")
  message(FATAL_ERROR "squares join at grid order 16 failed (${rc}):\n${out}\n${err}")
endif()

# A flipped byte in a prepared tile's list payload fails that record's
# checksum when the join decodes it: the pair refines to the same link, a
# `degraded` line counts it, and aprilcheck names the tile (exit 11). The
# squares' one pair overlaps, so the filter reads record 0 of R's tile 0.
file(REMOVE_RECURSE ${WORK}/prep_flip)
run_checked(${CLI} prepare ${WORK}/square_a.wkt ${WORK}/square_b.wkt
            ${WORK}/prep_flip)
set(flip_tile ${WORK}/prep_flip/r/tile_000000.shard)
file(READ ${flip_tile} tile_hex HEX)
# The payload segment (kind 5) has the fifth 32-byte table entry after the
# 40-byte header; its offset is the little-endian u64 at byte 176.
string(SUBSTRING "${tile_hex}" 352 8 offset_le)
set(offset_be "")
foreach(at 6 4 2 0)
  string(SUBSTRING "${offset_le}" ${at} 2 hex_byte)
  string(APPEND offset_be ${hex_byte})
endforeach()
math(EXPR payload_at "0x${offset_be}")
math(EXPR payload_hex_at "2 * ${payload_at}")
string(SUBSTRING "${tile_hex}" ${payload_hex_at} 2 payload_byte)
if(payload_byte STREQUAL "ff")
  set(flip "\\000")
else()
  set(flip "\\377")
endif()
execute_process(
  COMMAND sh -c "printf '${flip}' | dd of='${flip_tile}' bs=1 seek=${payload_at} count=1 conv=notrunc status=none"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cannot flip a byte of ${flip_tile}")
endif()
foreach(threads 1 4)
  run_expect(0 "\\[join\\] degraded: [1-9][0-9]* pairs fell back to refinement"
             ${CLI} join ${WORK}/prep_flip/r ${WORK}/prep_flip/s
             --threads=${threads})
  execute_process(COMMAND ${CLI} join ${WORK}/prep_flip/r ${WORK}/prep_flip/s
                  --threads=${threads}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR NOT out STREQUAL "0 0 intersects\n")
    message(FATAL_ERROR "join over a flipped list record changed the links (${rc}):\n${out}\n${err}")
  endif()
endforeach()
run_expect(11 "tile 0: segment 5 checksum mismatch"
           ${CLI} aprilcheck ${WORK}/prep_flip/r)

# --grid-order outside 1..16 and --threads outside 0..1024 (or not an
# integer) are usage errors: exit 2, before the inputs are loaded.
file(REMOVE_RECURSE ${WORK}/rejected_prep)
foreach(order 0 17 31 32 40 -1 12x "")
  run_rejected(2 "--grid-order must be an integer from 1 to 16"
               ${CLI} join ${WORK}/square_a.wkt ${WORK}/square_b.wkt
               --grid-order=${order})
  run_rejected(2 "--grid-order must be an integer from 1 to 16"
               ${CLI} prepare ${WORK}/square_a.wkt ${WORK}/square_b.wkt
               ${WORK}/rejected_prep --grid-order=${order})
endforeach()
if(EXISTS ${WORK}/rejected_prep)
  message(FATAL_ERROR "a rejected prepare run must not write its output")
endif()
foreach(threads -1 1025 4294967295 two "")
  run_rejected(2 "--threads must be an integer from 0 to 1024"
               ${CLI} join ${WORK}/square_a.wkt ${WORK}/square_b.wkt
               --threads=${threads})
endforeach()

# The other numeric flags are parsed as strictly: a value that is not an
# integer in its range (for --scale, a finite number greater than 0) exits
# 2, naming the range, before any input is read or output written.
foreach(value -1 2147483648 abc 5s "")
  run_rejected(2 "--deadline-ms must be an integer from 0 to 2147483647"
               ${CLI} join ${WORK}/square_a.wkt ${WORK}/square_b.wkt
               --deadline-ms=${value})
endforeach()
foreach(value -1 8796093022208 abc "")
  run_rejected(2 "--max-memory-mb must be an integer from 0 to 8796093022207"
               ${CLI} join ${WORK}/square_a.wkt ${WORK}/square_b.wkt
               --max-memory-mb=${value})
endforeach()
foreach(value 0 -1 8796093022208 abc "")
  run_rejected(2 "--shard-cache-mb must be an integer from 1 to 8796093022207"
               ${CLI} join ${WORK}/square_a.wkt ${WORK}/square_b.wkt
               --shard-dir=${WORK}/shards3 --shard-cache-mb=${value})
endforeach()
foreach(value -1 1.5 abc "")
  run_rejected(2
               "--partition-units must be an integer from 0 to 9223372036854775807"
               ${CLI} join ${WORK}/square_a.wkt ${WORK}/square_b.wkt
               --shard-dir=${WORK}/shards3 --partition-units=${value})
endforeach()
if(EXISTS ${WORK}/shards3)
  message(FATAL_ERROR "a rejected sharded join must not write shards")
endif()
file(REMOVE ${WORK}/rejected.wkt)
foreach(value 0 -1 abc nan inf 1e999 "")
  run_rejected(2 "--scale must be a finite number greater than 0"
               ${CLI} generate OPE ${WORK}/rejected.wkt --scale=${value})
endforeach()
foreach(value -1 1.5 abc 9223372036854775808 "")
  run_rejected(2 "--seed must be an integer from 0 to 9223372036854775807"
               ${CLI} generate OPE ${WORK}/rejected.wkt --seed=${value})
endforeach()
if(EXISTS ${WORK}/rejected.wkt)
  message(FATAL_ERROR "a rejected generate run must not write its output")
endif()
# The largest accepted values run like any other.
execute_process(COMMAND ${CLI} join ${WORK}/square_a.wkt ${WORK}/square_b.wkt
                --deadline-ms=2147483647 --max-memory-mb=8796093022207
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out STREQUAL "0 0 intersects\n")
  message(FATAL_ERROR "join at the largest flag values failed (${rc}):\n${out}\n${err}")
endif()

# Unknown flag: exit 2 (usage) — including the retired executor, codec,
# decoded-cache and prepared-cache knobs.
run_expect(2 "unknown flag"
           ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt --frobnicate)
run_expect(2 "unknown flag"
           ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt --batch-size=64)
run_expect(2 "unknown flag"
           ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt --decoded-cache-mb=8)
run_expect(2 "unknown flag"
           ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt --prepared-cache-mb=8)
run_expect(2 "unknown flag"
           ${CLI} prepare ${WORK}/ole.wkt ${WORK}/ope.wkt ${WORK}/x --codec=blocked)

# The retired `april` command is gone: a usage error.
run_rejected(2 "usage: stj_cli" ${CLI} april ${WORK}/ole.wkt ${WORK}/x.april)

# Every command reads only its own flags: any other known flag exits 2,
# naming the flag and the command, before any input is read or output
# written.
run_rejected(2 "stj_cli join without --shard-dir does not read --partition-units"
             ${CLI} join ${WORK}/square_a.wkt ${WORK}/square_b.wkt
             --partition-units=5 --shard-cache-mb=3)
run_rejected(2 "stj_cli join without --shard-dir does not read --shard-cache-mb"
             ${CLI} join ${WORK}/square_a.wkt ${WORK}/square_b.wkt
             --shard-cache-mb=3)
run_rejected(2 "stj_cli generate does not read --grid-order"
             ${CLI} generate OBE ${WORK}/rejected.wkt --grid-order=3
             --shard-dir=/nonexistent)
if(EXISTS ${WORK}/rejected.wkt)
  message(FATAL_ERROR "a rejected generate run must not write its output")
endif()
run_rejected(2 "stj_cli prepare does not read --method"
             ${CLI} prepare ${WORK}/square_a.wkt ${WORK}/square_b.wkt
             ${WORK}/rejected_prep --method=pc)
run_rejected(2 "stj_cli aprilcheck does not read --threads"
             ${CLI} aprilcheck ${WORK}/prep_t1/r --threads=2)
run_rejected(2 "stj_cli relate does not read --threads"
             ${CLI} relate "POLYGON ((0 0, 4 0, 4 4, 0 4))"
             "POLYGON ((1 1, 2 1, 2 2, 1 2))" --threads=2)
run_rejected(2 "unknown flag: extra"
             ${CLI} relate "POLYGON ((0 0, 4 0, 4 4, 0 4))"
             "POLYGON ((1 1, 2 1, 2 2, 1 2))" extra)

message(STATUS "stj_cli end-to-end test passed")
