# End-to-end smoke test of stj_cli, driven by ctest:
#   generate -> april -> relate -> join (find-relation and predicate modes),
#   plus the malformed-input exit paths (strict vs permissive loading,
#   aprilcheck, distinct exit codes).
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

# generate formats 1,024-polygon slices on --threads workers and writes them
# in order: the file's bytes do not depend on the thread count (OBE at 0.1
# has 5,000 polygons, so 4 workers format more than one round of slices).
foreach(spec "OPE;0.01" "OBE;0.1")
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

# april precomputation
run_checked(${CLI} april ${WORK}/ole.wkt ${WORK}/ole.april --grid-order=10)
if(NOT EXISTS ${WORK}/ole.april)
  message(FATAL_ERROR "missing ole.april")
endif()

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

# aprilcheck understands shard manifests: the directory and the manifest
# path both route to the shard-set audit.
run_expect(0 "shard set, .* 0 corrupt" ${CLI} aprilcheck ${WORK}/shards/r)
run_expect(0 "shard set, .* 0 corrupt"
           ${CLI} aprilcheck ${WORK}/shards/s/manifest.stj)

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

# Strict load: exit 4 (bad data), message names file, line 2, and the offset.
file(REMOVE ${WORK}/dirty.april)  # scratch dir is reused across runs
run_expect(4 "dirty.wkt:2.*expected"
           ${CLI} april ${WORK}/dirty.wkt ${WORK}/dirty.april)
if(EXISTS ${WORK}/dirty.april)
  message(FATAL_ERROR "strict load must not produce an output file")
endif()

# Permissive load: succeeds on the clean remainder and reports the triage.
run_expect(0 "1 repaired, 2 skipped"
           ${CLI} april ${WORK}/dirty.wkt ${WORK}/dirty.april --permissive)
if(NOT EXISTS ${WORK}/dirty.april)
  message(FATAL_ERROR "permissive load must produce an output file")
endif()

file(WRITE ${WORK}/unit_square.wkt "POLYGON ((0 0, 1 0, 1 1, 0 1))\n")

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

# Missing input file: exit 3 (I/O), message names the file.
run_expect(3 "no_such_file.wkt"
           ${CLI} april ${WORK}/no_such_file.wkt ${WORK}/x.april)

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

# --grid-order outside 1..16 and --threads outside 0..1024 (or not an
# integer) are usage errors: exit 2, before the inputs are loaded.
file(REMOVE ${WORK}/rejected.april)
foreach(order 0 17 31 32 40 -1 12x "")
  run_rejected(2 "--grid-order must be an integer from 1 to 16"
               ${CLI} join ${WORK}/square_a.wkt ${WORK}/square_b.wkt
               --grid-order=${order})
  run_rejected(2 "--grid-order must be an integer from 1 to 16"
               ${CLI} april ${WORK}/square_a.wkt ${WORK}/rejected.april
               --grid-order=${order})
endforeach()
if(EXISTS ${WORK}/rejected.april)
  message(FATAL_ERROR "a rejected april run must not write its output")
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
           ${CLI} april ${WORK}/ole.wkt ${WORK}/x.april --codec=blocked)

# Writes raw bytes given as printf(1) escapes: CMake strings cannot hold
# the NUL bytes of binary headers.
function(write_bytes path escapes)
  execute_process(COMMAND sh -c "printf '${escapes}' > '${path}'"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cannot write ${path}")
  endif()
endfunction()

# aprilcheck: `april` writes version 3, the only format, and the file passes
# the deep codec audit; garbage and truncated headers are structural errors
# (exit 4).
run_expect(0 "version 3 \\(blocked\\).*0 corrupt, 0 codec-corrupt"
           ${CLI} aprilcheck ${WORK}/ole.april)

# A flipped byte past the first frame header (16-byte file header + 16-byte
# frame) fails one record's checksum: exit 6, naming the object.
file(READ ${WORK}/ole.april ole_hex HEX)
string(SUBSTRING "${ole_hex}" 80 2 byte_40)
if(byte_40 STREQUAL "ff")
  set(flip "\\000")
else()
  set(flip "\\377")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E copy ${WORK}/ole.april
                        ${WORK}/flipped.april)
execute_process(
  COMMAND sh -c "printf '${flip}' | dd of='${WORK}/flipped.april' bs=1 seek=40 count=1 conv=notrunc status=none"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cannot corrupt flipped.april")
endif()
run_expect(6 "1 corrupt.*corrupt record: object 0"
           ${CLI} aprilcheck ${WORK}/flipped.april)

file(WRITE ${WORK}/garbage.april "this is not an april file at all")
run_expect(4 "bad magic" ${CLI} aprilcheck ${WORK}/garbage.april)
file(WRITE ${WORK}/short.april "APRB")
run_expect(4 "too short" ${CLI} aprilcheck ${WORK}/short.april)
# The retired version-2 layout ("APRL", u32 version 2, u64 count 1) is a
# structural error, not a half-read file.
write_bytes(${WORK}/v2.april "APRL\\002\\000\\000\\000\\001\\000\\000\\000\\000\\000\\000\\000")
run_expect(4 "bad magic" ${CLI} aprilcheck ${WORK}/v2.april)

message(STATUS "stj_cli end-to-end test passed")
