#!/usr/bin/env bash
# Produces the checked-in BENCH_*.json files at the repo root: a Release
# build, then three harness runs whose record arrays are validated —
#
#   bench_parallel_scaling  thread sweep of the MBR filter and P+C
#                           find-relation on OLE-OPE (as in BENCH_PR2);
#                           merged with bench_april_build into BENCH_PR3.json
#   bench_april_build       APRIL preprocessing throughput, per-cell oracle
#                           vs run-based Hilbert interval construction, at
#                           grid order 16 on the TW blob dataset
#   bench_prepared_cache    prepared-geometry cache on/off find-relation
#                           refinement on the TC-TZ nested tessellation at
#                           1/2/4 threads, flat and compressed APRIL store
#                           -> BENCH_PR4.json
#   bench_exec_context      ExecContext check-in overhead: P+C find-relation
#                           on OLE-OPE with and without a (never-tripping)
#                           deadline + memory budget armed, 1/4 threads
#                           -> BENCH_PR6.json
#   bench_micro_interval    --json mode: intermediate-filter throughput on
#                           the TC-TZ dense tessellation under forced scalar
#                           vs runtime-dispatched SIMD kernels, 1/4
#                           threads, plus the block codec's size ratio
#                           -> BENCH_PR7.json
#   bench_shard_join        out-of-core tile-sharded join vs the single-arena
#                           join on TC-TZ at grid order 14: all-resident
#                           cache and a 25%-of-shard-bytes budget, 1/4
#                           threads, every record verified byte-identical
#                           -> BENCH_PR9.json
#
# Extra arguments are forwarded to the PR3 bench binaries, e.g.:
#
#   tools/bench_json.sh                     # default sweeps, default scale
#   tools/bench_json.sh --threads=1,2,4,8   # fixed thread sweep
#
# (bench_prepared_cache always runs its fixed 1,2,4 thread sweep: the PR4
# acceptance check below needs the 1- and 4-thread records.)
#
# EXPERIMENTS.md explains how to read the numbers (and on what hardware the
# committed files were produced).

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="BENCH_PR3.json"
PREPARED_OUT_FINAL="BENCH_PR4.json"
EXEC_OUT_FINAL="BENCH_PR6.json"
INTERVAL_OUT_FINAL="BENCH_PR7.json"
SHARD_OUT_FINAL="BENCH_PR9.json"
SCALING_OUT="$(mktemp)"
APRIL_OUT="$(mktemp)"
PREPARED_OUT="$(mktemp)"
EXEC_OUT="$(mktemp)"
INTERVAL_OUT="$(mktemp)"
SHARD_OUT="$(mktemp)"
trap 'rm -f "$SCALING_OUT" "$APRIL_OUT" "$PREPARED_OUT" "$EXEC_OUT" "$INTERVAL_OUT" "$SHARD_OUT"' EXIT

echo "==== configure + build (Release) ===="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$(nproc)" --target bench_parallel_scaling \
  bench_april_build bench_prepared_cache bench_exec_context \
  bench_micro_interval bench_shard_join

echo "==== run bench_parallel_scaling ===="
build/bench/bench_parallel_scaling --json="$SCALING_OUT" "$@"

echo "==== run bench_april_build (grid order 16) ===="
# Scale keeps the per-cell oracle affordable at order 16: the oracle
# materialises every covered cell id, which is exactly the cost the
# run-based path exists to avoid.
build/bench/bench_april_build --grid-order=16 --scale=0.1 \
  --json="$APRIL_OUT" "$@"

echo "==== merge + validate $OUT ===="
python3 - "$SCALING_OUT" "$APRIL_OUT" "$OUT" <<'PY'
import json, sys

scaling = json.load(open(sys.argv[1]))
april = json.load(open(sys.argv[2]))
records = scaling + april
assert isinstance(records, list) and records, 'empty report'

scaling_required = {'bench', 'stage', 'scenario', 'threads', 'seconds',
                    'pairs_per_sec', 'preprocess_seconds'}
april_required = {'bench', 'stage', 'mode', 'dataset', 'threads',
                  'grid_order', 'objects', 'intervals', 'seconds',
                  'objects_per_sec', 'intervals_per_sec',
                  'speedup_vs_per_cell'}
for r in records:
    required = (april_required if r.get('bench') == 'april_build'
                else scaling_required)
    missing = required - set(r)
    assert not missing, f'record missing {missing}: {r}'

stages = {r['stage'] for r in scaling}
assert stages == {'mbr_filter', 'find_relation'}, stages
april_stages = {r['stage'] for r in april}
assert april_stages == {'construct', 'build'}, april_stages
modes = {r['mode'] for r in april}
assert modes == {'per_cell', 'run_based'}, modes

# The acceptance number: single-thread run-based interval construction at
# order 16 must beat the per-cell oracle by >= 5x.
construct = [r for r in april
             if r['stage'] == 'construct' and r['mode'] == 'run_based']
assert construct, 'no run_based construct record'
speedup = construct[0]['speedup_vs_per_cell']
assert speedup >= 5.0, f'run-based construction speedup {speedup:.2f}x < 5x'

with open(sys.argv[3], 'w') as f:
    json.dump(records, f, indent=1)
    f.write('\n')
print(f'{len(records)} records OK ({sorted(stages)} + april_build '
      f'{sorted(modes)}, run-based construction speedup {speedup:.1f}x)')
PY

echo "==== run bench_prepared_cache (TC-TZ, threads 1/2/4) ===="
build/bench/bench_prepared_cache --threads=1,2,4 --json="$PREPARED_OUT"

echo "==== validate $PREPARED_OUT_FINAL ===="
python3 - "$PREPARED_OUT" "$PREPARED_OUT_FINAL" <<'PY'
import json, sys

records = json.load(open(sys.argv[1]))
assert isinstance(records, list) and records, 'empty report'

required = {'bench', 'stage', 'scenario', 'method', 'threads', 'store',
            'cache', 'seconds', 'pairs', 'pairs_per_sec', 'refined',
            'refined_per_sec', 'speedup_vs_off', 'prepared_cache_mb',
            'prepared_hits', 'prepared_misses', 'prepared_hit_rate',
            'decoded_hits', 'decoded_misses'}
for r in records:
    missing = required - set(r)
    assert not missing, f'record missing {missing}: {r}'
    assert r['bench'] == 'prepared_cache' and r['stage'] == 'find_relation', r

by_key = {(r['threads'], r['cache'], r['store']): r for r in records}
assert set(by_key) >= {(t, c, s) for t in (1, 2, 4) for c in ('off', 'on')
                       for s in ('flat', 'compressed')}, \
    f'missing (threads, cache, store) combinations: {sorted(by_key)}'

# The acceptance number (unchanged from PR 4, measured on the flat store):
# cache-on refinement throughput (refined pairs/s) must be >= 2x cache-off
# on the TC-TZ tessellation at 1 and 4 threads. The compressed-store legs
# are informational — same refinement stage, filter reads the blocked
# codec — and only need to have run.
speedups = {}
for t in (1, 4):
    off = by_key[(t, 'off', 'flat')]['refined_per_sec']
    on = by_key[(t, 'on', 'flat')]['refined_per_sec']
    assert off > 0, f'zero cache-off throughput at {t} threads'
    speedups[t] = on / off
    assert speedups[t] >= 2.0, \
        f'prepared-cache speedup {speedups[t]:.2f}x < 2x at {t} threads'
    assert by_key[(t, 'on', 'compressed')]['refined_per_sec'] > 0, \
        f'compressed-store leg missing or idle at {t} threads'

with open(sys.argv[2], 'w') as f:
    json.dump(records, f, indent=1)
    f.write('\n')
print(f'{len(records)} records OK (prepared-cache refinement speedup '
      + ', '.join(f'{t}T {s:.1f}x' for t, s in sorted(speedups.items())) + ')')
PY

echo "==== run bench_exec_context (OLE-OPE, threads 1/4) ===="
build/bench/bench_exec_context --threads=1,4 --json="$EXEC_OUT"

echo "==== validate $EXEC_OUT_FINAL ===="
python3 - "$EXEC_OUT" "$EXEC_OUT_FINAL" <<'PY'
import json, sys

records = json.load(open(sys.argv[1]))
assert isinstance(records, list) and records, 'empty report'

required = {'bench', 'stage', 'scenario', 'method', 'threads', 'exec',
            'seconds', 'pairs', 'pairs_per_sec', 'checkins', 'overhead_pct'}
for r in records:
    missing = required - set(r)
    assert not missing, f'record missing {missing}: {r}'
    assert r['bench'] == 'exec_context' and r['stage'] == 'find_relation', r

by_key = {(r['threads'], r['exec']): r for r in records}
assert set(by_key) >= {(t, e) for t in (1, 4) for e in ('off', 'on')}, \
    f'missing (threads, exec) combinations: {sorted(by_key)}'

# The acceptance number: with an armed-but-never-tripping ExecContext the
# join throughput must stay within 2% of the context-free run.
overheads = {}
for t in (1, 4):
    off = by_key[(t, 'off')]['pairs_per_sec']
    on = by_key[(t, 'on')]['pairs_per_sec']
    assert off > 0, f'zero exec-off throughput at {t} threads'
    overheads[t] = 100.0 * (off - on) / off
    assert overheads[t] <= 2.0, \
        f'exec-context overhead {overheads[t]:.2f}% > 2% at {t} threads'
    assert by_key[(t, 'on')]['checkins'] >= by_key[(t, 'on')]['pairs'], \
        'bounded run must check in at least once per pair'

with open(sys.argv[2], 'w') as f:
    json.dump(records, f, indent=1)
    f.write('\n')
print(f'{len(records)} records OK (exec-context overhead '
      + ', '.join(f'{t}T {o:+.2f}%' for t, o in sorted(overheads.items()))
      + ')')
PY

echo "==== run bench_micro_interval --json (TC-TZ, grid order 14, threads 1/4) ===="
# Grid order 14 keeps the tessellation lists long (thousands of intervals per
# TC object), which is the dense-list regime the SIMD kernels target; the
# scale keeps the scenario build affordable.
build/bench/bench_micro_interval --scale=0.05 --grid-order=14 --threads=1,4 \
  --json="$INTERVAL_OUT"

echo "==== validate $INTERVAL_OUT_FINAL ===="
python3 - "$INTERVAL_OUT" "$INTERVAL_OUT_FINAL" <<'PY'
import json, sys

records = json.load(open(sys.argv[1]))
assert isinstance(records, list) and records, 'empty report'

codec_required = {'bench', 'stage', 'scenario', 'grid_order', 'flat_bytes',
                  'blocked_bytes', 'compression_ratio'}
filter_required = {'bench', 'stage', 'scenario', 'mode', 'simd_level',
                   'threads', 'pairs', 'seconds', 'pairs_per_sec',
                   'speedup_vs_scalar', 'identical'}
codec = [r for r in records if r['stage'] == 'codec']
filt = [r for r in records if r['stage'] == 'find_relation_filter']
assert len(codec) == 1, f'expected one codec record, got {len(codec)}'
assert filt, 'no find_relation_filter records'
for r in codec:
    missing = codec_required - set(r)
    assert not missing, f'codec record missing {missing}: {r}'
for r in filt:
    missing = filter_required - set(r)
    assert not missing, f'filter record missing {missing}: {r}'
    assert r['bench'] == 'interval_simd', r
    # Decision vectors must agree bit-for-bit across scalar/SIMD: the
    # kernels may only change speed, never answers.
    assert r['identical'] == 1, f'divergent decisions: {r}'

ratio = codec[0]['compression_ratio']
assert ratio >= 2.0, f'codec compression ratio {ratio:.2f}x < 2x'

by_key = {(r['mode'], r['threads']): r for r in filt}
assert set(by_key) >= {(m, t) for m in ('scalar', 'simd') for t in (1, 4)}, \
    f'missing (mode, threads) combinations: {sorted(by_key)}'

# The acceptance number: runtime-dispatched SIMD kernels must deliver >=
# 1.5x intermediate-filter throughput over the forced-scalar baseline on
# the dense tessellation at 1 and 4 threads.
speedups = {}
for t in (1, 4):
    s = by_key[('simd', t)]['speedup_vs_scalar']
    speedups[t] = s
    assert s >= 1.5, f'SIMD filter speedup {s:.2f}x < 1.5x at {t} threads'

with open(sys.argv[2], 'w') as f:
    json.dump(records, f, indent=1)
    f.write('\n')
print(f'{len(records)} records OK (SIMD filter speedup '
      + ', '.join(f'{t}T {s:.1f}x' for t, s in sorted(speedups.items()))
      + f', codec ratio {ratio:.1f}x)')
PY

echo "==== run bench_shard_join (TC-TZ, grid order 14, threads 1/4) ===="
# Grid order 14 gives long interval lists and a dense candidate set, so both
# the per-task joins and the quarter-budget cache pressure are real work
# rather than fixed-cost noise.
build/bench/bench_shard_join --grid-order=14 --threads=1,4 \
  --json="$SHARD_OUT"

echo "==== validate $SHARD_OUT_FINAL ===="
python3 - "$SHARD_OUT" "$SHARD_OUT_FINAL" <<'PY'
import json, sys

records = json.load(open(sys.argv[1]))
assert isinstance(records, list) and records, 'empty report'

arena_required = {'bench', 'scenario', 'method', 'threads', 'leg',
                  'shard_bytes_mb', 'seconds', 'pairs', 'pairs_per_sec',
                  'identical'}
shard_required = arena_required | {'cache_mb', 'tiles_r', 'tiles_s', 'tasks',
                                   'shard_loads', 'shard_hits',
                                   'shards_evicted', 'cache_peak_mb',
                                   'pairs_deduped',
                                   'speedup_vs_single_arena',
                                   'slowdown_vs_all_resident'}
for r in records:
    required = (arena_required if r['leg'] == 'single_arena'
                else shard_required)
    missing = required - set(r)
    assert not missing, f'record missing {missing}: {r}'
    assert r['bench'] == 'shard_join', r
    # Gate 3: every leg, every repetition, byte-identical to the
    # single-arena join (pairs and relations; verified in-harness).
    assert r['identical'] == 1, f'divergent sharded join: {r}'

by_key = {(r['threads'], r['leg']): r for r in records}
assert set(by_key) >= {(t, leg) for t in (1, 4)
                       for leg in ('single_arena', 'all_resident',
                                   'quarter_budget')}, \
    f'missing (threads, leg) combinations: {sorted(by_key)}'

ratios, slowdowns = {}, {}
for t in (1, 4):
    # Gate 1: with everything resident, sharding (task loop, per-tile
    # MbrJoin, dedup, result merge) may cost at most 10% of the
    # single-arena throughput.
    arena = by_key[(t, 'single_arena')]['pairs_per_sec']
    resident = by_key[(t, 'all_resident')]['pairs_per_sec']
    assert arena > 0, f'zero single-arena throughput at {t} threads'
    ratios[t] = resident / arena
    assert ratios[t] >= 0.9, \
        f'all-resident sharded throughput {ratios[t]:.2f}x < 0.9x at {t}T'
    assert by_key[(t, 'all_resident')]['shards_evicted'] == 0, \
        f'all-resident leg evicted shards at {t} threads'

    # Gate 2: clamping the cache to 25% of the shard bytes (the out-of-core
    # regime; the leg must actually evict) may at most double the wall time.
    quarter = by_key[(t, 'quarter_budget')]
    assert quarter['cache_mb'] <= 0.25 * quarter['shard_bytes_mb'] + 1e-6, \
        f'quarter-budget cache not <= 25% of shard bytes: {quarter}'
    assert quarter['shards_evicted'] > 0, \
        f'quarter-budget leg never evicted at {t} threads'
    slowdowns[t] = quarter['slowdown_vs_all_resident']
    assert slowdowns[t] <= 2.0, \
        f'quarter-budget slowdown {slowdowns[t]:.2f}x > 2x at {t} threads'

with open(sys.argv[2], 'w') as f:
    json.dump(records, f, indent=1)
    f.write('\n')
print(f'{len(records)} records OK (all-resident '
      + ', '.join(f'{t}T {x:.2f}x' for t, x in sorted(ratios.items()))
      + ' of single-arena; quarter-budget '
      + ', '.join(f'{t}T {x:.2f}x' for t, x in sorted(slowdowns.items()))
      + ' of all-resident)')
PY

echo "bench_json: wrote and validated $OUT, $PREPARED_OUT_FINAL, $EXEC_OUT_FINAL, $INTERVAL_OUT_FINAL and $SHARD_OUT_FINAL"
