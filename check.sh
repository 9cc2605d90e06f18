#!/usr/bin/env bash
# Repo health check: build, full test suite, the dune-file format gate, the
# recursive fork-join and native pool examples (checked against their
# references), a tiny-scale smoke run of the fault-injection sweep (exits
# non-zero on any output-validation failure), a run of every executor name
# on sim and of seq/hbc/tpal on 2 domains, a perf-gate report +
# bench-diff smoke, and (unless skipped) a kill-and-resume exercise of the
# campaign journal.
#
# Environment knobs:
#   TMPDIR                  scratch directory (default /tmp)
#   HBC_CHECK_SKIP_RESUME=1 skip the kill -9 resume test (needs job control
#                           and a POSIX kill; skip on minimal CI shells)
set -euo pipefail
cd "$(dirname "$0")"

TMP="${TMPDIR:-/tmp}"

dune build
dune runtest

# --- dune-file format gate: the dune half of CI's `dune build @fmt`, which
# needs no ocamlformat ---
for f in $(git ls-files -- dune '*/dune'); do
    dune format-dune-file "$f" | cmp -s - "$f" \
        || { echo "check.sh: $f is not formatted (dune format-dune-file)" >&2; exit 1; }
done
echo "check.sh: dune files formatted"

# --- fork-join example: exits non-zero when fib or max-subarray differs
# from its sequential reference ---
dune exec examples/recursive_fork_join.exe > /dev/null
echo "check.sh: fork-join example OK"

# --- native pool example: exits non-zero when the P=4 reduction drifts
# past rounding or the nested parallel_for corrupts its matrix ---
dune exec examples/native_heartbeat.exe > /dev/null
echo "check.sh: native pool example OK"

dune exec bin/hbc_repro.exe -- fault-sweep --scale 0.04 --workers 8

# --- trace export smoke test: run one benchmark with --trace, then lint the
# exported Chrome trace JSON (parses, >=1 promotion, >=1 steal event) ---
REPRO=_build/default/bin/hbc_repro.exe
T=$(mktemp "$TMP/hbc-trace.XXXXXX.json")
"$REPRO" run spmv-powerlaw --scale 0.05 --workers 8 --trace "$T" > /dev/null
"$REPRO" trace-lint "$T"
rm -f "$T"

# --- executor smoke test: every executor name must validate against the
# sequential reference on sim, and seq, hbc and tpal on 2 real domains
# (tpal on exactly the 2 asked for). hbc-km and omp-static stay refused on
# domains (exit 2); an unknown name exits 1 on sim and 2 on domains ---
X=$(mktemp "$TMP/hbc-exec.XXXXXX.txt")
for e in seq hbc hbc-km hbc-ping tpal omp-static omp-dynamic; do
    "$REPRO" run spmv-powerlaw --scale 0.05 --workers 8 -e "$e" > "$X"
    grep -q "output valid     : true" "$X" \
        || { echo "check.sh: -e $e not validated on sim" >&2; exit 1; }
done
for e in seq hbc tpal; do
    timeout 300 "$REPRO" run spmv-powerlaw --scale 0.05 --backend domains -w 2 -e "$e" > "$X"
    grep -q "output valid     : true" "$X" \
        || { echo "check.sh: -e $e not validated on domains" >&2; exit 1; }
done
grep -q "on 2 domains" "$X" \
    || { echo "check.sh: -e tpal -w 2 did not run on 2 domains" >&2; exit 1; }
for e in hbc-km omp-static no-such-executor; do
    rc=0
    "$REPRO" run spmv-powerlaw --scale 0.05 --backend domains -w 2 -e "$e" \
        > /dev/null 2>&1 || rc=$?
    [ "$rc" -eq 2 ] || { echo "check.sh: -e $e on domains exited $rc, not 2" >&2; exit 1; }
done
rc=0
"$REPRO" run spmv-powerlaw --scale 0.05 -e no-such-executor > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 1 ] || { echo "check.sh: unknown executor exited $rc, not 1" >&2; exit 1; }
rm -f "$X"
echo "check.sh: executor smoke OK"

# --- sanitizer & fuzz smoke test: a sanitized run must report zero
# violations; the fixed-seed fuzz sweep must pass; a forced seeded bug must
# be caught (exit 1), shrunk to a JSON repro, and the repro must replay to
# the same failure class ---
"$REPRO" run spmv-powerlaw --scale 0.05 --workers 8 --sanitize > /dev/null
"$REPRO" fuzz --smoke > /dev/null
F=$(mktemp "$TMP/hbc-fuzz.XXXXXX.json")
rc=0
"$REPRO" fuzz --force-fail duplicate-leftover --out "$F" > /dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "check.sh: forced seeded bug was not caught (exit $rc)" >&2
    exit 1
fi
"$REPRO" fuzz --replay "$F" > /dev/null
rm -f "$F"
echo "check.sh: sanitizer + fuzz smoke OK"

# --- native domains smoke test: the real-parallelism backend must produce
# the sequential fingerprint (exit 4 on mismatch) and its linearized trace
# must satisfy the full sanitizer invariant set (exit 3 on violation) ---
"$REPRO" run spmv-powerlaw --scale 0.05 --backend domains -e hbc -w 2 --sanitize > /dev/null
echo "check.sh: native domains smoke OK"

# --- native chaos smoke test: portable fault kinds inject on real domains
# (seed-deterministic decision streams), a dense stall plan must trip the
# polling-downgrade watchdog, and the chaotic run must still produce the
# sequential fingerprint (exit 4 on mismatch) with a clean sanitizer
# verdict (exit 3) ---
NC=$(mktemp "$TMP/hbc-nchaos.XXXXXX.txt")
"$REPRO" run spmv-powerlaw --scale 0.05 --backend domains -e hbc -w 2 \
    --beat polls:16 --sanitize \
    --fault-drop 0.4 --fault-steal 0.5 --fault-stall 0.9 --fault-wakeup 0.5 > "$NC"
grep -q "output valid     : true" "$NC" \
    || { echo "check.sh: native chaos run not validated" >&2; exit 1; }
grep -Eq "faults injected  : [1-9]" "$NC" \
    || { echo "check.sh: native chaos run injected nothing" >&2; exit 1; }
grep -Eq "downgrades       : [1-9]" "$NC" \
    || { echo "check.sh: stall plan never tripped the watchdog" >&2; exit 1; }
"$REPRO" fuzz --native --smoke > /dev/null
# a seeded bug planted by the shared interpreter must be caught natively too
NF=$(mktemp "$TMP/hbc-nfuzz.XXXXXX.json")
rc=0
"$REPRO" fuzz --native --force-fail duplicate-leftover --out "$NF" > /dev/null || rc=$?
if [ "$rc" -ne 1 ] || [ ! -s "$NF" ]; then
    echo "check.sh: forced native seeded bug was not caught (exit $rc)" >&2
    exit 1
fi
"$REPRO" fuzz --replay "$NF" > /dev/null
rm -f "$NC" "$NF"
echo "check.sh: native chaos smoke OK"

# --- native pause refusal smoke test: pause/resume runs on the simulator
# only, so a domains run asking for it must exit 2 and write no
# checkpoint ---
NCK="$TMP/hbc-nck.$$.json"; rm -f "$NCK"
rc=0
"$REPRO" run spmv-powerlaw --scale 0.05 --backend domains -e hbc -w 1 \
    --beat polls:16 --pause-at 2000 --checkpoint "$NCK" > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "check.sh: native --pause-at exited $rc, not 2" >&2; exit 1; }
[ ! -e "$NCK" ] || { echo "check.sh: refused native pause wrote a checkpoint" >&2; exit 1; }
echo "check.sh: native pause refusal smoke OK"

# --- serve smoke test: a mixed-tenant overload run with the sanitizer on
# must hit the shed and deadline paths (exit 4 if either never fires, exit 3
# on any job/budget/resume-conservation violation); equal seeds must journal
# byte-identical decisions and lifecycle trace exports; a zero-capacity
# queue must shed everything ---
D1=$(mktemp "$TMP/hbc-serve.XXXXXX.log"); D2=$(mktemp "$TMP/hbc-serve.XXXXXX.log")
T1=$(mktemp "$TMP/hbc-serve.XXXXXX.json"); T2=$(mktemp "$TMP/hbc-serve.XXXXXX.json")
"$REPRO" serve --tenants 3 --jobs 4 --queue-cap 2 --deadline 200000:800000 \
    --sanitize --verify --expect-shed --expect-deadline --seed 5 --decisions "$D1" \
    --trace "$T1" > /dev/null
"$REPRO" serve --tenants 3 --jobs 4 --queue-cap 2 --deadline 200000:800000 \
    --sanitize --verify --expect-shed --expect-deadline --seed 5 --decisions "$D2" \
    --trace "$T2" > /dev/null
cmp -s "$D1" "$D2" || { echo "check.sh: serve decisions not deterministic" >&2; exit 1; }
cmp -s "$T1" "$T2" || { echo "check.sh: serve trace export not deterministic" >&2; exit 1; }
rm -f "$D1" "$D2" "$T1" "$T2"
"$REPRO" serve --queue-cap 0 --jobs 2 --expect-shed > /dev/null
"$REPRO" fuzz --serve --smoke > /dev/null
echo "check.sh: serve smoke OK"

# --- job pause/resume smoke test: pause a run at a heartbeat boundary,
# resume it from the checkpoint file, and require the resumed run's full
# report (makespan, fingerprint validity, promotion/steal counts) to be
# byte-identical to an uninterrupted run's: a polling run, and a
# kernel-module run paused on a tick (30000 is the heartbeat interval) ---
CK=$(mktemp "$TMP/hbc-ck.XXXXXX.json")
RA=$(mktemp "$TMP/hbc-run.XXXXXX.txt"); RB=$(mktemp "$TMP/hbc-run.XXXXXX.txt")
for spec in hbc:100000 hbc-km:30000; do
    e=${spec%:*}; at=${spec#*:}
    "$REPRO" run spmv-powerlaw --scale 0.05 --workers 8 -e "$e" > "$RA"
    rm -f "$CK"
    "$REPRO" run spmv-powerlaw --scale 0.05 --workers 8 -e "$e" \
        --pause-at "$at" --checkpoint "$CK" > /dev/null
    [ -s "$CK" ] || { echo "check.sh: $e pause wrote no checkpoint" >&2; exit 1; }
    "$REPRO" run spmv-powerlaw --scale 0.05 --workers 8 -e "$e" --resume-from "$CK" > "$RB"
    cmp -s "$RA" "$RB" || { echo "check.sh: $e resumed run differs from uninterrupted" >&2; exit 1; }
done
rm -f "$CK" "$RA" "$RB"
echo "check.sh: pause/resume smoke OK"

# --- serve crash-recovery smoke test: kill a WAL-journaled campaign
# mid-write (exit 137), recover it from the WAL, and require the recovered
# decision journal to be byte-identical to an uninterrupted run's (and to
# the WAL body itself) ---
W=$(mktemp "$TMP/hbc-serve.XXXXXX.wal")
D1=$(mktemp "$TMP/hbc-serve.XXXXXX.log"); D2=$(mktemp "$TMP/hbc-serve.XXXXXX.log")
SERVE_CFG="--tenants 1 --jobs 3 --seed 42 --deadline 8000:8000 \
    --preempt-policy pause --max-preempts 50 --sanitize --verify"
"$REPRO" serve $SERVE_CFG --decisions "$D1" > /dev/null
rm -f "$W"   # --kill-after must start from an empty WAL, not mktemp's file
rc=0
"$REPRO" serve $SERVE_CFG --wal "$W" --kill-after 12 > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 137 ]; then
    echo "check.sh: injected WAL kill did not fire (exit $rc)" >&2
    exit 1
fi
"$REPRO" serve $SERVE_CFG --wal "$W" --decisions "$D2" > /dev/null
cmp -s "$D1" "$D2" || { echo "check.sh: recovered decisions differ from uninterrupted" >&2; exit 1; }
tail -n +2 "$W" | cmp -s - "$D2" || { echo "check.sh: WAL body differs from decisions" >&2; exit 1; }
rm -f "$W" "$D1" "$D2"
echo "check.sh: serve kill-and-recover smoke OK"

# --- perf-gate smoke test: emit a fresh report and diff it against the
# committed baseline; deterministic regressions exit non-zero here exactly
# as they do in CI ---
B=$(mktemp "$TMP/hbc-bench.XXXXXX.json")
"$REPRO" bench-report "$B" --label check > /dev/null
"$REPRO" bench-diff bench/baseline.json "$B"
rm -f "$B"

# --- domains-parallel campaign smoke test: a tiny campaign warmed across
# 2 domains must produce a journal and figure output byte-identical to the
# sequential run's ---
PDIR=$(mktemp -d "$TMP/hbc-par.XXXXXX")
"$REPRO" all --scale 0.01 --workers 4 --journal "$PDIR/j.jsonl" \
    > "$PDIR/seq.txt"
mv "$PDIR/j.jsonl" "$PDIR/seq.jsonl"
"$REPRO" all --scale 0.01 --workers 4 --journal "$PDIR/j.jsonl" \
    --parallel-trials 2 > "$PDIR/par.txt"
cmp -s "$PDIR/seq.jsonl" "$PDIR/j.jsonl" \
    || { echo "check.sh: parallel-trials journal differs from sequential" >&2; exit 1; }
cmp -s "$PDIR/seq.txt" "$PDIR/par.txt" \
    || { echo "check.sh: parallel-trials figure output differs from sequential" >&2; exit 1; }
rm -rf "$PDIR"
echo "check.sh: parallel-trials byte-identity OK"

# --- checkpoint/resume smoke test: seed a journal, kill a campaign, resume ---
if [ "${HBC_CHECK_SKIP_RESUME:-0}" = "1" ]; then
    echo "check.sh: skipping kill-and-resume test (HBC_CHECK_SKIP_RESUME=1)"
    exit 0
fi

J=$(mktemp "$TMP/hbc-journal.XXXXXX.jsonl")
trap 'rm -f "$J"' EXIT

# Seed the journal with one figure's trials.
"$REPRO" fig4 --journal "$J" --scale 0.02 --workers 8 > /dev/null
SEEDED=$(wc -l < "$J")
if [ "$SEEDED" -eq 0 ]; then
    echo "check.sh: journal empty after seeding run" >&2
    exit 1
fi

# Start a full campaign resuming from it, then kill it mid-flight (a crash,
# not a clean shutdown: resume must cope with whatever is on disk). The kill
# is guarded by a watchdog so a wedged campaign cannot hang the check.
"$REPRO" all --resume --journal "$J" --scale 0.02 --workers 8 > /dev/null 2>&1 &
PID=$!
sleep 3
kill -9 "$PID" 2>/dev/null || true
for _ in $(seq 1 20); do
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.5
done
wait "$PID" 2>/dev/null || true
KILLED=$(wc -l < "$J")

# Resume again: the journal must have grown, the completed figure's trials
# must be served from it, and the campaign must run to the end.
OUT=$("$REPRO" all --resume --journal "$J" --scale 0.02 --workers 8)
echo "$OUT" | grep -q "fig16" || { echo "check.sh: resumed campaign did not finish" >&2; exit 1; }
echo "$OUT" | grep -Eq "journal: [1-9][0-9]* reused" \
    || { echo "check.sh: resumed campaign reused no journaled trials" >&2; exit 1; }
# The final journal holds at least the seeded trials (a torn trailing line
# from the kill may legitimately be compacted away, so compare to SEEDED).
FINAL=$(wc -l < "$J")
if [ "$FINAL" -lt "$SEEDED" ] || [ "$KILLED" -lt "$SEEDED" ]; then
    echo "check.sh: journal shrank across resume ($SEEDED -> $KILLED -> $FINAL)" >&2
    exit 1
fi
echo "check.sh: kill-and-resume OK (journal $SEEDED -> $KILLED -> $FINAL lines)"
