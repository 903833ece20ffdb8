#!/bin/sh
# coord-check: the differential gate for supervised sweeps. A 4-way
# supervised run with subprocess workers and two injected crashes must
# retry its way to table/figure output byte-identical to the monolithic
# single-process run; a persistently failing shard must degrade to an
# explicit partial result that a restarted coordinator then completes by
# resuming the durable shards. Run via `make coord-check`.
set -eu

GO=${GO:-go}
SHARDS=4
# mutant backend: deterministic, no corpus build — the supervision
# machinery under test is backend-agnostic (shard-check covers family)
FLAGS="-backend mutant -seed 1 -quick -n 4"
EXPERIMENTS="table3 fig6 passk"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The supervised-sweep proof starts from a lint-clean tree: byte-identical
# merges assume no stray map-order or wall-clock dependence anywhere in
# the pipeline, which is exactly what the analyzers enforce.
$GO run ./cmd/vgen-check ./...

$GO build -o "$tmp/vgen-eval" ./cmd/vgen-eval
$GO build -o "$tmp/vgen-coord" ./cmd/vgen-coord
V="$tmp/vgen-eval"
C="$tmp/vgen-coord"

# Supervised with faults vs monolithic, byte-for-byte. Two crashes on
# different shards plus a truncated "success" exercise retry and the
# decode-validation gate in one run; -proc makes the workers real
# subprocesses of this binary.
for exp in $EXPERIMENTS; do
    # shellcheck disable=SC2086
    "$V" $FLAGS -experiment "$exp" > "$tmp/golden-$exp.txt"
    # shellcheck disable=SC2086
    if ! "$C" $FLAGS -experiment "$exp" -shards "$SHARDS" -parallel 2 -proc \
        -dir "$tmp/state-$exp" -fault 'crash:1:1,crash:3:1,truncate:0:1' \
        -backoff 5ms > "$tmp/coord-$exp.txt" 2> "$tmp/coord-$exp.err"; then
        echo "coord-check FAIL: $exp: supervised run failed" >&2
        cat "$tmp/coord-$exp.err" >&2
        exit 1
    fi
    if ! cmp -s "$tmp/golden-$exp.txt" "$tmp/coord-$exp.txt"; then
        echo "coord-check FAIL: $exp: supervised output differs from single-process" >&2
        diff "$tmp/golden-$exp.txt" "$tmp/coord-$exp.txt" >&2 || true
        exit 1
    fi
    if ! grep -q 'retry in' "$tmp/coord-$exp.err"; then
        echo "coord-check FAIL: $exp: injected faults produced no retries" >&2
        exit 1
    fi
    echo "coord-check ok: $exp supervised (2 crashes + 1 truncation) == monolithic"
done

# Degrade-and-resume: shard 2 crashes on every attempt, so the first
# coordinator life must exit non-zero with an explicit partial report —
# never a silent gap — and a second life on the same directory must
# resume the durable shards and finish byte-identically.
D="$tmp/state-resume"
# shellcheck disable=SC2086
if "$C" $FLAGS -experiment table3 -shards "$SHARDS" -parallel 2 \
    -dir "$D" -fault 'crash:2:*' -max-attempts 2 -backoff 2ms \
    > /dev/null 2> "$tmp/partial.err"; then
    echo "coord-check FAIL: exhausted retries exited zero without -allow-partial" >&2
    exit 1
fi
if ! grep -q 'PARTIAL' "$tmp/partial.err" || ! grep -q 'shard 2' "$tmp/partial.err"; then
    echo "coord-check FAIL: partial run did not report its gap" >&2
    cat "$tmp/partial.err" >&2
    exit 1
fi
# shellcheck disable=SC2086
"$C" $FLAGS -experiment table3 -shards "$SHARDS" -parallel 2 -dir "$D" \
    -backoff 2ms > "$tmp/resumed.txt" 2> "$tmp/resumed.err"
if ! cmp -s "$tmp/golden-table3.txt" "$tmp/resumed.txt"; then
    echo "coord-check FAIL: resumed run differs from single-process" >&2
    diff "$tmp/golden-table3.txt" "$tmp/resumed.txt" >&2 || true
    exit 1
fi
if [ "$(grep -c 'resumed from durable result' "$tmp/resumed.err")" -ne 3 ]; then
    echo "coord-check FAIL: resume recomputed shards it should have adopted" >&2
    cat "$tmp/resumed.err" >&2
    exit 1
fi
echo "coord-check ok: exhausted retries degrade to explicit partial; resume completes it"

# The durable shard files are ordinary wire files: vgen-eval must merge
# them to the same bytes, and a partial subset must merge only under
# -allow-partial.
files="$D/shard-0.jsonl,$D/shard-1.jsonl,$D/shard-2.jsonl,$D/shard-3.jsonl"
# shellcheck disable=SC2086
"$V" $FLAGS -experiment table3 -merge "$files" > "$tmp/merged.txt" 2> /dev/null
if ! cmp -s "$tmp/golden-table3.txt" "$tmp/merged.txt"; then
    echo "coord-check FAIL: vgen-eval merge of coordinator shards differs" >&2
    exit 1
fi
partial="$D/shard-0.jsonl,$D/shard-1.jsonl,$D/shard-3.jsonl"
# shellcheck disable=SC2086
if "$V" $FLAGS -experiment table3 -merge "$partial" > /dev/null 2> /dev/null; then
    echo "coord-check FAIL: strict merge accepted a missing shard" >&2
    exit 1
fi
# shellcheck disable=SC2086
if ! "$V" $FLAGS -experiment table3 -merge "$partial" -allow-partial \
    > /dev/null 2> "$tmp/allow.err"; then
    echo "coord-check FAIL: -allow-partial merge failed" >&2
    cat "$tmp/allow.err" >&2
    exit 1
fi
if ! grep -q 'missing shard(s) \[2\]' "$tmp/allow.err"; then
    echo "coord-check FAIL: -allow-partial did not report the missing shard" >&2
    cat "$tmp/allow.err" >&2
    exit 1
fi
echo "coord-check ok: coordinator shards interoperate with vgen-eval -merge/-allow-partial"

# Replay through the coordinator: -proc workers receive -replay on the
# argv the coordinator builds and must render the same bytes as a
# monolithic replay of the same recording.
RFLAGS="-seed 1 -quick -n 4"
# shellcheck disable=SC2086
"$V" $FLAGS -experiment table3 -record "$tmp/rec.jsonl" > /dev/null
# shellcheck disable=SC2086
"$V" $RFLAGS -experiment table3 -replay "$tmp/rec.jsonl" > "$tmp/replay-eval.txt"
# shellcheck disable=SC2086
if ! "$C" $RFLAGS -experiment table3 -replay "$tmp/rec.jsonl" -shards "$SHARDS" \
    -parallel 2 -proc -quiet -dir "$tmp/state-replay" \
    > "$tmp/replay-coord.txt" 2> "$tmp/replay-coord.err"; then
    echo "coord-check FAIL: vgen-coord -proc -replay run failed" >&2
    cat "$tmp/replay-coord.err" >&2
    exit 1
fi
if ! cmp -s "$tmp/replay-eval.txt" "$tmp/replay-coord.txt"; then
    echo "coord-check FAIL: vgen-coord -proc -replay differs from vgen-eval -replay" >&2
    diff "$tmp/replay-eval.txt" "$tmp/replay-coord.txt" >&2 || true
    exit 1
fi
echo "coord-check ok: table3 replayed through -proc workers == vgen-eval -replay"

# An unknown backend is a usage error (exit 2) in both commands.
for bin in "$V" "$C"; do
    status=0
    "$bin" -backend bogus 2> "$tmp/bogus.err" || status=$?
    if [ "$status" -ne 2 ] || ! grep -q 'unknown backend "bogus"' "$tmp/bogus.err"; then
        echo "coord-check FAIL: $(basename "$bin") -backend bogus exited $status, want usage error 2" >&2
        cat "$tmp/bogus.err" >&2
        exit 1
    fi
done
echo "coord-check ok: -backend bogus is a usage error"

echo "coord-check PASS: supervised sweeps with injected faults are byte-identical and degrade explicitly"
