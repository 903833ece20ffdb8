#!/bin/sh
# shard-check: the differential gate for distributed sweeps. A 4-way
# sharded, serialized, merged sweep must reproduce the single-process
# TableIII / Figure6 / pass@k output byte-for-byte at all five paper
# temperatures, for both the family and replay backends; so must the
# family backend at -workers 1 and 4, plain and under -record; the serialized
# shard-plan path (-emit-plan / -from-plan) must produce the same shard
# result file as direct execution. Run via `make shard-check`.
set -eu

GO=${GO:-go}
SHARDS=4
FLAGS="-seed 1 -n 4"
EXPERIMENTS="table3 fig6 passk"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

$GO build -o "$tmp/vgen-eval" ./cmd/vgen-eval
V="$tmp/vgen-eval"

# check BACKEND_ARGS EXPERIMENT TAG: golden single-process run vs 4-way
# sharded + serialized + merged run, compared byte-for-byte.
check() {
    backend_args=$1 exp=$2 tag=$3
    # shellcheck disable=SC2086
    "$V" $FLAGS $backend_args -experiment "$exp" > "$tmp/golden-$tag-$exp.txt"
    files=""
    i=0
    while [ "$i" -lt "$SHARDS" ]; do
        f="$tmp/$tag-$exp-s$i.jsonl"
        # shellcheck disable=SC2086
        "$V" $FLAGS $backend_args -experiment "$exp" -shards "$SHARDS" -shard "$i" -emit "$f"
        files="$files,$f"
        i=$((i+1))
    done
    # keep merge stderr (identity mismatches, missing-cell lists): it is
    # the only diagnostic when the gate trips
    if ! "$V" $FLAGS -experiment "$exp" -merge "${files#,}" \
        > "$tmp/merged-$tag-$exp.txt" 2> "$tmp/merged-$tag-$exp.err"; then
        echo "shard-check FAIL: $tag/$exp: merge failed" >&2
        cat "$tmp/merged-$tag-$exp.err" >&2
        exit 1
    fi
    if ! cmp -s "$tmp/golden-$tag-$exp.txt" "$tmp/merged-$tag-$exp.txt"; then
        echo "shard-check FAIL: $tag/$exp: sharded+merged output differs from single-process" >&2
        diff "$tmp/golden-$tag-$exp.txt" "$tmp/merged-$tag-$exp.txt" >&2 || true
        exit 1
    fi
    echo "shard-check ok: $tag/$exp"
}

for exp in $EXPERIMENTS; do
    check "" "$exp" family
done

# Pool width and recording: the family backend's output at one worker and
# at four, each plain and under -record (a BatchBackend, so the batched
# path, with the recorder forwarding the family's prepare tasks), must
# equal the golden run byte-for-byte. The four-worker recordings feed the
# replay check below.
for exp in $EXPERIMENTS; do
    for args in "-workers 1" "-workers 4" \
        "-workers 1 -record $tmp/rec1-$exp.jsonl" "-workers 4 -record $tmp/rec-$exp.jsonl"; do
        # shellcheck disable=SC2086
        "$V" $FLAGS $args -experiment "$exp" > "$tmp/variant-$exp.txt"
        if ! cmp -s "$tmp/golden-family-$exp.txt" "$tmp/variant-$exp.txt"; then
            echo "shard-check FAIL: family/$exp: output with $args differs from the golden run" >&2
            diff "$tmp/golden-family-$exp.txt" "$tmp/variant-$exp.txt" >&2 || true
            exit 1
        fi
        case $args in *-record*) args="${args%% -record*} -record" ;; esac
        echo "shard-check ok: family/$exp $args"
    done
done

# Replay backend: run the whole differential again over the recordings
# of the same sweeps. Recordings concatenate cleanly
# (coordinate-addressed, later lines win).
cat "$tmp"/rec-*.jsonl > "$tmp/recording.jsonl"
for exp in $EXPERIMENTS; do
    check "-replay $tmp/recording.jsonl" "$exp" replay
done

# Serialized-plan path: a worker executing the coordinator's plan file
# must emit the identical shard result file as direct -shard execution.
# shellcheck disable=SC2086
"$V" $FLAGS -experiment table3 -shards "$SHARDS" -shard 1 -emit-plan "$tmp/plan-s1.jsonl"
# shellcheck disable=SC2086
"$V" $FLAGS -from-plan "$tmp/plan-s1.jsonl" -emit "$tmp/plan-s1-out.jsonl"
if ! cmp -s "$tmp/plan-s1-out.jsonl" "$tmp/family-table3-s1.jsonl"; then
    echo "shard-check FAIL: -from-plan result differs from direct -shard execution" >&2
    exit 1
fi
echo "shard-check ok: plan round trip"

echo "shard-check PASS: $SHARDS-way shard+merge is byte-identical for family and replay"
