#!/bin/sh
# store-check: the differential gate for the persistent result store. A
# cold vgen-eval run with -store must render TableIII / Figure6 / pass@k
# byte-identical to the store-less run, and a warm re-run over the same
# store directory must render the same bytes again with 100% hits — zero
# misses means zero backend completions, the cache's whole contract. The
# query layer must see the persisted sweep, and a second-seed sweep must
# land under its own identity (invalidation by identity, diffable). Shard
# results merged with -merge -store must bank once and then serve a warm
# render. Run via `make store-check`.
set -eu

GO=${GO:-go}
FLAGS="-seed 1 -n 4 -quick"
EXPERIMENTS="table3 fig6 passk"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

$GO build -o "$tmp/vgen-eval" ./cmd/vgen-eval
V="$tmp/vgen-eval"

store="$tmp/store"

for exp in $EXPERIMENTS; do
    # Golden: the store-less run. -store must never change rendered bytes.
    # shellcheck disable=SC2086
    "$V" $FLAGS -experiment "$exp" > "$tmp/golden-$exp.txt"

    # Cold: same sweep through a shared store; every cell computed once
    # and persisted (renderers overlap, so later experiments may already
    # hit cells an earlier one persisted — that is the point).
    # shellcheck disable=SC2086
    "$V" $FLAGS -experiment "$exp" -store "$store" -store-stats \
        > "$tmp/cold-$exp.txt" 2> "$tmp/cold-$exp.err"
    if ! cmp -s "$tmp/golden-$exp.txt" "$tmp/cold-$exp.txt"; then
        echo "store-check FAIL: $exp: cold -store output differs from store-less run" >&2
        diff "$tmp/golden-$exp.txt" "$tmp/cold-$exp.txt" >&2 || true
        exit 1
    fi
    echo "store-check ok: $exp cold"
done

for exp in $EXPERIMENTS; do
    # Warm: the whole sweep resident, so the run must serve every cell
    # from disk — "0 misses" in the stats line is the zero-backend-calls
    # proof (a miss is exactly a cell that reached the backend).
    # shellcheck disable=SC2086
    "$V" $FLAGS -experiment "$exp" -store "$store" -store-stats \
        > "$tmp/warm-$exp.txt" 2> "$tmp/warm-$exp.err"
    if ! cmp -s "$tmp/golden-$exp.txt" "$tmp/warm-$exp.txt"; then
        echo "store-check FAIL: $exp: warm -store output differs from store-less run" >&2
        diff "$tmp/golden-$exp.txt" "$tmp/warm-$exp.txt" >&2 || true
        exit 1
    fi
    if ! grep -q ", 0 misses," "$tmp/warm-$exp.err"; then
        echo "store-check FAIL: $exp: warm run hit the backend:" >&2
        grep "^store:" "$tmp/warm-$exp.err" >&2 || cat "$tmp/warm-$exp.err" >&2
        exit 1
    fi
    echo "store-check ok: $exp warm (0 misses)"
done

# The query layer must list the persisted sweep.
if ! "$V" -store "$store" -store-query all > "$tmp/query.txt" 2> "$tmp/query.err"; then
    echo "store-check FAIL: -store-query failed" >&2
    cat "$tmp/query.err" >&2
    exit 1
fi
cells=$(wc -l < "$tmp/query.txt")
if [ "$cells" -eq 0 ]; then
    echo "store-check FAIL: -store-query lists no cells after the sweeps" >&2
    exit 1
fi
echo "store-check ok: query lists $cells resident cell(s)"

# Identity keying: a second seed sweeps into its own namespace, and the
# diff between the two identities is well-formed (every cell present on
# both sides, none dropped).
# shellcheck disable=SC2086
"$V" -seed 2 -n 4 -quick -experiment table3 -store "$store" > /dev/null
if ! "$V" -store "$store" -store-diff "1..2" > "$tmp/diff.txt" 2> "$tmp/diff.err"; then
    echo "store-check FAIL: -store-diff failed" >&2
    cat "$tmp/diff.err" >&2
    exit 1
fi
if ! grep -q "^diff " "$tmp/diff.txt"; then
    echo "store-check FAIL: -store-diff printed no summary line" >&2
    cat "$tmp/diff.txt" >&2
    exit 1
fi
echo "store-check ok: $(head -1 "$tmp/diff.txt")"

# Merge banking: shard result files merged with -store into an empty
# store must bank every cell as new; a warm render over that store must
# serve every cell from disk, byte-identical to the store-less run; and
# merging the same shards again must find every cell already resident.
mstore="$tmp/merge-store"
files=""
for i in 0 1; do
    # shellcheck disable=SC2086
    "$V" $FLAGS -experiment table3 -shards 2 -shard "$i" -emit "$tmp/shard-$i.jsonl"
    files="$files,$tmp/shard-$i.jsonl"
done
# merge_lines TAG WANT: merge the shards into $mstore; every per-shard
# line of the summary must contain WANT.
merge_lines() {
    # shellcheck disable=SC2086
    if ! "$V" $FLAGS -experiment table3 -merge "${files#,}" -store "$mstore" \
        > "$tmp/merge-$1.txt" 2> "$tmp/merge-$1.err"; then
        echo "store-check FAIL: $1 merge -store failed" >&2
        cat "$tmp/merge-$1.err" >&2
        exit 1
    fi
    lines=$(grep -c "^shard " "$tmp/merge-$1.err" || true)
    if [ "$lines" -ne 2 ] || grep "^shard " "$tmp/merge-$1.err" | grep -qv "$2"; then
        echo "store-check FAIL: $1 merge: want 2 shard lines reading \"$2\":" >&2
        cat "$tmp/merge-$1.err" >&2
        exit 1
    fi
    echo "store-check ok: $1 merge (every shard line reads \"$2\")"
}
merge_lines first ", 0 already in store,"
# shellcheck disable=SC2086
"$V" $FLAGS -experiment table3 -store "$mstore" -store-stats \
    > "$tmp/merge-warm.txt" 2> "$tmp/merge-warm.err"
if ! cmp -s "$tmp/golden-table3.txt" "$tmp/merge-warm.txt"; then
    echo "store-check FAIL: warm render over the merged store differs from store-less run" >&2
    diff "$tmp/golden-table3.txt" "$tmp/merge-warm.txt" >&2 || true
    exit 1
fi
if ! grep -q ", 0 misses," "$tmp/merge-warm.err"; then
    echo "store-check FAIL: warm render over the merged store hit the backend:" >&2
    cat "$tmp/merge-warm.err" >&2
    exit 1
fi
echo "store-check ok: table3 warm over the merged store (0 misses)"
merge_lines repeat ", 0 newly persisted"

echo "store-check PASS: cold/warm byte-identical with 100% warm hits; query and diff see the sweep; merged shards bank once and serve warm"
