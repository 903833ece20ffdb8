#!/bin/sh
# serve-check: the differential gate for the remote backend. vgen-eval
# driving the whole sweep through `vgen-serve -backend family` over
# loopback HTTP must reproduce the in-process TableIII / Figure6 /
# pass@k output byte-for-byte, and the recording auto-paired with the
# remote run must replay to the same bytes with no server at all. A
# supervised vgen-coord run whose -proc workers reach an auth-requiring
# server must render the same TableIII. Run via `make serve-check`.
set -eu

GO=${GO:-go}
FLAGS="-seed 1 -n 4"
EXPERIMENTS="table3 fig6 passk"

tmp=$(mktemp -d)
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

$GO build -o "$tmp/vgen-eval" ./cmd/vgen-eval
$GO build -o "$tmp/vgen-serve" ./cmd/vgen-serve
$GO build -o "$tmp/vgen-coord" ./cmd/vgen-coord
V="$tmp/vgen-eval"
C="$tmp/vgen-coord"

# serve LOG [ARGS...]: serve the family backend on an ephemeral port in
# the background, with SERVER_PID and URL set once it is up; the
# atomically-written url file is the readiness signal.
serve() {
    log=$1
    shift
    rm -f "$tmp/url.txt"
    "$tmp/vgen-serve" -backend family -seed 1 -addr 127.0.0.1:0 \
        -url-file "$tmp/url.txt" "$@" 2> "$log" &
    SERVER_PID=$!
    i=0
    while [ ! -s "$tmp/url.txt" ]; do
        if ! kill -0 "$SERVER_PID" 2>/dev/null; then
            echo "serve-check FAIL: vgen-serve died during startup" >&2
            cat "$log" >&2
            exit 1
        fi
        i=$((i+1))
        if [ "$i" -gt 600 ]; then
            echo "serve-check FAIL: vgen-serve produced no url file" >&2
            exit 1
        fi
        sleep 0.1
    done
    URL=$(cat "$tmp/url.txt")
}

# stop_server: stop the running vgen-serve and wait for it to exit.
stop_server() {
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=""
}

serve "$tmp/serve.log"
echo "serve-check: family backend serving at $URL"

for exp in $EXPERIMENTS; do
    # shellcheck disable=SC2086
    "$V" $FLAGS -experiment "$exp" > "$tmp/golden-$exp.txt"
    # shellcheck disable=SC2086
    if ! "$V" $FLAGS -experiment "$exp" -endpoint "$URL" \
        -record "$tmp/rec-$exp.jsonl" \
        > "$tmp/remote-$exp.txt" 2> "$tmp/remote-$exp.err"; then
        echo "serve-check FAIL: $exp: remote run failed" >&2
        cat "$tmp/remote-$exp.err" >&2
        exit 1
    fi
    if ! cmp -s "$tmp/golden-$exp.txt" "$tmp/remote-$exp.txt"; then
        echo "serve-check FAIL: $exp: remote output differs from in-process" >&2
        diff "$tmp/golden-$exp.txt" "$tmp/remote-$exp.txt" >&2 || true
        exit 1
    fi
    echo "serve-check ok: $exp via $URL"
done

# The recorder pairing: replaying the remote run's recording must render
# the same bytes offline. Recordings concatenate cleanly
# (coordinate-addressed, later lines win).
stop_server
cat "$tmp"/rec-*.jsonl > "$tmp/recording.jsonl"
for exp in $EXPERIMENTS; do
    # shellcheck disable=SC2086
    "$V" $FLAGS -experiment "$exp" -replay "$tmp/recording.jsonl" \
        > "$tmp/replayed-$exp.txt"
    if ! cmp -s "$tmp/golden-$exp.txt" "$tmp/replayed-$exp.txt"; then
        echo "serve-check FAIL: $exp: replayed recording differs from in-process" >&2
        diff "$tmp/golden-$exp.txt" "$tmp/replayed-$exp.txt" >&2 || true
        exit 1
    fi
    echo "serve-check ok: $exp replayed offline"
done

# The coordinator's worker argv: a supervised 4-shard run whose -proc
# workers reach an auth-requiring server. Each worker sees the endpoint,
# the non-default transport and batch settings, and the token only
# through the argv the coordinator builds and the environment it
# inherits; a dropped flag shows as an auth failure or a different table.
VGEN_SERVE_CHECK_TOKEN="serve-check-$$"
export VGEN_SERVE_CHECK_TOKEN
serve "$tmp/serve-auth.log" -auth-env VGEN_SERVE_CHECK_TOKEN
echo "serve-check: auth-requiring family backend serving at $URL"
# shellcheck disable=SC2086
if ! "$C" $FLAGS -experiment table3 -shards 4 -parallel 2 -proc -quiet \
    -dir "$tmp/coord-state" -endpoint "$URL" -auth-env VGEN_SERVE_CHECK_TOKEN \
    -remote-attempts 7 -batch 5 \
    > "$tmp/coord-table3.txt" 2> "$tmp/coord-table3.err"; then
    echo "serve-check FAIL: table3: vgen-coord -proc remote run failed" >&2
    cat "$tmp/coord-table3.err" >&2
    exit 1
fi
stop_server
if ! cmp -s "$tmp/golden-table3.txt" "$tmp/coord-table3.txt"; then
    echo "serve-check FAIL: table3: vgen-coord -proc remote output differs from in-process" >&2
    diff "$tmp/golden-table3.txt" "$tmp/coord-table3.txt" >&2 || true
    exit 1
fi
echo "serve-check ok: table3 via vgen-coord -proc workers and an auth-requiring server"

echo "serve-check PASS: remote sweeps and the recording are byte-identical to in-process"
