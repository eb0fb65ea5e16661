#!/bin/sh
# Serve one quick figure through a real ibpd process, started the way
# the CI daemon gates start it: a two-lane daemon whose environment
# pins single-threaded lanes and leaves the trace scale unset, and a
# client with neither knob set. The client's run config travels with
# the request, so the daemon must serve the job (no in-process
# fallback) and the served artifact must equal the in-process one at
# zero tolerance.
#
# usage: ibpd_smoke.sh IBPD BENCH REPORT_DIFF WORKDIR
set -eu

ibpd=$1
bench=$2
report_diff=$3
work=$4

rm -rf "$work"
mkdir -p "$work"
socket="$work/ibpd.sock"

env -u IBP_EVENTS IBP_THREADS=1 \
    "$ibpd" --socket="$socket" --state="$work/state" --lanes=2 \
    > "$work/ibpd.log" 2>&1 &
pid=$!
stop() {
    kill -TERM "$pid" 2> /dev/null || true
    wait "$pid" 2> /dev/null || true
}
trap stop EXIT

i=0
while [ ! -S "$socket" ] && [ "$i" -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
done

env -u IBP_EVENTS -u IBP_THREADS \
    "$bench" --quick --json="$work/local/" > "$work/local.log"
env -u IBP_EVENTS -u IBP_THREADS \
    "$bench" --quick --daemon="$socket" --daemon-timeout=120 \
    --json="$work/served/" > "$work/served.log"

if ! "$report_diff" --require-served --abs=0 --rel=0 \
    "$work/served/fig02.json" "$work/local/fig02.json"; then
    cat "$work/ibpd.log"
    exit 1
fi

# A graceful drain exits 0.
kill -TERM "$pid"
trap - EXIT
wait "$pid"
