#!/bin/sh
# Launch a local fleet: N simdserve nodes with checkpoint spools, fronted
# by one simdfleet coordinator.  Ctrl-C tears everything down.
# Used by `make fleet`; the CI smoke test drives the same topology.
#
# Flags (also settable via the environment variable of the same purpose):
#   -n COUNT      number of nodes (default 3, env FLEET_NODES)
#   -p PORT       first node port; nodes take PORT, PORT+1, ... (default
#                 18081, env FLEET_BASE_PORT)
#   -c ADDR       coordinator listen address (default 127.0.0.1:18080,
#                 env COORD_ADDR)
#   -s INTERVAL   steal sweep cadence passed to simdfleet -steal: each
#                 sweep asks one node to split a running job over idle
#                 nodes, and that node drives the shards; empty disables
#                 cross-node work stealing (env FLEET_STEAL)
set -eu

BIN=${BIN:-./bin}
BASE=${FLEET_DIR:-/tmp/simdfleet-local}
COORD_ADDR=${COORD_ADDR:-127.0.0.1:18080}
COUNT=${FLEET_NODES:-3}
BASE_PORT=${FLEET_BASE_PORT:-18081}
STEAL=${FLEET_STEAL:-}

usage() {
    echo "usage: $0 [-n nodes] [-p base-port] [-c coord-addr] [-s steal-interval]" >&2
    exit 2
}
while getopts "n:p:c:s:h" opt; do
    case $opt in
    n) COUNT=$OPTARG ;;
    p) BASE_PORT=$OPTARG ;;
    c) COORD_ADDR=$OPTARG ;;
    s) STEAL=$OPTARG ;;
    h | *) usage ;;
    esac
done
shift $((OPTIND - 1))
[ $# -eq 0 ] || usage
case $COUNT in
'' | *[!0-9]*) echo "node count must be a positive integer, got '$COUNT'" >&2; exit 2 ;;
esac
[ "$COUNT" -ge 1 ] || { echo "need at least one node" >&2; exit 2; }

NODE_PORTS=""
i=0
while [ "$i" -lt "$COUNT" ]; do
    NODE_PORTS="$NODE_PORTS $((BASE_PORT + i))"
    i=$((i + 1))
done

mkdir -p "$BASE"
PIDS=""
cleanup() {
    # shellcheck disable=SC2086
    [ -n "$PIDS" ] && kill $PIDS 2>/dev/null || true
    wait 2>/dev/null || true
}
trap cleanup INT TERM EXIT

NODES=""
for port in $NODE_PORTS; do
    mkdir -p "$BASE/n$port"
    "$BIN/simdserve" -addr "127.0.0.1:$port" -spool "$BASE/n$port" -checkpoint-every 200 &
    PIDS="$PIDS $!"
    NODES="$NODES,http://127.0.0.1:$port"
done
NODES=${NODES#,}

# Wait for every node to answer before starting the coordinator.
for port in $NODE_PORTS; do
    i=0
    until curl -sf "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -ge 50 ] && { echo "node on :$port never came up" >&2; exit 1; }
        sleep 0.2
    done
done

echo "fleet: $COUNT node(s) up ($NODES); coordinator on $COORD_ADDR"
if [ -n "$STEAL" ]; then
    "$BIN/simdfleet" -addr "$COORD_ADDR" -nodes "$NODES" -probe 1s -sync 1s -steal "$STEAL" &
else
    "$BIN/simdfleet" -addr "$COORD_ADDR" -nodes "$NODES" -probe 1s -sync 1s &
fi
PIDS="$PIDS $!"

wait
