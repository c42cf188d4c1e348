#!/usr/bin/env bash
# Exact work-counter gate: the default 4x4 HMG machine running mst and
# lstm at scale 1 with trace seed 1 must execute exactly the recorded
# number of engine events and deliver exactly the recorded number of
# messages. These are deterministic counts, not timings, so the gate
# has no noise margin: any change to the event kernel that alters the
# schedule (a reordered tie, a lost or duplicated event) moves them.
# A change that is meant to alter the schedule updates the numbers here.
#
# The ledger cells never evict from their L2s, so a third cell shrinks
# the L2 to 1 MB per GPU: its eviction and hit counts pin the LRU victim
# choice end to end. The mst cell's L1 invalidated-line count pins the
# valid-line count that bulk invalidation reports.
# Run as: exact_counters.sh <path-to-hmgsim>
set -u

HMGSIM=${1:?usage: exact_counters.sh <path-to-hmgsim>}
fails=0

# expect "<workload> [flags]" <stat> <value>...: exact values from one
# --stats run.
expect() {
    local workload=$1
    shift
    local -a cell
    read -ra cell <<< "$workload"
    local dump
    if ! dump=$("$HMGSIM" --workload "${cell[@]}" --protocol hmg \
                --scale 1 --seed 1 --stats 2>&1); then
        echo "FAIL: $workload: hmgsim exited nonzero"
        fails=$((fails + 1))
        return
    fi
    while [ $# -gt 0 ]; do
        local key=$1 want=$2
        shift 2
        local got
        got=$(printf '%s\n' "$dump" | awk -v k="$key" '$1 == k { print $2 }')
        if [ "$got" = "$want" ]; then
            echo "ok:   $workload $key = $want"
        else
            echo "FAIL: $workload $key = '${got}', want $want"
            fails=$((fails + 1))
        fi
    done
}

expect mst engine.events 1311011 noc.delivered 293310 \
    sm_total.l1.invalidated_lines 69081
expect lstm engine.events 1490468 noc.delivered 97185
expect "mst --l2-mb 1" engine.events 1335198 noc.delivered 299244 \
    total.l2.evictions 92779 total.l2.load_hits 29055

if [ "$fails" -ne 0 ]; then
    echo "exact_counters: $fails mismatches"
    exit 1
fi
echo "exact_counters: all counts exact"
