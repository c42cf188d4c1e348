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
# valid-line count that bulk invalidation reports. The mst and lstm
# cells also pin the SM front end: ops executed, loads answered from the
# store buffer, and loads merged into an in-flight L2 miss.
#
# Every protocol family walks the same home chain, so one cell per
# family (SW-Hier, the no-remote-caching baseline, NHCC, Ideal) and an
# HMG cell on the two-node topology (the live node tier) pin the event
# and message counts and where each load found its data
# (protocol.loads_*).
#
# A last HMG mst cell shrinks the directory to 256 entries per GPM and
# relays .sys releases: its directory evictions fan invalidations, so it
# pins the invalidation statistics of both causes (a store and a
# directory eviction) and the release-marker count.
# Run as: exact_counters.sh <path-to-hmgsim> <source-root>
set -u

HMGSIM=${1:?usage: exact_counters.sh <path-to-hmgsim> <source-root>}
SRC=${2:?usage: exact_counters.sh <path-to-hmgsim> <source-root>}
case $HMGSIM in
    /*) ;;
    *) HMGSIM=$PWD/$HMGSIM ;;
esac
# Cells name topology files relative to the source root.
cd "$SRC" || exit 1
fails=0

# expect "<workload> [flags]" <stat> <value>...: exact values from one
# --stats run at scale 1, trace seed 1, HMG unless the cell's flags say
# otherwise (they come last, so they override the defaults).
expect() {
    local workload=$1
    shift
    local -a cell
    read -ra cell <<< "$workload"
    local dump
    if ! dump=$("$HMGSIM" --protocol hmg --scale 1 --seed 1 --stats \
                --workload "${cell[@]}" 2>&1); then
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
    sm_total.l1.invalidated_lines 69081 \
    sm_total.ops 99872 sm_total.sb_forwards 8 total.mshr_merges 2542 \
    protocol.loads_local_hit 1594 protocol.loads_gpu_home_hit 6026 \
    protocol.loads_sys_home_hit 25308 protocol.loads_dram 33683
expect lstm engine.events 1490468 noc.delivered 97185 \
    sm_total.ops 239664 sm_total.sb_forwards 0 total.mshr_merges 78061 \
    protocol.loads_local_hit 14304 protocol.loads_gpu_home_hit 3576 \
    protocol.loads_sys_home_hit 104615 protocol.loads_dram 20628
expect "mst --l2-mb 1" engine.events 1335198 noc.delivered 299244 \
    total.l2.evictions 92779 total.l2.load_hits 29055
expect "mst --protocol swh" engine.events 1235954 noc.delivered 229233 \
    protocol.loads_local_hit 361 protocol.loads_gpu_home_hit 897 \
    protocol.loads_sys_home_hit 5539 protocol.loads_dram 58930
expect "mst --protocol baseline" engine.events 1048116 \
    noc.delivered 150742 \
    protocol.loads_local_hit 65 protocol.loads_gpu_home_hit 0 \
    protocol.loads_sys_home_hit 2844 protocol.loads_dram 63271
expect "mst --protocol nhcc" engine.events 1576552 noc.delivered 404145 \
    protocol.loads_local_hit 1940 protocol.loads_gpu_home_hit 0 \
    protocol.loads_sys_home_hit 31957 protocol.loads_dram 33733
expect "lstm --protocol ideal" engine.events 1452410 noc.delivered 77760 \
    protocol.loads_local_hit 20736 protocol.loads_gpu_home_hit 5184 \
    protocol.loads_sys_home_hit 103007 protocol.loads_dram 20628
expect "mst --topology examples/topologies/two_node_2x2x2.json" \
    engine.events 1656967 noc.delivered 259691 \
    protocol.loads_local_hit 1604 protocol.loads_gpu_home_hit 6796 \
    protocol.loads_node_home_hit 2138 protocol.loads_sys_home_hit 22026 \
    protocol.loads_dram 35458
expect "mst --dir-entries 256 --hier-release" \
    engine.events 1495005 noc.delivered 375875 \
    protocol.store_inv_events 9318 protocol.store_inv_lines 13397 \
    protocol.evict_inv_events 56714 protocol.evict_inv_lines 93944 \
    protocol.rel_markers 23040 protocol.releases 7680

if [ "$fails" -ne 0 ]; then
    echo "exact_counters: $fails mismatches"
    exit 1
fi
echo "exact_counters: all counts exact"
