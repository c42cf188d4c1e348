#!/usr/bin/env bash
# Runtime coherence checker at scale 1: mst, resnet and minicontact under
# NHCC and HMG on the default 4x4 machine, trace seed 1, must run clean
# under --check. These cells cover two races the smaller shapes never
# hit: a store landing at a home between the tag lookup and the data
# response of a hit there, and a write passing a home's pending fetch of
# the same line (the fill must not install the older answer).
# Run as: checked_scale1.sh <path-to-hmgsim>
set -u

HMGSIM=${1:?usage: checked_scale1.sh <path-to-hmgsim>}
fails=0
for workload in mst resnet minicontact; do
    for protocol in nhcc hmg; do
        err=$("$HMGSIM" --workload "$workload" --protocol "$protocol" \
                    --scale 1 --seed 1 --check 2>&1 > /dev/null)
        if [ $? -eq 0 ]; then
            echo "ok:   $workload $protocol"
        else
            # The panic line names the line, versions and floor.
            echo "FAIL: $workload $protocol: $(printf '%s\n' "$err" | tail -n 1)"
            fails=$((fails + 1))
        fi
    done
done
if [ "$fails" -ne 0 ]; then
    echo "checked_scale1: $fails cells failed --check"
    exit 1
fi
echo "checked_scale1: all cells clean"
