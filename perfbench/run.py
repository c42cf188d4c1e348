#!/usr/bin/env python3
"""Host-time benchmark of the HMG simulator.

    python3 perfbench/run.py --workload mst-hmg --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Builds perfbench/ (the simulator library plus hmgbench) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and prints, as its last stdout line, one JSON object with the
keys correct, attempted, failed and metrics.

--trace 0 gives the end-to-end metrics: warm host ns per memop (one
untimed warm-up per process, then runs back to back for --seconds in
all), cold host ns per memop and peak RSS (fresh processes, one run
each), and set-up time (trace generation plus Simulator construction,
median of the warm runs' set-ups). Warm runs come from ROUNDS processes
interleaved with the cold ones; medians are over the pooled samples.

--trace 1 gives the per-layer metrics from a separate traced process:
spans around every call into a module (written to
$CARGO_TARGET_DIR/spans/), the run's own StatRecorder counts, timed
layer replays, a serial run of partitioned cells, and the runtime
coherence checker's verdict from a child process (a violation aborts it).

Every run's exact stat digest must repeat within the invocation, and at
seed 1 must equal perfbench/reference.json. --record-reference rewrites
that file from seed-1 runs of every workload.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("mst-hmg", "lstm-hmg", "bfs-scaleout-lp4")
# A run is ROUNDS rounds of COLD_PER_ROUND cold processes and one warm
# process. Thread placement and memory layout differ per process, so the
# warm runs are spread over processes too, and interleaving lets cold and
# warm runs see the same host.
ROUNDS = 3
COLD_PER_ROUND = 3
CHILD_TIMEOUT_S = 60


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def out_dir():
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return out if out.is_absolute() else ROOT / out


def build():
    """Configure once, then build incrementally; returns the binary."""
    bdir = out_dir() / "perfbench"
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return bdir / "hmgbench"


class Child:
    """One hmgbench process; its JSON object, or why there is none."""

    def __init__(self, binary, mode, workload, seed, *extra):
        cmd = [str(binary), mode, "--workload", workload, "--seed", str(seed),
               "--root", str(ROOT), *extra]
        try:
            p = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.rc, self.stderr, self.result = None, "timed out", None
            return
        self.rc, self.stderr = p.returncode, p.stderr
        self.result = None
        if p.returncode == 0:
            try:
                self.result = json.loads(p.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                pass

    def error(self):
        tail = self.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {self.rc}: {tail[0]}"


class Ledger:
    """Attempted operations, and one error per failed one: an exception,
    a hang, memOps != trace.memOps(), a crashed child, or a check digest
    that differs from the reference (seed 1) or from its label's most
    common one (other seeds). Where the check digest covers only the
    trace-determined stats (threaded time-window cells, whose timing may
    legitimately differ between runs), the full-stat digests must still
    match in most runs."""

    def __init__(self, workload, seed):
        self.attempted = 0
        self.errors = []
        self.digests = {}  # (label, kind) -> one digest per run
        ref = json.loads(REFERENCE.read_text())
        self.ref = ref.get(workload, {}) if seed == ref["seed"] else None

    def add(self, sample_set, label="run"):
        """Take one hmgbench SampleSet object into the ledger."""
        self.attempted += sample_set["attempted"]
        self.errors += sample_set["errors"]
        for kind in ("digest", "full_digest"):
            self.digests.setdefault((label, kind), []).extend(
                sample_set[kind + "s"])

    def child_failed(self, child):
        self.attempted += 1
        self.errors.append(child.error())

    def mismatches(self, label, kind):
        """The expected digest and the runs that differ from it."""
        ds = self.digests.get((label, kind), [])
        if self.ref is not None:
            want = self.ref.get(label, {}).get(kind, "no reference")
        else:
            want = max(set(ds), key=ds.count) if ds else None
        return want, [d for d in ds if d != want], len(ds)

    def finish(self, metrics, spec):
        for label, kind in sorted(self.digests):
            want, bad, n = self.mismatches(label, kind)
            print(f"{label} {kind}: {n - len(bad)} of {n} runs equal {want}")
            if kind == "digest":
                self.errors += [f"{label} digest {d} != {want}" for d in bad]
            elif (2 * len(bad) > n and self.digests[label, "digest"]
                  != self.digests[label, "full_digest"]):
                self.errors.append(f"{label}: most full-stat digests "
                                   f"differ from {want}")
        for e in self.errors:
            log("error: " + e)
        units = {m["name"]: m["unit"] for m in spec}
        missing = set(units) - set(metrics)
        if missing:
            sys.exit("perfbench: no value for " + ", ".join(sorted(missing)))
        print(json.dumps({
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": min(len(self.errors), self.attempted),
            "metrics": {n: {"value": metrics[n], "unit": units[n]}
                        for n in units},
        }))


def summary(name, values, unit, scale=1.0):
    """Median, quartiles and count; a tail only with 10 samples beyond."""
    v = sorted(x * scale for x in values)
    n = len(v)
    med = statistics.median(v)
    line = (f"{name:<28} median {med:.6g} {unit}  n={n}  "
            f"min {v[0]:.6g}  max {v[-1]:.6g}")
    if n >= 4:
        q1, _, q3 = statistics.quantiles(v, n=4)
        line += f"  q1 {q1:.6g}  q3 {q3:.6g}"
    tails = [p for p in (99, 95, 90, 75) if n * (100 - p) / 100 >= 10]
    if tails:
        p = tails[0]
        line += f"  p{p} {statistics.quantiles(v, n=100)[p - 1]:.6g}"
    else:
        line += "  (no tail: <10 samples beyond p75)"
    print(line)
    return med


def end_to_end(binary, args, ledger):
    results = {"cold": [], "warm": []}
    for _ in range(ROUNDS):
        for mode in ["cold"] * COLD_PER_ROUND + ["warm"]:
            extra = (("--seconds", str(args.seconds / ROUNDS))
                     if mode == "warm" else ())
            c = Child(binary, mode, args.workload, args.seed, *extra)
            if c.result is None:
                ledger.child_failed(c)
                continue
            ledger.add(c.result)
            results[mode].append(c.result)
    cold, warm = results["cold"], results["warm"]
    pool = lambda key: [x for r in warm for x in r[key]]
    cold_run = [c["run_s"][0] for c in cold if c["run_s"]]
    if not pool("run_s") or not cold_run:
        sys.exit(f"perfbench: {args.workload}: no measurement: "
                 + "; ".join(ledger.errors))
    w = warm[-1]

    memops = w["memops"]
    setups = [m + b for m, b in zip(pool("make_s"), pool("build_s"))]
    print(f"{args.workload} seed {args.seed}: {memops} memops, "
          f"{w['events']} engine events, {w['cycles']} cycles")
    return {
        "host_ns_per_memop": summary("host_ns_per_memop (warm)",
                                     pool("run_s"), "ns", 1e9 / memops),
        "cold_ns_per_memop": summary("cold_ns_per_memop", cold_run, "ns",
                                     1e9 / memops),
        "setup_s": summary("setup_s (make+build)", setups, "s"),
        "peak_rss_mb": summary("peak_rss_mb (one-run process)",
                               [c["peak_rss_kb"] for c in cold], "MB",
                               1 / 1024),
    }


# ---- per-layer metrics -------------------------------------------------

def exact(x):
    """Integers in full; other values to 9 significant digits."""
    return str(int(x)) if float(x).is_integer() else f"{x:.9g}"


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(t, check_violations, divergent):
    """Per-layer metrics of one traced process, each with its base.

    The comment before each group names the end-to-end metric and
    workload it should move.
    """
    st = t["stats"]
    g = lambda k: st.get(k, 0.0)
    ports = lambda suffix: sum(v for k, v in st.items()
                               if k.startswith("noc.port.") and k.endswith(suffix))
    med = lambda xs: statistics.median(xs) if xs else 0.0
    un, tr, se, rp = t["untraced"], t["traced"], t["serial"], t["replay"]
    m = tr["memops"]
    events = g("engine.events")
    run_s = med(un["run_s"])
    loads = ["local_hit", "gpu_home_hit", "node_home_hit", "sys_home_hit",
             "dram"]
    served = sum(g("protocol.loads_" + k) for k in loads)
    replay = lambda layer, api, what: (rp[layer]["seconds"] * 1e9,
                                       f"{api} replay ns", rp[layer]["work"],
                                       f"replayed {what}")

    rows = [
        # -> setup_s on every workload; gpu.build_s most on bfs-scaleout-lp4
        ("trace.make_s", med(tr["make_s"]), "median of traced runs", 1),
        ("gpu.build_s", med(tr["build_s"]), "median of traced runs", 1),
        # -> host_ns_per_memop on every workload
        ("sim.events_per_memop", events, "engine.events", m, "memops"),
        ("sim.host_ns_per_event", run_s * 1e9, "untraced run ns", events,
         "engine.events"),
        ("sim.kernel_ns_per_event", *replay("sim", "Engine", "events")),
        # -> host_ns_per_memop on mst-hmg; no change predicted on lstm-hmg
        ("noc.msgs_per_memop", g("noc.delivered"), "noc.delivered", m,
         "memops"),
        ("noc.hops_per_msg", ports(".msgs"), "port msgs", g("noc.delivered"),
         "noc.delivered"),
        ("noc.qdelay_cycles_per_msg", ports(".qdelay_cycles"),
         "port qdelay cycles", ports(".qdelay_msgs"), "port qdelay msgs"),
        ("noc.inter_gpu_bytes_per_memop", g("noc.total_inter_bytes"),
         "noc.total_inter_bytes", m, "memops"),
        ("noc.replay_ns_per_msg", *replay("noc", "Network", "msgs")),
        # -> host_ns_per_memop on lstm-hmg; bulk invalidations on mst-hmg
        ("cache.l1_hit_ratio", g("sm_total.l1.load_hits"),
         "sm_total.l1.load_hits", g("sm_total.l1.loads"), "sm_total.l1.loads"),
        ("cache.l2_hit_ratio", g("total.l2.load_hits"), "total.l2.load_hits",
         g("total.l2.loads"), "total.l2.loads"),
        ("cache.l2_accesses_per_memop", g("total.l2.loads") + g("total.l2.stores"),
         "total.l2.loads+stores", m, "memops"),
        ("cache.bulk_invalidations",
         g("sm_total.l1.bulk_invalidations") + g("total.l2.bulk_invalidations"),
         "l1+l2 bulk_invalidations", 1),
        ("cache.invalidated_lines_per_memop",
         g("sm_total.l1.invalidated_lines") + g("total.l2.invalidated_lines"),
         "l1+l2 invalidated_lines", m, "memops"),
        ("cache.replay_ns_per_access", *replay("cache", "Cache", "accesses")),
        # -> host_ns_per_memop on mst-hmg
        ("core.dir_lookups_per_memop", g("total.dir.lookups"),
         "total.dir.lookups", m, "memops"),
        ("core.dir_hit_ratio", g("total.dir.hits"), "total.dir.hits",
         g("total.dir.lookups"), "total.dir.lookups"),
        ("core.dir_evictions", g("total.dir.evictions"), "total.dir.evictions", 1),
        ("core.inv_msgs_per_store", g("protocol.inv_msgs"), "protocol.inv_msgs",
         g("sm_total.stores"), "sm_total.stores"),
        *[("core.load_service." + k.replace("_hit", ""), g("protocol.loads_" + k),
           "protocol.loads_" + k, served, "loads served") for k in loads],
        ("core.replay_ns_per_lookup", *replay("core", "Directory", "lookups")),
        # -> host_ns_per_memop on mst-hmg
        ("mem.dram_reads_per_memop", g("total.dram.reads"), "total.dram.reads",
         m, "memops"),
        ("mem.pages_placed", g("mem.pages_placed"), "mem.pages_placed", 1),
        ("mem.replay_ns_per_access", *replay("mem", "PageTable", "accesses")),
        # -> host_ns_per_memop on bfs-scaleout-lp4 only (0 on serial cells)
        ("pdes.windows", g("pdes.windows"), "pdes.windows", 1),
        ("pdes.boundary_msgs_per_memop", g("pdes.boundary_msgs"),
         "pdes.boundary_msgs", m, "memops"),
        ("pdes.null_msgs", g("pdes.null_msgs"), "pdes.null_msgs", 1),
        ("pdes.lp_stall_windows", g("pdes.lp_stall_windows"),
         "pdes.lp_stall_windows", 1),
        ("pdes.cross_lp_posts", g("pdes.cross_lp_posts"), "pdes.cross_lp_posts", 1),
        ("pdes.credit_returns_per_memop", g("pdes.credit_returns"),
         "pdes.credit_returns", m, "memops"),
        ("pdes.divergent_runs", divergent[0],
         f"divergent full-stat digests (of {divergent[1]} runs)", 1),
        # serial cells have no partitioned run: speed-up 1, drift 0
        ("pdes.speedup_vs_serial", med(se["run_s"]) if se["run_s"] else run_s,
         "serial run s", run_s, "partitioned run s"),
        ("pdes.cycle_drift", tr["cycles"] - (se["cycles"] or tr["cycles"]),
         "cycles - serial cycles", se["cycles"] or tr["cycles"], "serial cycles"),
        # -> host_ns_per_memop, marginally
        ("stats.report_s", med(tr["report_s"]), "median second reportStats", 1),
        ("stats.keys", len(st), "StatRecorder::all() entries", 1),
        # reference only
        ("model.cycles", tr["cycles"], "simulated cycles", 1),
        ("check.violations", check_violations,
         "coherence violations (the checker aborts at the first)", 1),
        ("bench.tracing_overhead", med(tr["run_s"]), "traced run s", run_s,
         "untraced run s"),
    ]
    metrics = {}
    for name, num, num_base, den, *den_base in rows:
        metrics[name] = ratio(num, den)
        base = f"{num_base} {exact(num)}"
        if den_base:
            base += f" / {den_base[0]} {exact(den)}"
        print(f"{name:<34} {metrics[name]:<14.6g} = {base}")
    return metrics


def span_table(path):
    """Count, total and self time per span name (self = minus children)."""
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = (child.get(s["parent"], 0)
                                  + s["end_ns"] - s["start_ns"])
    rows = {}
    for s in spans:
        total = s["end_ns"] - s["start_ns"]
        r = rows.setdefault(s["name"], [0, 0, 0])
        r[0] += 1
        r[1] += total
        r[2] += total - child.get(s["id"], 0)
    print(f"spans ({path}):")
    for name, (n, total, own) in rows.items():
        print(f"  {name:<18} n={n:<3} total {total / 1e6:10.3f} ms  "
              f"self {own / 1e6:10.3f} ms")


def check_violations(binary, args, ledger):
    """0 if the checker run completes; 1 if it aborts on a violation."""
    c = Child(binary, "check", args.workload, args.seed)
    if c.result is not None:
        return c.result["violations"]
    if c.rc == -signal.SIGABRT and "coherence violation" in c.stderr:
        log("checker: " + c.stderr.strip().splitlines()[-1])
        return 1
    ledger.child_failed(c)
    return 0


def traced(binary, args, ledger):
    spans = out_dir() / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    t = Child(binary, "trace", args.workload, args.seed, "--spans", str(spans))
    if t.result is None:
        sys.exit(f"perfbench: {args.workload}: no measurement: {t.error()}")
    r = t.result
    for label in ("untraced", "traced", "serial"):
        if r[label]["attempted"]:
            ledger.add(r[label], "serial" if label == "serial" else "run")
    violations = check_violations(binary, args, ledger)
    _, bad, n = ledger.mismatches("run", "full_digest")
    print(f"{args.workload} seed {args.seed} (traced):")
    metrics = per_layer(r, violations, (len(bad), n))
    span_table(spans)
    return metrics


def record_reference(binary, seed):
    """Rewrite reference.json from one traced process per workload: its
    run, and for partitioned cells its serial run."""
    ref = {"seed": seed}
    for w in WORKLOADS:
        c = Child(binary, "trace", w, seed)
        if c.result is None:
            sys.exit(f"perfbench: {w}: {c.error()}")
        ref[w] = {}
        for label in ("traced", "serial"):
            s = c.result[label]
            if s["attempted"] and not s["errors"]:
                ref[w]["run" if label == "traced" else "serial"] = {
                    "memops": s["memops"], "events": s["events"],
                    "cycles": s["cycles"], "digest": s["digests"][0],
                    "full_digest": s["full_digests"][0]}
    REFERENCE.write_text(json.dumps(ref, indent=2) + "\n")
    log(f"wrote {REFERENCE}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    help="all: each workload in turn, one JSON line each")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    if args.record_reference:
        record_reference(binary, args.seed)
        return
    if args.workload is None:
        ap.error("--workload is required")

    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        args.workload = workload
        ledger = Ledger(workload, args.seed)
        t0 = time.monotonic()
        if args.trace:
            metrics, names = traced(binary, args, ledger), spec["per_layer"]
        else:
            metrics, names = end_to_end(binary, args, ledger), spec["end_to_end"]
        log(f"perfbench: {workload} measured in {time.monotonic() - t0:.1f} s")
        ledger.finish(metrics, names)


if __name__ == "__main__":
    main()
