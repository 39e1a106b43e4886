#!/usr/bin/env python3
"""Repository benchmark: three workloads timed end to end and split per layer.

    python3 perfbench/run.py --workload fig2-deep|table2-wide|svc-tenants \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The first run builds perfbench/ (the
library, the real bfv_serve and the harness) in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later runs reuse the build.

The seed generates each workload's manifest lines (and, for svc-tenants,
its arrival schedule); the program receives only those lines. Every
verdict is checked against a reference independent of the BDD stack:
closed forms for the generator families, explicit-state search
(circuit::explicitReach, via `perfbench_harness reference`) for the rest.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics (from a separate traced run) with
--trace 1. perfbench/README.md defines every metric.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
SERVER = os.path.join(BUILD_DIR, "bfv_serve")
TENANTS = "data/svc_tenants.conf"
HARNESS_TIMEOUT = 170  # seconds; a run must end within 180

# A job that was rejected or failed misses every latency limit; it enters
# the latency percentiles with this value.
MISSED_S = 1e9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_geomean_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "jobs_per_s": "1/s",
    "verified_share": "ratio",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "circuit.resolve_s": "s",
    "sym.space_s": "s",
    "sym.tr_build_s": "s",
    "sym.tr_clusters": "count",
    "sym.tr_nodes": "count",
    "sym.image_s": "s",
    "bfv.reparam_s": "s",
    "bfv.union_s": "s",
    "bfv.convert_s": "s",
    "reach.check_s": "s",
    "reach.iterations": "count",
    "reach.attributed_s": "s",
    "reach.unattributed_s": "s",
    "reach.bfv_unattributed_share": "ratio",
    "bdd.recursive_steps": "count",
    "bdd.cache_hit_rate": "ratio",
    "bdd.nodes_created": "count",
    "bdd.gc_runs": "count",
    "bdd.peak_live_nodes": "count",
    "bdd.op.and.hit_rate": "ratio",
    "bdd.op.ite.hit_rate": "ratio",
    "bdd.op.compose.hit_rate": "ratio",
    "bdd.op.cofactor2.hit_rate": "ratio",
    "bdd.op.and-exists.hit_rate": "ratio",
    "run.job_setup_s": "s",
    "run.queue_p90_s": "s",
    "run.warm_hit_rate": "ratio",
    "run.retries": "count",
    "run.pool_vs_inproc": "ratio",
    "svc.admit_p50_s": "s",
    "svc.dispatch_p90_s": "s",
    "svc.exec_p50_s": "s",
    "svc.overhead_p50_s": "s",
    "svc.iteration_updates": "count",
    "svc.wire_bytes": "bytes",
    "svc.backlog_max": "count",
    "svc.exec_vs_inproc": "ratio",
    "io.checkpoint_tax_s": "s",
    "obs.census_tax_s": "s",
    "obs.trace_overhead_ratio": "ratio",
    "journal.appends": "count",
    "journal.fsyncs": "count",
    "lz.s": "s",
    "lz.exact_share": "ratio",
    "loadgen.late_p90_s": "s",
    "loadgen.offered_per_s": "1/s",
}

# ---- workloads ----------------------------------------------------------------


def fig2_deep(rng):
    """Long-diameter rows on the Fig. 2 flows: hundreds to a thousand
    iterations per job, so re-parameterization and the cache-hot
    cofactor2/compose/ite kernels dominate. The seed draws the counter
    moduli and shuffles the order."""
    rows = [
        ("gen:lfsr:10", "bfv"),
        ("gen:fifo:5", "bfv"),
        ("gen:counter:10:%d" % rng.randint(960, 1000), "bfv"),
        ("gen:gray:9", "bfv"),
        ("gen:counter:8:%d" % rng.randint(190, 210), "bfv"),
        ("gen:fifo:5", "cdec"),
        ("gen:johnson:16", "cdec"),
    ]
    rng.shuffle(rows)
    return ["circuit=%s engine=%s" % r for r in rows]


# Random netlists with fixed generator seeds: across generator seeds the
# same size class spans 4 ms to 3.6 s (and BFV times out on some), so a
# seeded draw would make the seed, not the mix, set the numbers.
TABLE2_CIRCUITS = [
    "gen:twinshift:16",
    "gen:twinshift:14",
    "gen:crc:16",
    "gen:random:18:6:140:18",
    "gen:random:18:6:140:6",
]


def table2_wide(rng):
    """The paper's Table-2 comparison on wide, short-diameter sets: every
    circuit under BFV-Fig2, TR-IWLS95 and CBM-Fig1. The seed shuffles the
    order. Fifteen rows put the latency p50 and p90 in the middle of a
    row (r18-cbm, twinshift16-tr), not on a seam between two rows."""
    rows = [(c, e) for c in TABLE2_CIRCUITS for e in ("bfv", "tr", "cbm")]
    rng.shuffle(rows)
    return ["circuit=%s engine=%s" % r for r in rows]


def svc_rows(rng):
    """Short jobs from data/*.bench and small generators across the
    tr/cbm/bfv/cdec/hybrid/lz engines (lz only on XOR-affine circuits,
    where it is exact), each with its share of the arrivals, in rising
    order of latency. The shares put the latency p50 in the middle of
    the random14-tr row and the p90 in the middle of the twinshift12-tr
    row, never on a seam between rows of different cost. The rows are
    fixed; the seed draws the schedule (svc_schedule)."""
    return [
        ("circuit=data/crc8.bench engine=lz", 2),
        ("circuit=data/twin6.bench engine=lz", 2),
        ("circuit=data/crc16.bench engine=lz", 2),
        ("circuit=gen:twinshift:10 engine=lz", 1),
        ("circuit=gen:arbiter:6 engine=cbm", 3),
        ("circuit=data/crc8.bench engine=cbm", 2),
        ("circuit=data/twin6.bench engine=tr", 2),
        ("circuit=gen:fifo:3 engine=tr", 2),
        ("circuit=gen:johnson:12 engine=hybrid", 1),
        ("circuit=data/johnson8.bench engine=bfv", 2),
        ("circuit=gen:random:14:5:100:3 engine=tr", 2),
        ("circuit=data/fifo3.bench engine=cdec", 3),
        ("circuit=gen:random:14:5:100:3 engine=cbm", 2),
        ("circuit=gen:counter:6:48 engine=bfv", 2),
        ("circuit=gen:random:14:5:100:3 engine=bfv", 2),
        ("circuit=gen:gray:6 engine=cdec", 2),
        ("circuit=gen:twinshift:12 engine=tr", 8),
    ]


# Arrivals per second: jobs seldom overlap, so latency is the service path
# rather than CPU contention.
SVC_RATE = 8.0


def svc_schedule(rng, seconds, weights, ntenants):
    """Open loop: a Poisson process of about SVC_RATE conditioned on its
    count, i.e. that many arrivals uniform over the run. The rows keep
    their exact shares (whole cycles of the weights) in seeded order, so
    the latency percentiles fall inside a row's band, never on the seam
    between two rows."""
    cycle = [row for row, w in enumerate(weights) for _ in range(w)]
    n = len(cycle) * max(1, round(SVC_RATE * seconds / len(cycle)))
    rows = cycle * (n // len(cycle))
    rng.shuffle(rows)
    times = sorted(rng.uniform(0.0, seconds) for _ in range(n))
    return [(t, rng.randrange(ntenants), row) for t, row in zip(times, rows)]


WORKLOADS = {"fig2-deep": fig2_deep, "table2-wide": table2_wide, "svc-tenants": svc_rows}

# Layers of the serving path, measured on the svc-tenants mix. That mix is
# not a BENCHMARK.json workload: per-iteration checkpoint writes make its
# end-to-end latency swing with the host's disk (perfbench/README.md). So
# the table2-wide traced run also serves the mix and reports these.
SVC_LAYERS = (
    "run.queue_p90_s", "run.warm_hit_rate", "run.retries", "run.pool_vs_inproc",
    "svc.admit_p50_s", "svc.dispatch_p90_s", "svc.exec_p50_s", "svc.overhead_p50_s",
    "svc.iteration_updates", "svc.wire_bytes", "svc.backlog_max", "svc.exec_vs_inproc",
    "io.checkpoint_tax_s", "obs.census_tax_s", "journal.appends", "journal.fsyncs",
    "lz.s", "lz.exact_share", "loadgen.late_p90_s", "loadgen.offered_per_s",
)
SVC_CARRIER = "table2-wide"

# ---- references ---------------------------------------------------------------


def line_fields(line):
    return dict(tok.split("=", 1) for tok in line.split())


def line_circuit(line):
    return line_fields(line)["circuit"]


def closed_form(spec):
    """Reachable-state count of a generator family, or None."""
    if not spec.startswith("gen:"):
        return None
    kind, *args = spec[4:].split(":")
    a = [int(x) for x in args]
    if kind == "counter":
        return a[1]
    if kind in ("twinshift", "gray", "crc"):
        return 2 ** a[0]
    if kind in ("lfsr", "lfsr-free"):
        return 2 ** a[0] - 1
    if kind == "johnson":
        return 2 * a[0]
    return None


def references(lines):
    """Expected state count per manifest line."""
    circuits = sorted({line_circuit(l) for l in lines})
    expected = {c: closed_form(c) for c in circuits}
    explicit = [c for c, v in expected.items() if v is None]
    if explicit:
        out = run([HARNESS, "reference"] + explicit)
        for row in out.splitlines():
            r = json.loads(row)
            expected[r["circuit"]] = r["states"]
    return {l: expected[line_circuit(l)] for l in lines}


def verdict_ok(status, states, expected):
    return status == "done" and expected is not None and states == expected

# ---- build and process plumbing ---------------------------------------------------


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout=HARNESS_TIMEOUT):
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if p.returncode != 0:
        fail("%s failed (%d):\n%s" % (os.path.basename(cmd[0]), p.returncode, p.stderr[-4000:]))
    return p.stdout


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_DIR, "build.log")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                with open(log) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; see " + log)
    with open(cache) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in f.read():
            fail("refusing to measure a non-Release build in " + BUILD_DIR)


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout is not
    always a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench", "data"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else "none"
    except OSError:
        return "none"

# ---- statistics ---------------------------------------------------------------------


def pct(values, q):
    """Nearest-rank percentile."""
    v = sorted(values)
    if not v:
        return 0.0
    return v[min(len(v) - 1, max(0, math.ceil(q * len(v)) - 1))]


def geomean(values):
    return math.exp(sum(math.log(max(x, 1e-9)) for x in values) / len(values))


def ratio(a, b):
    return a / b if b else 0.0

# ---- in-process workloads ------------------------------------------------------------


# Set-up is a few milliseconds and depends on the allocator's state, so it
# is timed in this many fresh processes (a warmed process recycles memory
# and would time a different set-up).
SETUP_PROCESSES = 31


def run_inproc(lines, expected, args, workdir):
    manifest = os.path.join(workdir, "manifest")
    with open(manifest, "w") as f:
        f.write("\n".join(lines) + "\n")
    t0 = time.monotonic()
    setup, peak = [], []
    if not args.trace:
        setup = [float(run([HARNESS, "setup"])) for _ in range(SETUP_PROCESSES)]
        # Memory: every distinct row once in a fresh process, so the peak
        # does not depend on the seeded order of the rows.
        peak = [json.loads(run([HARNESS, "peak", "--manifest", manifest, "--row", str(i)]))
                for i in range(len(lines))]
    # The timed loop gets what is left of the run's seconds.
    seconds = max(1, args.seconds - round(time.monotonic() - t0))
    out = os.path.join(workdir, "raw.json")
    run([HARNESS, "inproc", "--manifest", manifest, "--seconds", str(seconds),
         "--trace", str(args.trace), "--out", out])
    with open(out) as f:
        raw = json.load(f)
    raw["setup_s"], raw["peak"] = setup, peak
    # Jobs report under JobSpec::displayName(), "<circuit>/<engine>".
    by_name = {"%(circuit)s/%(engine)s" % line_fields(l): expected[l] for l in lines}
    if args.trace:
        return raw, inproc_layers(raw, by_name)
    return raw, inproc_end_to_end(raw, by_name)


def inproc_end_to_end(raw, expected):
    attempted = failed = 0
    per_job = {}
    latencies = []
    for p in raw["passes"]:
        for j in p["jobs"]:
            attempted += 1
            if not verdict_ok(j["status"], j["states"], expected[j["name"]]):
                failed += 1
                latencies.append(MISSED_S)
            else:
                latencies.append(j["seconds"])
            per_job.setdefault(j["name"], []).append(j["seconds"])
    for p in raw["peak"]:
        attempted += 1
        j = p["job"]
        failed += not verdict_ok(j["status"], j["states"], expected[j["name"]])
    wall = statistics.median(p["wall_s"] for p in raw["passes"])
    metrics = {
        "setup_s": statistics.median(raw["setup_s"]),
        "wall_s": wall,
        "verdict_geomean_s": geomean([statistics.median(v) for v in per_job.values()]),
        "latency_p50_s": pct(latencies, 0.5),
        "latency_p90_s": pct(latencies, 0.9),
        "jobs_per_s": len(per_job) / wall,
        "verified_share": (attempted - failed) / attempted,
        "peak_rss_mb": max(p["peak_rss_kb"] for p in raw["peak"]) / 1024.0,
    }
    return attempted, failed, metrics, {"samples": len(latencies), "passes": len(raw["passes"])}


def span_totals(spans):
    """Total and self seconds per span name (self = span minus children)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    total, self_ = {}, {}
    for i, s in enumerate(spans):
        d = s["end"] - s["start"]
        total[s["name"]] = total.get(s["name"], 0.0) + d
        self_[s["name"]] = self_.get(s["name"], 0.0) + d - child[i]
    return total, self_


def bdd_and_engine_layers(jobs, spans):
    """Per-layer metrics of jobs taken apart at the layer boundaries
    (`layers`) plus their plain executeJob record (`plain`)."""
    total, _ = span_totals(spans)
    m = {k: 0.0 for k in PER_LAYER}
    m["circuit.resolve_s"] = total.get("circuit.resolve", 0.0)
    m["sym.space_s"] = total.get("sym.StateSpace", 0.0)
    m["sym.tr_build_s"] = total.get("sym.TransitionRelation", 0.0)
    hits = lookups = 0
    op_hits, op_all = {}, {}
    bfv_engine = bfv_unattr = 0.0
    plain_s = traced_s = 0.0
    for j in jobs:
        lay, plain = j.get("layers"), j["plain"]
        plain_s += plain["seconds"]
        traced_s += j["traced"]["seconds"] if "traced" in j else 0.0
        m["run.job_setup_s"] += plain["seconds"] - plain["reach_seconds"]
        m["reach.iterations"] += plain["iterations"]
        if lay is None:
            continue
        ph = lay["phases"]
        m["sym.tr_clusters"] += lay["tr_clusters"]
        m["sym.tr_nodes"] += lay["tr_nodes"]
        m["sym.image_s"] += ph["image"]
        m["bfv.reparam_s"] += ph["reparam"]
        m["bfv.union_s"] += ph["union"]
        m["bfv.convert_s"] += ph["convert"]
        m["reach.check_s"] += ph["check"]
        attributed = sum(ph.values())
        m["reach.attributed_s"] += attributed
        m["reach.unattributed_s"] += lay["engine_s"] - attributed
        if lay["engine"] == "bfv":
            bfv_engine += lay["engine_s"]
            bfv_unattr += lay["engine_s"] - attributed
        ops = plain["ops"]
        m["bdd.recursive_steps"] += ops["recursive_steps"]
        m["bdd.nodes_created"] += ops["nodes_created"]
        m["bdd.gc_runs"] += ops["gc_runs"]
        m["bdd.peak_live_nodes"] = max(m["bdd.peak_live_nodes"], plain["peak_live_nodes"])
        hits += ops["cache_hits"]
        lookups += ops["cache_lookups"]
        for tag in ops["op_hits"]:
            op_hits[tag] = op_hits.get(tag, 0) + ops["op_hits"][tag]
            op_all[tag] = op_all.get(tag, 0) + ops["op_hits"][tag] + ops["op_misses"][tag]
    m["bdd.cache_hit_rate"] = ratio(hits, lookups)
    for tag in ("and", "ite", "compose", "cofactor2", "and-exists"):
        m["bdd.op.%s.hit_rate" % tag] = ratio(op_hits.get(tag, 0), op_all.get(tag, 0))
    m["reach.bfv_unattributed_share"] = ratio(bfv_unattr, bfv_engine)
    m["obs.trace_overhead_ratio"] = ratio(traced_s, plain_s)
    return m


def check_layer_verdicts(jobs, expected_of):
    attempted = failed = 0
    for j in jobs:
        exp = expected_of(j)
        for key in ("layers", "plain", "traced"):
            r = j.get(key)
            if r is None:
                continue
            attempted += 1
            if not verdict_ok(r["status"], r["states"], exp):
                failed += 1
    return attempted, failed


def inproc_layers(raw, expected):
    attempted, failed = check_layer_verdicts(raw["jobs"], lambda j: expected[j["plain"]["name"]])
    m = bdd_and_engine_layers(raw["jobs"], raw["spans"])
    return attempted, failed, m, {}

# ---- service workload ---------------------------------------------------------------------


def counter_value(metrics, name):
    """Sum of a counter or gauge family in a Registry::json() document."""
    total = 0
    for family in ("counters", "gauges"):
        for key, v in metrics.get(family, {}).items():
            if key == name or key.startswith(name + "{"):
                total += v
    return total


def run_svc(lines, weights, expected, args, workdir, rng):
    with open(os.path.join(ROOT, TENANTS)) as f:
        ntenants = sum(1 for l in f if l.strip() and not l.lstrip().startswith("#"))
    sched = svc_schedule(rng, args.seconds, weights, ntenants)
    lines_path = os.path.join(workdir, "lines")
    sched_path = os.path.join(workdir, "schedule")
    with open(lines_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    with open(sched_path, "w") as f:
        f.writelines("%.6f %d %d\n" % s for s in sched)
    out = os.path.join(workdir, "raw.json")
    run([HARNESS, "svc", "--lines", lines_path, "--schedule", sched_path, "--server", SERVER,
         "--tenants", TENANTS, "--workdir", os.path.relpath(workdir, ROOT),
         "--trace", str(args.trace), "--out", out])
    with open(out) as f:
        raw = json.load(f)
    stats = raw["stats"]
    for key in ("jobs_error", "leaked_nodes", "resets_failed"):
        if stats.get(key, 1) != 0:
            fail("SVC report shows %s = %s" % (key, stats.get(key)))

    jobs = raw["jobs"]
    attempted = len(jobs)
    ok = [not j["rejected"] and verdict_ok(j["status"], j["states"], expected[lines[j["row"]]])
          for j in jobs]
    failed = ok.count(False)
    latency = [j["done"] - j["due"] if good else MISSED_S for j, good in zip(jobs, ok)]
    served = [j for j, good in zip(jobs, ok) if good]
    wall = max(j["done"] for j in jobs) - min(j["sent"] for j in jobs)
    info = {"samples": len(latency), "beyond_p90": sum(1 for x in latency if x > pct(latency, 0.9))}
    if not args.trace:
        by_row = {}
        for j in served:
            by_row.setdefault(j["row"], []).append(j["seconds"])
        per_row_median_exec = [statistics.median(v) for v in by_row.values()]
        metrics = {
            "setup_s": statistics.median(raw["setup_s"]),
            "wall_s": wall,
            "verdict_geomean_s": geomean(per_row_median_exec) if served else MISSED_S,
            "latency_p50_s": pct(latency, 0.5),
            "latency_p90_s": pct(latency, 0.9),
            "jobs_per_s": len(served) / wall,
            "verified_share": (attempted - failed) / attempted,
            "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        }
        return raw, (attempted, failed, metrics, info)

    three = raw["threeway"]
    a2, f2 = check_layer_verdicts(three, lambda t: expected[lines[t["row"]]])
    m = bdd_and_engine_layers(three, raw["spans"])
    plain = sum(t["plain_s"] for t in three)
    metrics = stats.get("metrics", {})
    lz = [j for j in served if "engine=lz" in lines[j["row"]]]
    m.update({
        "run.queue_p90_s": pct([j["queue_seconds"] for j in served], 0.9),
        "run.warm_hit_rate": ratio(stats["warm_hits"], stats["warm_hits"] + stats["warm_misses"]),
        "run.retries": sum(max(0, j["attempts"] - 1) for j in served),
        "run.pool_vs_inproc": ratio(sum(t["pool_s"] for t in three), plain),
        "svc.admit_p50_s": pct([j["accepted"] - j["sent"] for j in served], 0.5),
        "svc.dispatch_p90_s": pct([j["started"] - j["accepted"] for j in served], 0.9),
        "svc.exec_p50_s": pct([j["done"] - j["started"] for j in served], 0.5),
        "svc.overhead_p50_s": pct([j["done"] - j["due"] - j["seconds"] - j["queue_seconds"]
                                   for j in served], 0.5),
        "svc.iteration_updates": sum(j["updates"] for j in jobs),
        "svc.wire_bytes": counter_value(metrics, "bfvr_wire_bytes_sent_total")
        + counter_value(metrics, "bfvr_wire_bytes_received_total"),
        "svc.backlog_max": raw["backlog_max"],
        "svc.exec_vs_inproc": ratio(sum(t["svc_exec_s"] for t in three), plain),
        "io.checkpoint_tax_s": sum(t["ckpt_s"] - t["plain_s"] for t in three),
        "obs.census_tax_s": sum(t["iter_s"] - t["plain_s"] for t in three),
        "journal.appends": counter_value(metrics, "bfvr_journal_appended"),
        "journal.fsyncs": counter_value(metrics, "bfvr_journal_fsyncs"),
        "lz.s": sum(j["seconds"] for j in lz),
        "lz.exact_share": ratio(counter_value(metrics, "bfvr_lz_exact_runs_total"),
                                counter_value(metrics, "bfvr_lz_runs_total")),
        "loadgen.late_p90_s": pct([j["sent"] - j["due"] for j in jobs], 0.9),
        "loadgen.offered_per_s": len(jobs) / args.seconds,
    })
    return raw, (attempted + a2, failed + f2, m, info)

# ---- entry point -------------------------------------------------------------------


def workload_inputs(workload, seed):
    """The seeded generator, manifest lines, svc row weights and expected
    verdicts of one workload."""
    rng = random.Random("%s/%d" % (workload, seed))
    lines, weights = WORKLOADS[workload](rng), None
    if workload == "svc-tenants":
        lines, weights = [l for l, _ in lines], [w for _, w in lines]
    return rng, lines, weights, references(lines)


def with_svc_layers(raw, result, args, workdir):
    """Serve the svc-tenants mix, traced, and add its SVC_LAYERS."""
    rng, lines, weights, expected = workload_inputs("svc-tenants", args.seed)
    svc_dir = os.path.join(workdir, "svc")
    os.mkdir(svc_dir)
    raw_svc, (a2, f2, m2, _) = run_svc(lines, weights, expected, args, svc_dir, rng)
    offset = len(raw["spans"])
    for span in raw_svc["spans"]:
        span["parent"] += offset if span["parent"] >= 0 else 0
    raw["spans"] += raw_svc.pop("spans")
    raw["svc"] = raw_svc
    attempted, failed, metrics, info = result
    metrics.update({k: m2[k] for k in SVC_LAYERS})
    return attempted + a2, failed + f2, metrics, info


def measure(args):
    rng, lines, weights, expected = workload_inputs(args.workload, args.seed)
    if args.corrupt_expected:
        # Self-check: a deliberately wrong expectation must fail the run.
        expected[lines[0]] += 1
    tmp_root = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=tmp_root)
    # Start from a quiet disk: write-back left by the build or an earlier
    # run would otherwise land inside this run's checkpoint writes.
    os.sync()
    try:
        if args.workload == "svc-tenants":
            raw, result = run_svc(lines, weights, expected, args, workdir, rng)
        else:
            raw, result = run_inproc(lines, expected, args, workdir)
            if args.trace and args.workload == SVC_CARRIER:
                result = with_svc_layers(raw, result, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, metrics, info = result
    units = PER_LAYER if args.trace else END_TO_END
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "source_sha256": source_digest(),
        **raw["build"], **info,
    }
    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as f:
        json.dump({"provenance": provenance, "lines": lines, "metrics": metrics}, f, indent=1)
    with open(stem + ".raw.json", "w") as f:
        json.dump(raw, f)
    if args.trace:
        total, self_ = span_totals(raw["spans"])
        with open(stem + ".spans.json", "w") as f:
            json.dump({"total_s": total, "self_s": self_}, f, indent=1)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def self_check(args):
    """Every BENCHMARK.json metric appears with its unit, and a wrong
    expected verdict is reported as a failure."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            a = argparse.Namespace(workload=w["name"], seed=1, seconds=2, trace=trace,
                                   corrupt_expected=False)
            res = measure(a)
            if not res["correct"]:
                problems.append("%s trace=%d: not correct" % (w["name"], trace))
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append("%s trace=%d: %s missing or wrong unit" % (w["name"], trace, m["name"]))
    a = argparse.Namespace(workload="fig2-deep", seed=1, seconds=1, trace=0, corrupt_expected=True)
    res = measure(a)
    if res["correct"] or res["failed"] == 0:
        problems.append("a wrong expected verdict was not reported as a failure")
    for p in problems:
        print("self-check: " + p, file=sys.stderr)
    print("self-check: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=56)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    args.corrupt_expected = False
    build()
    if args.self_check:
        return self_check(args)
    if args.workload is None:
        ap.error("--workload is required")
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
