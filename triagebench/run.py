#!/usr/bin/env python3
"""Triage benchmark: builds the measuring binary, runs one workload and
prints its metrics.

    python3 triagebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The measuring binary
(triagebench.cpp) is built in Release under $CARGO_TARGET_DIR (default
.bench_build) on first use. Build output and diagnostics go to stderr. Standard output ends with
two JSON lines: the run record (host, build, seed, sample counts, every
metric; what compare.py reads) and the result object
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see README.md).

Exit status is nonzero, naming the job, when a verdict leaves ground
truth or the verdict stream differs between repetitions or between the
farm and the traced pass.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("injection_serial", "clean_serial", "fanout_parallel")

# Ground truth per workload: primary-ruleset verdict counts, the jobs the
# primary ruleset is allowed to miss, and the extra ruleset that must flag
# them (fanout_parallel only).
EXPECTED = {
    "injection_serial": ({"TP": 11, "FP": 0, "TN": 0, "FN": 0}, set(), None),
    "clean_serial": ({"TP": 2, "FP": 0, "TN": 122, "FN": 0}, set(), None),
    "fanout_parallel": ({"TP": 13, "FP": 0, "TN": 122, "FN": 1},
                        {"multi_stage_c2"}, "multistage"),
}

# Each run is split over this many processes of the measuring binary, one
# after the other, each with its share of --seconds and its own seed
# (seed * PARTS + part). Whole processes of the same workload differed in
# speed by about a tenth, and pooling several averages that out.
PARTS = 3

# Spans that make up the farm's job; the traced pass adds two probe replays
# (os.bare_replay, core.fanout_replay) that the job does not make.
JOB_LAYERS = ("os.boot", "attacks.setup", "sa.extract", "sa.analyze",
              "os.record", "core.replay")


def log(msg):
    print("triagebench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the measuring binary; returns its path or None."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "triagebench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "triagebench",
                  "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=840).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return None
        if rc != 0:
            log("build step failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "triagebench")


def run_part(exe, args, part):
    """Runs the measuring binary for one share of the run; returns its
    records by type, or None when it failed."""
    cmd = [exe, "--workload", args.workload,
           "--seed", str(args.seed * PARTS + part),
           "--seconds", str(args.seconds / PARTS), "--trace", str(args.trace),
           "--policy-dir", os.path.join(ROOT, "policies")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=170 // PARTS)
    except subprocess.TimeoutExpired:
        log("measuring binary timed out")
        return None
    if proc.returncode != 0:
        log("measuring binary failed with exit code %d" % proc.returncode)
        return None
    recs = defaultdict(list)
    for line in proc.stdout.splitlines():
        r = json.loads(line)
        recs[r.pop("type")].append(r)
    return recs


def ratio(num, den):
    return num / den if den else None


def check_verdicts(workload, verdicts):
    """Returns a list of problems, each naming its job."""
    counts, may_miss, extra = EXPECTED[workload]
    problems = []
    seen = defaultdict(int)
    for v in verdicts:
        seen[v["verdict"]] += 1
        name = v["job"]
        if v["status"] != "ok":
            problems.append("%s: status %s" % (name, v["status"]))
        elif v["verdict"] == "FP" or (v["verdict"] == "FN" and
                                      name not in may_miss):
            problems.append("%s: %s" % (name, v["verdict"]))
        if extra is not None:
            want = v["verdict"] in ("TP", "FN")
            if v["extra_flagged"].get(extra) != want:
                problems.append("%s: extra ruleset %s %s it" % (
                    name, extra, "missed" if want else "flagged"))
    for k, n in counts.items():
        if seen.get(k, 0) != n:
            problems.append("%s count %d, expected %d" % (k, seen.get(k, 0), n))
    return problems


def job_latencies_ms(reps):
    """Each job's median latency over the run's repetitions, in corpus
    order. Every repetition reshuffles the submission order, so a job's
    median spans many neighbours and queue positions, and the one
    repetition in which it waited for the snapshot capture drops out."""
    return [statistics.median(r["job_ns"][i] for r in reps) / 1e6
            for i in range(len(reps[0]["job_ns"]))]


def end_to_end(recs):
    reps = recs["rep"]
    lat = job_latencies_ms(reps)
    return {
        "jobs_per_s": (sum(r["ok"] for r in reps) /
                       (sum(r["wall_ns"] for r in reps) / 1e9), "1/s"),
        "job_p50_ms": (statistics.median(lat), "ms"),
        "job_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8],
                       "ms"),
        "setup_s": (statistics.median(recs["capture_ns"]) / 1e9,
                    "s"),
        "peak_rss_mb": (max(recs["peak_rss_kb"]) / 1024.0, "MB"),
    }


def per_layer(recs):
    """Per-layer metrics. *_ms values are the layer's span time per job
    (mean over the run's traced jobs), so the job layers add up to
    farm.job_ms - farm.overhead_ms; ns/insn values are total span time
    over total insns."""
    total = defaultdict(int)
    insns = defaultdict(int)
    per_job = defaultdict(lambda: defaultdict(int))
    for s in recs["span"]:
        ns = s["end_ns"] - s["start_ns"]
        total[s["name"]] += ns
        insns[s["name"]] += s["insns"]
        per_job[(s["rep"], s["job"])][s["name"]] += ns
    njobs = sum(1 for j in per_job.values() if "farm.job" in j)

    def ms_per_job(name):
        return total[name] / 1e6 / njobs if name in total else None

    def ns_per_insn(name):
        return ratio(total[name], insns[name]) if name in total else None

    overhead = [j["farm.job"] - sum(j[n] for n in JOB_LAYERS)
                for j in per_job.values() if "farm.job" in j]

    reps = recs["rep"]
    busy = sum(sum(r["job_ns"]) for r in reps)
    # Medians, because the first job of every Farm::run also pays for the
    # snapshot capture, which the traced run_job calls reuse.
    untraced_job = statistics.median(ns for r in reps for ns in r["job_ns"])
    traced_job = statistics.median(s["end_ns"] - s["start_ns"]
                                   for s in recs["span"]
                                   if s["name"] == "farm.job")

    # The farm's counter stream (one job_metrics line per job), by name.
    ctr = defaultdict(int)
    have = set()
    for line in recs["job_metrics"]:
        for k, v in line.items():
            if isinstance(v, int) and k != "id":
                ctr[k] += v
                have.add(k)

    def c(*names):
        return all(n in have for n in names)

    jobs_counted = len(recs["job_metrics"])
    evals = sum(v for k, v in ctr.items() if k.startswith("rule_evals_"))
    insns_retired = ctr["insns_retired"]
    m = {
        "farm.job_ms": (ms_per_job("farm.job"), "ms"),
        "farm.overhead_ms": (statistics.fmean(overhead) / 1e6, "ms"),
        "farm.worker_busy_share": (
            ratio(busy, sum(r["workers"] * r["wall_ns"] for r in reps)),
            "share"),
        "os.snapshot_capture_ms": (
            statistics.median(recs["capture_ns"]) / 1e6, "ms"),
        "os.boot_ms": (ms_per_job("os.boot"), "ms"),
        "os.machines_per_job": (
            ratio(ctr["snap_clone"], jobs_counted) if c("snap_clone") else None,
            "count/job"),
        "os.cow_faults_per_job": (
            ratio(ctr["cow_faults"], jobs_counted) if c("cow_faults") else None,
            "count/job"),
        "os.record_ms": (ms_per_job("os.record"), "ms"),
        "os.record_ns_per_insn": (ns_per_insn("os.record"), "ns/insn"),
        "os.bare_replay_ns_per_insn": (ns_per_insn("os.bare_replay"),
                                       "ns/insn"),
        "attacks.setup_ms": (ms_per_job("attacks.setup"), "ms"),
        "sa.extract_ms": (ms_per_job("sa.extract"), "ms"),
        "sa.analyze_ms": (ms_per_job("sa.analyze"), "ms"),
        "core.replay_ms": (ms_per_job("core.replay"), "ms"),
        "core.replay_ns_per_insn": (ns_per_insn("core.replay"), "ns/insn"),
        "core.dift_overhead_x": (
            ratio(total["core.replay"], total["os.bare_replay"]), "x"),
        "core.fanout_replay_ms": (ms_per_job("core.fanout_replay"), "ms"),
        "core.tainted_fetch_share": (
            ratio(ctr["tainted_fetches"], insns_retired)
            if c("tainted_fetches", "insns_retired") else None, "share"),
        "core.rule_evals_per_kinsn": (
            ratio(evals * 1000, insns_retired)
            if c("insns_retired") and evals else None, "1/kinsn"),
        "core.fetch_cache_hit_ratio": (
            ratio(ctr["fetch_cache_hit"],
                  ctr["fetch_cache_hit"] + ctr["fetch_cache_miss"])
            if c("fetch_cache_hit", "fetch_cache_miss") else None, "ratio"),
        "core.shadow_frame_cache_hit_ratio": (
            ratio(ctr["shadow_frame_cache_hit"],
                  ctr["shadow_frame_cache_hit"] +
                  ctr["shadow_frame_cache_miss"])
            if c("shadow_frame_cache_hit", "shadow_frame_cache_miss")
            else None, "ratio"),
        "vm.bt_hit_ratio": (
            ratio(ctr["bt_hit"], ctr["bt_hit"] + ctr["bt_translate"])
            if c("bt_hit", "bt_translate") else None, "ratio"),
        "vm.elided_insn_share": (
            ratio(ctr["bt_elided_insns"], insns_retired)
            if c("bt_elided_insns", "insns_retired") else None, "share"),
        "vm.elide_guard_fail_ratio": (
            ratio(ctr["bt_guard_fail"],
                  ctr["bt_guard_fail"] + ctr["bt_elided_blocks"])
            if c("bt_guard_fail", "bt_elided_blocks") else None, "ratio"),
        "trace.overhead_share": (
            traced_job / untraced_job - 1,
            "share"),
    }
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1
    recs = defaultdict(list)
    problems = []
    for part in range(PARTS):
        out = run_part(exe, args, part)
        if out is None:
            return 1
        problems += check_verdicts(args.workload, out["verdict"])
        for s in out["span"]:
            s["rep"] = (part, s["rep"])
        for kind in ("env", "rep", "span", "job_metrics"):
            recs[kind] += out[kind]
        recs["capture_ns"] += out["setup"][0]["capture_ns"]
        recs["peak_rss_kb"].append(out["rss"][0]["peak_rss_kb"])
    env = recs["env"][0]

    for p in problems:
        log("verdict out of ground truth: " + p)

    reps = recs["rep"]
    attempted = sum(r["jobs"] for r in reps)
    failed = sum(r["jobs"] - r["ok"] for r in reps)
    if args.trace:
        attempted += sum(1 for s in recs["span"] if s["name"] == "farm.job")
    metrics = per_layer(recs) if args.trace else end_to_end(recs)
    absent = sorted(k for k, (v, _) in metrics.items() if v is None)
    metrics = {k: {"value": v, "unit": u}
               for k, (v, u) in metrics.items() if v is not None}
    correct = not problems and failed == 0

    record = {
        "type": "run_record",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "hw_threads": env["hw_threads"],
        "nproc": env["nproc"],
        "workers": env["workers"],
        "build_type": env["build_type"],
        "compiler": env["compiler"],
        "samples": {
            "repetitions": len(reps),
            "job_latencies": sum(len(r["job_ns"]) for r in reps),
            "processes": PARTS,
            "setup_captures": len(recs["capture_ns"]),
            "traced_jobs": sum(1 for s in recs["span"]
                               if s["name"] == "farm.job"),
        },
        "fail_ratio": failed / attempted,
        "absent": absent,
        "metrics": metrics,
    }
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
