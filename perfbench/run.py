#!/usr/bin/env python3
"""Repository benchmark: builds raa_perfbench from the repo sources, runs one
workload for a fixed time, checks every simulated result and prints the
metrics.

    python3 perfbench/run.py --workload fig1_nas --seed 0 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics (the benchmark's own spans off);
--trace 1 the per-layer metrics from alternating untraced/traced
repetitions. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. A System::run counts as failed
if it throws (stale-load RAA_CHECK, SPM contract), if any Metrics field
differs from the stored golden for (workload, seed, run), if a seed without
a golden changes the seed-independent access count, or if repetitions of
one run disagree (traced against untraced included). Any failure exits 1.

    python3 perfbench/run.py --write-golden --workload W --seed N

re-measures (workload, seed) and stores its Metrics in goldens.json.
Everything is built and written under .bench_build/ in the repo root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "perfbench_work")
BINARY = os.path.join(BUILD_DIR, "raa_perfbench")
GOLDENS = os.path.join(BENCH_DIR, "goldens.json")
WORKLOADS = ("fig1_nas", "chase_banked", "replay_traced")
RUN_TIMEOUT_S = 150

# Figure 1 averages reported by the paper (hybrid over cache-only).
PAPER_FIG1 = {"time_x": 1.147, "energy_x": 1.185, "noc_x": 1.312}
ENERGY_FIELDS = ("e_l1", "e_l2", "e_spm", "e_dram", "e_noc", "e_dir", "e_static")

END_TO_END_UNITS = {
    "wall_s": "s",
    "maccess_per_s": "M/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER_UNITS = {
    "memsim.run_s": "s",
    "memsim.commit_self_s": "s",
    "memsim.ns_per_access": "ns",
    "memsim.backend_ns_per_req": "ns",
    "memsim.backend_est_share": "ratio",
    "kernels.fill_s": "s",
    "kernels.fill_share": "ratio",
    "scenario.gen_fill_s": "s",
    "scenario.gen_fill_share": "ratio",
    "scenario.parse_s": "s",
    "scenario.instantiate_s": "s",
    "scenario.trace_read_s": "s",
    "scenario.trace_decode_s": "s",
    "exec.fill_off_commit_share": "ratio",
    "exec.cpu_per_wall": "ratio",
    "exec.sharded_run_s": "s",
    "obs.events_kept": "count",
    "obs.events_dropped": "count",
    "obs.kept_ratio": "ratio",
    "obs.stop_s": "s",
    "obs.export_s": "s",
    "obs.trace_mib": "MiB",
    "report.write_s": "s",
    "memsim.accesses": "count",
    "memsim.l1_miss_ratio": "ratio",
    "memsim.l2_miss_ratio": "ratio",
    "memsim.dram_reads": "count",
    "memsim.dram_row_hit_ratio": "ratio",
    "memsim.guarded_lookups": "count",
    "memsim.dma_transfers": "count",
    "memsim.invalidations": "count",
    "memsim.writebacks": "count",
    "bench.unaccounted_frac": "ratio",
    "bench.trace_overhead_frac": "ratio",
}

# The layer whose fill() the workload's programs run: kernels'
# ScriptedProgram, the scenario generators, or the trace decoder.
FILL_METRIC = {
    "fig1_nas": "kernels.fill",
    "chase_banked": "scenario.gen_fill",
    "replay_traced": "scenario.trace_decode",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once per checkout, then an incremental build."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(2)


def run_binary(args, timeout):
    proc = subprocess.run([BINARY] + args, capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        log(proc.stderr.strip())
        log("perfbench: raa_perfbench exited with", proc.returncode)
        sys.exit(2)
    return proc.stdout


def measure(workload, seed, seconds, trace, work_dir):
    """Run raa_perfbench; return its reps, set-up samples and end record."""
    args = [f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}", f"--trace={trace}",
            f"--bench-dir={BENCH_DIR}", f"--work-dir={work_dir}"]
    if workload == "replay_traced":
        # Recorded outside all timing, in its own process so that its
        # memory does not count toward the measured peak RSS.
        raat = os.path.join(work_dir, "replay.raat")
        run_binary(["--record-replay", f"--seed={seed}",
                    f"--bench-dir={BENCH_DIR}", f"--out={raat}"], 60)
        args.append(f"--replay-trace={raat}")
    reps, setups, end = [], [], None
    for line in run_binary(args, RUN_TIMEOUT_S).splitlines():
        kind, _, body = line.partition(" ")
        if kind == "rep":
            reps.append(json.loads(body))
        elif kind == "setup":
            setups.append(json.loads(body)["setup_s"])
        elif kind == "end":
            end = json.loads(body)
    if not reps or end is None:
        log("perfbench: raa_perfbench printed no result")
        sys.exit(2)
    return reps, setups + [r["setup_s"] for r in reps], end


def load_goldens():
    with open(GOLDENS) as f:
        return json.load(f)


def check(workload, seed, reps, goldens):
    """Count attempted and failed System::run calls; print each failure."""
    golden = goldens.get(workload, {}).get(str(seed))
    reference = goldens.get(workload, {}).get("0", {})
    first = {r["label"]: r["metrics"] for r in reps[0]["runs"]}
    attempted = failed = 0
    for i, rep in enumerate(reps):
        for run in rep["runs"]:
            attempted += 1
            label, m = run["label"], run["metrics"]
            why = None
            if not run["ok"]:
                why = "threw: " + run["error"]
            elif golden is not None and m != golden.get(label):
                diff = [k for k in m if golden.get(label, {}).get(k) != m[k]]
                why = "differs from the golden in " + ", ".join(diff or ["labels"])
            elif golden is None and m["accesses"] != reference.get(label, {}).get("accesses"):
                why = "access count differs from the seed-independent count"
            elif m != first[label]:
                why = "differs from rep 0 (traced=%d)" % rep["traced"]
            if why:
                failed += 1
                print(f"FAIL rep {i} {label}: {why}")
    return attempted, failed


def totals(rep):
    """Simulated work of one rep, summed over its runs."""
    out = {}
    for run in rep["runs"]:
        for k, v in run["metrics"].items():
            out[k] = out.get(k, 0) + v
    return out


def ratio(num, den):
    return num / den if den else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps, setups, end):
    walls = [r["wall_s"] for r in reps]
    rates = [totals(r)["accesses"] / r["wall_s"] / 1e6 for r in reps]
    return {
        "wall_s": (median(walls), len(walls)),
        "maccess_per_s": (median(rates), len(rates)),
        "cpu_s": (median([r["cpu_s"] for r in reps]), len(reps)),
        "setup_s": (median(setups), len(setups)),
        "peak_rss_mib": (end["peak_rss_kib"] / 1024.0, 1),
    }


def per_layer(workload, reps, end):
    # chase_banked adds one traced rep with a sharded front end (the exec
    # probe); every other rep runs serially.
    probe = [r for r in reps if r["shards"] > 1]
    traced = [r for r in reps if r["traced"] and r["shards"] == 1]
    untraced = [r for r in reps if not r["traced"]]
    n = len(traced)
    sp = [r["spans"] for r in traced]
    work = totals(reps[0])

    def med(f, rows=sp):
        return (median([f(s) for s in rows]), len(rows))

    run_s = med(lambda s: s["run_s"])
    fill_s = med(lambda s: s["fill_on_s"] + s["fill_off_s"])
    fill_share = med(lambda s: ratio(s["fill_on_s"] + s["fill_off_s"], s["run_s"]))
    out = {name: (0.0, n) for name in PER_LAYER_UNITS}
    layer = FILL_METRIC[workload]
    out[layer + "_s"] = fill_s
    if layer + "_share" in out:
        out[layer + "_share"] = fill_share
    dram_requests = end["backend_requests"]
    all_sp = [r["spans"] for r in reps]
    out.update({
        "memsim.run_s": run_s,
        "memsim.commit_self_s": med(lambda s: s["run_s"] - s["fill_on_s"]),
        "memsim.ns_per_access": med(
            lambda s: (s["run_s"] - s["fill_on_s"]) * 1e9 / work["accesses"]),
        "memsim.backend_ns_per_req": (end["backend_ns_per_req"], 1),
        "memsim.backend_est_share": (
            ratio(end["backend_ns_per_req"] * 1e-9 * dram_requests, run_s[0]), n),
        "exec.fill_off_commit_share": med(
            lambda r: ratio(r["spans"]["fill_off_s"],
                            r["spans"]["fill_on_s"] + r["spans"]["fill_off_s"]),
            probe or traced),
        "exec.cpu_per_wall": med(lambda r: r["cpu_s"] / r["wall_s"], probe or untraced),
        "exec.sharded_run_s": med(lambda r: r["spans"]["run_s"], probe),
        "report.write_s": med(lambda s: s["report_write_s"]),
        "memsim.accesses": (work["accesses"], 1),
        "memsim.l1_miss_ratio": (
            ratio(work["l1_misses"], work["l1_hits"] + work["l1_misses"]), 1),
        "memsim.l2_miss_ratio": (
            ratio(work["l2_misses"], work["l2_hits"] + work["l2_misses"]), 1),
        "memsim.dram_reads": (work["dram_line_reads"], 1),
        "memsim.dram_row_hit_ratio": (ratio(
            work["dram_row_hits"], work["dram_row_hits"] + work["dram_row_misses"]
            + work["dram_row_conflicts"]), 1),
        "memsim.guarded_lookups": (work["guarded_lookups"], 1),
        "memsim.dma_transfers": (work["dma_transfers"], 1),
        "memsim.invalidations": (work["invalidations"], 1),
        "memsim.writebacks": (work["writebacks"], 1),
        "bench.unaccounted_frac": med(lambda s: ratio(
            s["wall_s"] - s["spans"]["run_s"] - s["spans"]["obs_stop_s"]
            - s["spans"]["obs_export_s"] - s["spans"]["report_write_s"],
            s["wall_s"]), traced),
        "bench.trace_overhead_frac": (ratio(
            median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in untraced]),
            median([r["wall_s"] for r in untraced])), n),
    })
    if workload == "chase_banked":
        out["scenario.parse_s"] = med(lambda s: s["parse_s"], all_sp)
        out["scenario.instantiate_s"] = med(lambda s: s["instantiate_s"], all_sp)
    if workload == "replay_traced":
        kept, dropped = sp[0]["events_kept"], sp[0]["events_dropped"]
        out.update({
            "scenario.trace_read_s": med(lambda s: s["trace_read_s"], all_sp),
            "obs.events_kept": (kept, 1),
            "obs.events_dropped": (dropped, 1),
            "obs.kept_ratio": (ratio(kept, kept + dropped), 1),
            "obs.stop_s": med(lambda s: s["obs_stop_s"]),
            "obs.export_s": med(lambda s: s["obs_export_s"]),
            "obs.trace_mib": (sp[0]["trace_bytes"] / 2**20, 1),
        })
    return out


def print_fig1_reference(rep):
    """Figure 1 averages beside the paper's."""
    m = {r["label"]: r["metrics"] for r in rep["runs"]}
    kernels = sorted({label.split("/")[0] for label in m})
    ratios = {"time_x": [], "energy_x": [], "noc_x": []}
    for k in kernels:
        base, hyb = m[k + "/cache_only"], m[k + "/hybrid"]
        ratios["time_x"].append(base["cycles"] / hyb["cycles"])
        ratios["energy_x"].append(sum(base[f] for f in ENERGY_FIELDS)
                                  / sum(hyb[f] for f in ENERGY_FIELDS))
        ratios["noc_x"].append(base["noc_flit_hops"] / hyb["noc_flit_hops"])
    print("Figure 1 averages over %s (measured vs paper):" % ",".join(kernels))
    for name, values in ratios.items():
        print("  %-8s %.3f   paper %.3f" % (name, statistics.mean(values), PAPER_FIG1[name]))
    print("  These three averages are the only reference results in the repo;"
          " the model is otherwise unvalidated.")


WORK_COUNTS = ("accesses", "l1_misses", "l2_misses", "dram_line_reads",
               "dram_line_writes", "dram_row_hits", "dram_row_conflicts",
               "invalidations", "writebacks", "guarded_lookups", "dma_transfers")


def print_work(rep):
    """Exact simulated work of one rep: equal on every rep and every commit."""
    work = totals(rep)
    print("simulated work per rep (exact):")
    print("  " + " ".join(f"{k}={work[k]}" for k in WORK_COUNTS))


def print_metrics(metrics, units):
    for name, (value, n) in metrics.items():
        shown = str(value) if isinstance(value, int) else "%.6g" % value
        print("  %-28s %14s %-6s n=%d" % (name, shown, units[name], n))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be >= 0")

    build()
    work_dir = os.path.join(WORK_ROOT, f"{a.workload}-{a.seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        reps, setups, end = measure(a.workload, a.seed, a.seconds, a.trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    goldens = load_goldens()
    if a.write_golden:
        runs = {r["label"]: r["metrics"] for r in reps[0]["runs"]}
        if any(r["metrics"] != runs[r["label"]] or not r["ok"]
               for rep in reps for r in rep["runs"]):
            log("perfbench: repetitions disagree or failed; golden not written")
            sys.exit(1)
        goldens.setdefault(a.workload, {})[str(a.seed)] = runs
        with open(GOLDENS, "w") as f:
            json.dump(goldens, f, indent=1, sort_keys=True)
            f.write("\n")
        log(f"wrote golden {a.workload} seed {a.seed}")
        return 0

    attempted, failed = check(a.workload, a.seed, reps, goldens)
    has_golden = str(a.seed) in goldens.get(a.workload, {})
    print(f"{a.workload} seed {a.seed}: {len(reps)} reps, {attempted} System::run "
          f"calls, {failed} failed (fail_frac {failed / attempted:.4f}); "
          + ("Metrics checked field by field against the stored golden" if has_golden
             else "no golden for this seed: checked the access count and rep agreement"))
    print_work(reps[0])
    if a.workload == "fig1_nas":
        print_fig1_reference(reps[0])
    if a.trace:
        metrics, units = per_layer(a.workload, reps, end), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(reps, setups, end), END_TO_END_UNITS
    print_metrics(metrics, units)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
