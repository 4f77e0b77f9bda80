"""vdropstat benchmark: time to the drop law and MC throughput.

Run from the root of a checkout:

    python3 bench/run.py --workload feeder4-2048 --seed 1 --seconds 55 --trace 0

Workers (``worker.py``) run one after another, never two at once, with
numeric libraries capped at ``nproc`` threads. Each is a fresh process;
the time from its spawn to its READY line is one ``setup_s`` sample. The
measurement budget is shared out among them, so solves are spread over
several processes. The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics from spans with
``--trace 1``. Everything else printed is a named metric with its unit,
the run record, and the failures, if any. See README.md for what each
metric means on each workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2
WORKER_TIMEOUT_S = 170.0

WHY = {
    "feeder4-2048": (
        "This is the README's headline analyze/compare case. It has 4 stages on "
        "a canvas of about 4.2M cells, so the FFT convolution along S and the "
        "per-column shear do nearly all the DP work, while planning and kernel "
        "builds cost close to nothing. Its MC has many samples and few buses."),
    "chain256-256": (
        "This is the long-chain / sweep case, and its balance is the opposite of "
        "feeder4-2048. It runs 256 small stages, so per-stage fixed costs "
        "dominate: an identical kernel is rebuilt 256 times, there is Python "
        "overhead per column, and plan_lattice does a 256-convolution sweep. Its "
        "MC has many buses: a per-bus draw loop and 256 strided recursion passes. "
        "At the seed its law reads KS 0.074 against MC (std 9.8 vs 7.5), so "
        "ks_mc shows it when accuracy is traded for speed."),
}
# name -> unit, as BENCHMARK.json lists them
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}
# Per-layer metrics of layers only some workloads reach: printed, not in the JSON.
PER_LAYER_EXTRA = {
    "distflow.solve_nonlinear_p50_s": "s", "distflow.iterations_mean": "count",
    "dp_engine.joint_csv_s": "s", "dp_engine.joint_csv_mb": "MB",
    "mixed_dist.density_csv_s": "s", "cli.analyze_main_s": "s", "cli.mc_main_s": "s",
    "cli.samples_csv_mb": "MB", "cli.self_s": "s", "distflow.self_s": "s",
    "feeder_model.self_s": "s",
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def median(values):
    return statistics.median(values) if values else None


def tail(values):
    """(label, value) of the highest percentile with at least ten samples beyond it."""
    best = None
    for p in (90, 99, 99.9):
        if len(values) * (100 - p) / 100 >= 10:
            best = (f"p{p:g}", statistics.quantiles(values, n=1000)[round(p * 10) - 1])
    return best


def show(name, value, unit, values=None, note=""):
    text = f"{name:34s} {value:.6g} {unit}"
    if values is not None:
        text += f"  (median of {len(values)}"
        t = tail(values)
        if t:
            text += f", {t[0]} {t[1]:.6g}"
        text += ")"
    print(text + (f"  {note}" if note else ""))


def run_record(args, nproc):
    def version(mod):
        try:
            return __import__(mod).__version__
        except ImportError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "vdropstat").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": WHY[args.workload],
        "nproc": nproc, "cpu_model": cpu, "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "thread_caps": {v: str(nproc) for v in THREAD_VARS},
        "workers": WORKERS, "git_commit": commit, "source_sha256": digest.hexdigest(),
    }


def spawn(args, index, budget, carry, env, out):
    """Start one worker; return (setup seconds, its result dict)."""
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--budget", repr(budget), "--est", json.dumps(carry["est"]),
           "--pos", str(carry["pos"]), "--have", ",".join(sorted(carry["have"])),
           "--last", str(int(index == WORKERS - 1)),
           "--trace", str(args.trace), "--index", str(index), "--out", str(out)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = rest.strip().splitlines()
    if ready.strip() != "READY" or code != 0 or not lines:
        raise RuntimeError(f"worker {index} failed (exit {code})")
    return setup, json.loads(lines[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    needed = [ROOT / "src" / "vdropstat" / "__init__.py", ROOT / "configs" / "feeder4.json"]
    missing = [str(x.relative_to(ROOT)) for x in needed if not x.is_file()]
    if missing:
        print(f"error: not a vdropstat checkout, missing {missing}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update({v: str(nproc) for v in THREAD_VARS})
    out = ROOT / "bench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    record = run_record(args, nproc)

    setups, results = [], []
    remaining = args.seconds
    # what each worker hands on: operation times, cycle position, and the
    # operations the run has samples of
    carry = {"est": {}, "pos": 0, "have": set()}
    try:
        for i in range(WORKERS):
            budget = max(remaining, 0.0) / (WORKERS - i)
            setup, res = spawn(args, i, budget, carry, env, out)
            setups.append(setup)
            results.append(res)
            remaining -= res["measured_s"]
            for op, secs in res["info"]["op_s"].items():
                carry["est"][op] = max(carry["est"].get(op, 0.0), secs)
            carry["pos"] = res["info"]["pos"]
            carry["have"] |= set(res["info"]["ops"])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    samples = defaultdict(list)
    info, computed = {}, {}
    for res in results:
        for key, vals in res["samples"].items():
            samples[key].extend(vals)
        info.update(res["info"])
        computed.update(res["info"].get("computed", {}))
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    record["computed"] = computed
    record["cycles"] = sum(r["info"]["cycles"] for r in results)
    record["measured_s"] = sum(r["measured_s"] for r in results)

    print("run record: " + json.dumps(record, sort_keys=True))
    for key, val in sorted(computed.items()):
        show(key, val, "B" if key.endswith("bytes") else "count", note="(computed)")
    print(f"checker self-test: {info.get('checker_selftest', 'not run')}")
    for f in failures:
        print(f"FAILED {f}")
    fail_ratio = len(failures) / max(attempted, 1)
    show("fail_ratio", fail_ratio, "ratio", note=f"({len(failures)} of {attempted} operations)")
    if "ks_mc" in info:
        show("ks_mc", info["ks_mc"], "prob",
             note=f"compare gate (KS <= 0.01, zero-atom gap <= 0.005): "
                  f"{'pass' if info['compare_gate_pass'] else 'FAIL'}; "
                  f"zero-atom gap {info['zero_atom_gap']:.3g}")

    if args.trace:
        metrics = layer_metrics(samples)
        names = {**PER_LAYER, **PER_LAYER_EXTRA}
        for key in names:
            if key in metrics:
                vals = samples.get(LAYER_SOURCE.get(key, key))
                many = vals and len(vals) > 1 and key != "distflow.iterations_mean"
                show(key, metrics[key], names[key], vals if many else None)
        parts = sum(metrics[k] for k in ("dp_engine.plan_s", "dp_engine.stage_sum_s",
                                          "mixed_dist.marginal_s", "mixed_dist.query_s"))
        residual, overhead = metrics["trace.solve_residual_s"], metrics["trace.overhead_s"]
        print(f"solve accounting: plan + stage_sum + marginal + query = {parts:.6g} s; "
              f"traced solve leaves {residual:.6g} s, "
              f"{'within' if abs(residual) <= abs(overhead) else 'beyond'} "
              f"the tracing overhead {overhead:.6g} s")
        json_metrics = {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        samples["setup_s"] = setups
        metrics = {"solve_s": median(samples["solve_s"]),
                   "mc_samples_per_s": median(samples["mc_samples_per_s"]),
                   "setup_s": median(setups),
                   "peak_rss_mb": max(r["peak_rss_mb"] for r in results)}
        for key, unit in (("setup_s", "s"), ("solve_s", "s"), ("mc_samples_per_s", "1/s"),
                          ("nl_samples_per_s", "1/s")):
            if samples.get(key):
                show(key, median(samples[key]), unit, samples[key])
        show("peak_rss_mb", metrics["peak_rss_mb"], "MB", note="(max over workers)")
        json_metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    (out / "record.json").write_text(json.dumps(
        {"record": record, "metrics": metrics, "failures": failures, "samples": samples},
        indent=2) + "\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": json_metrics}))
    return 0


# per-layer metric -> the sample list its median comes from, where they differ
LAYER_SOURCE = {
    "dp_engine.stage_p50_s": "dp_engine.stage_s",
    "distflow.solve_nonlinear_p50_s": "distflow.solve_nonlinear_s",
    "distflow.iterations_mean": "distflow.iterations",
}


def layer_metrics(samples):
    metrics = {}
    for key in {**PER_LAYER, **PER_LAYER_EXTRA}:
        vals = samples.get(LAYER_SOURCE.get(key, key))
        if key == "distflow.iterations_mean":
            if vals:
                metrics[key] = statistics.fmean(vals)
        elif vals:
            metrics[key] = median(vals)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
