"""One benchmark worker process.

Started by ``run.py`` from the root of a checkout. It imports vdropstat,
builds the workload's feeder, does one untimed warm-up solve, prints
``READY``, runs the workload's operations while they fit its time budget,
and prints one JSON line with its samples. Every operation is checked; one whose outputs fail
a check, or that raises, counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import tracing  # noqa: E402

CONFIG = "configs/feeder4.json"
QUANTILES = (0.5, 0.9, 0.99)

# buses: None keeps feeder4, else the feeder4 bus is repeated like
# `sweep --parameter bus-count`. `cycle` repeats until the run's budget is
# spent. A trailing "*" runs the operation traced; only traced runs use the
# trace_cycle. The first worker's first untraced "mc" is followed by the
# once-per-run "shards" check, which reuses its run.
WORKLOADS = {
    "feeder4-2048": dict(buses=None, grid=2048, mc=1_000_000, nl=10_000,
                         cycle=["mc", "solve", "mc", "mc", "solve", "mc", "nl"],
                         trace_cycle=["solve", "solve*", "mc*", "solve", "solve*", "nl*",
                                      "cli_main*"]),
    "chain256-256": dict(buses=256, grid=256, mc=200_000, nl=0,
                         cycle=["mc", "solve", "solve", "solve"],
                         trace_cycle=["solve", "solve*", "mc*", "solve", "solve*"]),
}


class Worker:
    def __init__(self, args, spec, w):
        from vdropstat.dp_engine import DpConfig

        self.args = args
        self.spec = spec
        self.w = w
        self.config = DpConfig(grid_s=w["grid"], grid_delta=w["grid"])
        self.samples = defaultdict(list)
        self.info: dict = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer = tracing.Tracer()
        self.law = None
        self.last_mc = None
        self.ops = 0
        self.last_op = None  # (name, traced) of the operation before this one
        self.last_solve_s = None  # seconds of the last untraced solve

    # -- bookkeeping ----------------------------------------------------

    def attempt(self, name, fn, traced=False):
        """Run one operation; count it, and count it failed on any problem."""
        self.attempted += 1
        self.ops += 1
        run_id = f"w{self.args.index}-op{self.ops}"
        try:
            if traced:
                with self.tracer.installed(), self.tracer.span(f"bench.{name}", run_id):
                    problems = fn(traced)
            else:
                problems = fn(traced)
        except Exception:  # a failed operation is a result, not a crash
            problems = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
        if problems:
            self.failures.append(f"{name}: {'; '.join(problems)}")
        self.last_op = (name, traced)

    # -- operations -----------------------------------------------------

    def solve(self, traced=False):
        from vdropstat import dp_engine

        t0 = time.perf_counter()
        rep = dp_engine.run(self.spec, self.config)
        drop = rep.drop
        drop.total_mass()
        mean, _ = drop.mean_std()
        drop.atom_at_zero()
        qs = [drop.quantile(p) for p in QUANTILES]
        drop.prob_exceed(2.0 * mean)
        dt = time.perf_counter() - t0
        self.samples["solve_traced_s" if traced else "solve_s"].append(dt)
        if not traced:
            self.last_solve_s = dt
        elif self.last_op == ("solve", False):
            # paired with the untraced solve just before it, so both see the
            # same machine speed
            self.samples["trace.overhead_s"].append(dt - self.last_solve_s)
        lat = rep.lattice
        cells = lat.s_cells * lat.d_cells
        self.info.setdefault("computed", {}).update({
            "dp_engine.cells": cells, "dp_engine.stages": len(rep.stage_logs),
            "dp_engine.canvas_bytes": 8 * cells})
        self.law = drop
        return checks.law_problems(rep.ledger_gap, rep.lost_mass, drop, qs)

    def mc(self, traced=False):
        from vdropstat.mc_oracle import McConfig, compare, run_mc

        n = self.w["mc"]
        t0 = time.perf_counter()
        emp = run_mc(self.spec, McConfig(samples=n, seed=self.args.seed))
        self.samples["mc_samples_per_s"].append(n / (time.perf_counter() - t0))
        if "ks_mc" not in self.info and self.law is not None and not traced:
            self._gate(compare(self.law, emp))
        self.last_mc = emp
        return checks.sample_problems(emp.delta0, n)

    def nl(self, traced=False):
        from vdropstat.mc_oracle import McConfig, run_mc

        n = self.w["nl"]
        t0 = time.perf_counter()
        emp = run_mc(self.spec, McConfig(samples=n, seed=self.args.seed, nonlinear=True))
        self.samples["nl_samples_per_s"].append(n / (time.perf_counter() - t0))
        return checks.sample_problems(emp.delta0, n)

    def shards(self, traced=False):
        """Linear MC with four shards must equal the one-shard run bit for bit."""
        from vdropstat.mc_oracle import McConfig, run_mc

        n, seed = self.w["mc"], self.args.seed
        self.info.setdefault("computed", {})["mc_oracle.batch_bytes"] = 8 * n * self.spec.n
        one = self.last_mc or run_mc(self.spec, McConfig(samples=n, seed=seed))
        many = run_mc(self.spec, McConfig(samples=n, seed=seed, shards=4))
        return checks.shard_problems(one, many)

    def _gate(self, report):
        by_name = {c.name: c for c in report.checks}
        self.info["ks_mc"] = by_name["ks_distance"].value
        self.info["zero_atom_gap"] = by_name["zero_atom_gap"].value
        self.info["compare_gate_pass"] = report.passed

    def cli_main(self, traced=False):
        """In-process `cli.main` for analyze and mc, so their calls get spans.

        Checks the law `analyze` writes and the drops `mc` writes.
        """
        import numpy as np
        from vdropstat import cli

        out = Path(tempfile.mkdtemp(prefix="main-", dir=self.args.out))
        seed, n = str(self.args.seed), self.w["mc"]
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                codes = [cli.main(["analyze", CONFIG, "--seed", seed, "--out-dir", str(out)]),
                         cli.main(["mc", CONFIG, "--samples", str(n), "--seed", seed,
                                   "--out-dir", str(out)])]
            if any(codes):
                return [f"cli.main exited {c}" for c in codes if c != 0]
            summary = json.loads((out / "summary.json").read_text())
            qs = [summary["quantiles"][f"{p:g}"] for p in QUANTILES]
            problems = checks.law_problems(summary["mass"]["ledger_gap"], summary["mass"]["lost"],
                                           _read_law(out / "drop_marginal.csv"), qs)
            path = out / "mc_samples.csv"
            self.samples["cli.samples_csv_mb"].append(path.stat().st_size / 1e6)
            self.info.setdefault("computed", {}).update({
                "joint_csv_bytes": (out / "joint.csv").stat().st_size,
                "mc_samples_csv_bytes": path.stat().st_size})
            drops = np.array(path.read_text().split()[1:], dtype=float)
            return problems + checks.sample_problems(drops, n)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    # -- the measurement loop --------------------------------------------

    def measure(self) -> float:
        """Run operations while they are expected to end near the budget.

        The cycle goes on from where the previous worker left it, so the
        run's mix of operations is the cycle's. An operation starts if half
        its expected time still fits the budget, so on average a run
        measures its --seconds. The last worker also runs every cycle
        operation that the run has no sample of yet, whatever the budget.
        """
        a = self.args
        cycle = self.w["trace_cycle" if a.trace else "cycle"]
        missing = set(cycle) - set(a.have.split(","))
        durations = defaultdict(list)
        shards_due = a.index == 0 and not a.trace

        def run(op):
            nonlocal shards_due
            t0 = time.perf_counter()
            self.attempt(op.rstrip("*"), getattr(self, op.rstrip("*")),
                         traced=op.endswith("*"))
            durations[op].append(time.perf_counter() - t0)
            missing.discard(op)
            if op == "mc" and shards_due:
                shards_due = False
                self.attempt("shards", self.shards)

        t_start = time.perf_counter()
        pos = a.pos
        while True:
            op = cycle[pos % len(cycle)]
            seen = durations[op]
            expected = statistics.fmean(seen) if seen else a.est.get(op, 0.0)
            if time.perf_counter() - t_start + expected / 2 > a.budget:
                if not (a.last and missing):
                    break
                while cycle[pos % len(cycle)] not in missing:
                    pos += 1
                op = cycle[pos % len(cycle)]
            run(op)
            pos += 1
        self.info["pos"] = pos % len(cycle)
        self.info["cycles"] = sum(len(durations[op]) for op in set(cycle)) / len(cycle)
        self.info["op_s"] = {op: statistics.fmean(d) for op, d in durations.items() if d}
        self.info["ops"] = sorted(op for op, d in durations.items() if d)
        return time.perf_counter() - t_start

    def layer_samples(self) -> None:
        """Per-layer samples derived from the spans of the traced operations."""
        spans = self.tracer.spans
        kids = defaultdict(list)
        for s in spans:
            kids[s["parent"]].append(s)

        def dur(s):
            return s["end"] - s["start"]

        out = self.samples
        for s in spans:
            name = s["name"]
            if name == "dp_engine.plan_lattice":
                out["dp_engine.plan_s"].append(dur(s))
            elif name == "dp_engine.run":
                out["dp_engine.run_s"].append(dur(s))
                out["dp_engine.stage_s"].extend(s["stage_s"])
                out["dp_engine.stage_sum_s"].append(sum(s["stage_s"]))
                out["dp_engine.cells"].append(s["cells"])
                out["dp_engine.stages"].append(len(s["stage_s"]))
                out["dp_engine.canvas_mb"].append(8 * s["cells"] / 1e6)
                out["dp_engine.lost_mass"].append(s["lost_mass"])
                out["dp_engine.ledger_gap"].append(s["ledger_gap"])
            elif name == "mixed_dist.marginal_drop":
                out["mixed_dist.marginal_s"].append(dur(s))
            elif name == "dp_engine.joint_to_csv":
                out["dp_engine.joint_csv_s"].append(dur(s))
                out["dp_engine.joint_csv_mb"].append(s["bytes"] / 1e6)
            elif name == "mixed_dist.write_density_csv":
                out["mixed_dist.density_csv_s"].append(dur(s))
            elif name == "mc_oracle.run_mc" and not s["nonlinear"]:
                parts = defaultdict(float)
                for k in kids[s["id"]]:
                    parts[k["name"]] += dur(k)
                uni = parts["mc_oracle.counter_uniforms"]
                draw = parts["mc_oracle.sample_load"]
                out["mc_oracle.run_mc_s"].append(dur(s))
                out["mc_oracle.uniforms_s"].append(uni)
                out["mc_oracle.sample_load_s"].append(draw)
                out["mc_oracle.recursion_s"].append(dur(s) - uni - draw)
                out["mc_oracle.draws"].append(s["samples"] * s["buses"])
                out["mc_oracle.batch_mb"].append(
                    8 * -(-s["samples"] // s["shards"]) * s["buses"] / 1e6)
            elif name == "distflow.solve_nonlinear":
                out["distflow.solve_nonlinear_s"].append(dur(s))
                out["distflow.iterations"].append(s["iterations"])
            elif name == "cli.main":
                out[f"cli.{s['argv0']}_main_s"].append(dur(s))
            elif name == "bench.solve":
                children = kids[s["id"]]
                query = sum(dur(k) for k in children if tracing.is_query(k))
                run = next(k for k in children if k["name"] == "dp_engine.run")
                below = {k["name"]: dur(k) for k in kids[run["id"]]}
                out["mixed_dist.query_s"].append(query)
                out["trace.solve_residual_s"].append(
                    dur(s) - below["dp_engine.plan_lattice"] - sum(run["stage_s"])
                    - below["mixed_dist.marginal_drop"] - query)
        cycles = max(self.info["cycles"], 1.0)
        for layer, secs in tracing.self_times(spans).items():
            out[f"{layer}.self_s"].append(secs / cycles)


def _read_law(path: Path):
    """Rebuild the drop law from the x,density,atom_mass rows `analyze` writes."""
    import numpy as np
    from vdropstat.mixed_dist import DropDistribution, Grid1D, MixedDensity1D

    xs, vals, atom_x, atom_m = [], [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        for x, dens, mass in rows:
            if mass == "0":
                xs.append(float(x))
                vals.append(float(dens))
            else:
                atom_x.append(float(x))
                atom_m.append(float(mass))
    step = (xs[-1] - xs[0]) / (len(xs) - 1)
    grid = Grid1D(xs[0] - 0.5 * step, xs[-1] + 0.5 * step, np.array(vals))
    return DropDistribution(MixedDensity1D(grid=grid, atom_locs=np.array(atom_x),
                                           atom_masses=np.array(atom_m)))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--est", type=json.loads, default={},
                   help="JSON: operation -> seconds it took in earlier workers")
    p.add_argument("--pos", type=int, default=0, help="where the cycle goes on")
    p.add_argument("--have", default="", help="operations the run has samples of")
    p.add_argument("--last", type=int, default=0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    w = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    import vdropstat.cli  # noqa: F401  (the whole package, as the command loads it)
    import_s = time.perf_counter() - t0
    from vdropstat.feeder_model import FeederSpec, parse_feeder

    t0 = time.perf_counter()
    spec = parse_feeder(CONFIG)
    parse_s = time.perf_counter() - t0
    if w["buses"]:
        spec = FeederSpec(spec.base_voltage, spec.alpha,
                          tuple(spec.segments[i % spec.n] for i in range(w["buses"])),
                          tuple(spec.loads[i % spec.n] for i in range(w["buses"])))
    worker = Worker(args, spec, w)
    worker.attempt("solve", worker.solve)  # warm-up: checked, not timed
    worker.samples.clear()
    print("READY", flush=True)

    worker.samples["cli.import_s"].append(import_s)
    worker.samples["feeder_model.parse_s"].append(parse_s)
    if args.index == 0:
        missed = checks.selftest()
        if missed:
            print(f"checker self-test missed: {missed}", file=sys.stderr)
            return 1
        worker.info["checker_selftest"] = "pass"
    measured = worker.measure()
    if args.trace:
        worker.layer_samples()
        with open(Path(args.out) / f"spans-w{args.index}.jsonl", "w", encoding="utf-8") as fh:
            for s in worker.tracer.spans:
                fh.write(json.dumps(s) + "\n")
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    print(json.dumps({
        "measured_s": measured,
        "samples": worker.samples,
        "attempted": worker.attempted,
        "failures": worker.failures,
        "info": worker.info,
        "peak_rss_mb": rss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
