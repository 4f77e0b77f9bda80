"""Command-line front end.

Subcommands: validate, deterministic, analyze, mc, compare, sweep. All of
them check the quantile levels and thresholds and parse and validate the
feeder config before touching the output directory, so a bad config,
level or threshold never leaves files behind.

Exit codes: 0 success, 1 config or usage error, 2 numerical failure
(mass-loss blowup, non-convergence), 3 validation-threshold failure.
"""

from __future__ import annotations

import argparse
import json
import math
import secrets
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .distflow import NonConvergenceError, max_drop, solve_linear, solve_nonlinear
from .dp_engine import DpConfig, DpReport, MassLossError, joint_to_csv, run
from .feeder_model import (
    FeederConfigError,
    FeederSpec,
    TwoSidedExponential,
    parse_feeder,
)
from .mc_oracle import McConfig, batch_plan, compare, run_mc
from .mixed_dist import write_density_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VALIDATION = 3

SCHEMA_VERSION = 1

SWEEP_PARAMETERS = ("bus-count", "load-mean-scale", "injection-probability-scale")


def _fail(message: str, code: int = EXIT_CONFIG) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _resolve_seed(args) -> int:
    # one seed feeds every random draw; a fresh one is drawn (and echoed
    # into the JSON outputs) when the flag is omitted
    return args.seed if args.seed is not None else secrets.randbits(32)


def _dp_config(args) -> DpConfig:
    return DpConfig(
        grid_s=args.grid_s,
        grid_delta=args.grid_delta,
        tail_tol=args.tail_tol,
        renormalize=getattr(args, "renormalize", False),
    )


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _feeder_block(spec: FeederSpec) -> dict:
    return {
        "buses": spec.n,
        "base_voltage": spec.base_voltage,
        "alpha": spec.alpha,
        "load_mean_total": float(spec.load_means().sum()),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(spec: FeederSpec, args) -> int:
    families = sorted({d.family for d in spec.loads})
    print(f"config ok: {spec.n} buses, base voltage {spec.base_voltage}, "
          f"alpha {spec.alpha}, load families {', '.join(families)}")
    return EXIT_OK


def cmd_deterministic(spec: FeederSpec, args) -> int:
    loads = spec.load_means()
    profile = solve_linear(spec, loads)
    drop = max_drop(spec, loads)
    nonlin = solve_nonlinear(spec, loads)
    out = _out_dir(args)
    _write_json(out / "deterministic.json", {
        "schema_version": SCHEMA_VERSION,
        "command": "deterministic",
        "feeder": _feeder_block(spec),
        "loads": [float(v) for v in loads],
        "linear": {
            "voltage": profile.voltage.tolist(),
            "head_flow": float(profile.flow_s[0]),
            "delta": drop.delta.tolist(),
            "delta0": drop.delta0,
            "argmin_bus": drop.argmin_bus,
        },
        "nonlinear": {
            "voltage": nonlin.voltage.tolist(),
            "iterations": nonlin.iterations,
            "delta0": float(spec.base_voltage - nonlin.voltage.min()),
        },
    })
    print(f"delta0 {drop.delta0:.6g} at bus {drop.argmin_bus} "
          f"(nonlinear gap {abs(spec.base_voltage - nonlin.voltage.min() - drop.delta0):.3g})")
    return EXIT_OK


def _summary_payload(spec: FeederSpec, report: DpReport, args, seed: int) -> dict:
    drop = report.drop
    mean, std = drop.mean_std()
    twice = 2.0 * mean
    exceed = {repr(float(t)): drop.prob_exceed(t) for t in (args.threshold or [])}
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "seed": seed,
        "feeder": _feeder_block(spec),
        "config": asdict(_dp_config(args)),
        "lattice": asdict(report.lattice),
        "threads": report.threads,
        "mass": {
            "total": drop.total_mass(),
            "lost": report.lost_mass,
            "ledger_gap": report.ledger_gap,
        },
        "atom_at_zero": drop.atom_at_zero(),
        "mean": mean,
        "std": std,
        "quantiles": {repr(float(q)): drop.quantile(q) for q in args.quantile},
        "exceedance": exceed,
        "exceed_twice_mean": {"threshold": twice, "probability": drop.prob_exceed(twice)},
        "stages": [asdict(log) for log in report.stage_logs],
        "runtime_s": report.seconds,
    }


def cmd_analyze(spec: FeederSpec, args) -> int:
    seed = _resolve_seed(args)
    report = run(spec, _dp_config(args))
    out = _out_dir(args)
    write_density_csv(out / "drop_marginal.csv", report.drop)
    print(f"wrote {out / 'drop_marginal.csv'}")
    if not args.skip_joint:
        joint_to_csv(report.state, out / "joint.csv")
        print(f"wrote {out / 'joint.csv'}")
    _write_json(out / "summary.json", _summary_payload(spec, report, args, seed))
    mean, std = report.drop.mean_std()
    print(f"mean drop {mean:.6g}, std {std:.6g}, "
          f"zero atom {report.drop.atom_at_zero():.6g}, "
          f"lost mass {report.lost_mass:.3g}, {report.seconds:.2f}s")
    return EXIT_OK


def cmd_mc(spec: FeederSpec, args) -> int:
    seed = _resolve_seed(args)
    config = McConfig(samples=args.samples, seed=seed, shards=args.shards,
                      nonlinear=args.nonlinear)
    batch_samples, threads = batch_plan(spec.n, config)
    t0 = time.perf_counter()
    emp = run_mc(spec, config)
    seconds = time.perf_counter() - t0
    out = _out_dir(args)
    path = out / "mc_samples.csv"
    with open(path, "w", encoding="utf-8") as fh:
        if args.with_s0:
            fh.write("s0,delta0\n")
            np.savetxt(fh, emp.samples, fmt="%.17g,%.17g")
        else:
            fh.write("delta0\n")
            np.savetxt(fh, emp.delta0, fmt="%.17g")
    print(f"wrote {path}")
    mean, std = emp.mean_std()
    _write_json(out / "mc_summary.json", {
        "schema_version": SCHEMA_VERSION,
        "command": "mc",
        "seed": seed,
        "samples": emp.n,
        "nonlinear": args.nonlinear,
        "zero_fraction": emp.zero_fraction(),
        "mean": mean,
        "std": std,
        "quantiles": {repr(float(q)): emp.quantile(q) for q in args.quantile},
        "seconds": seconds,
        "samples_per_s": emp.n / seconds,
        "threads": threads,
        "batch_samples": batch_samples,
    })
    print(f"mean drop {mean:.6g}, std {std:.6g}, zero fraction {emp.zero_fraction():.6g}")
    return EXIT_OK


def cmd_compare(spec: FeederSpec, args) -> int:
    seed = _resolve_seed(args)
    mc_config = McConfig(samples=args.samples, seed=seed, shards=args.shards)
    report = run(spec, _dp_config(args))
    emp = run_mc(spec, mc_config)
    result = compare(report.drop, emp,
                     ks_threshold=args.ks_threshold,
                     atom_threshold=args.atom_threshold)
    out = _out_dir(args)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "compare",
        "seed": seed,
        "config": {**asdict(_dp_config(args)), "samples": args.samples},
        "feeder": _feeder_block(spec),
    }
    payload.update(result.to_dict())
    _write_json(out / "compare.json", payload)
    for check in result.checks:
        flag = "pass" if check.passed else "FAIL"
        print(f"{flag}: {check.name} = {check.value:.6g} "
              f"(threshold {check.threshold:g})")
    return EXIT_OK if result.passed else EXIT_VALIDATION


def _sweep_spec(spec: FeederSpec, parameter: str, value: float) -> FeederSpec:
    if parameter == "bus-count":
        count = int(value)
        if count != value or count < 1:
            raise FeederConfigError("sweep", f"bus count {value!r} must be a positive integer")
        segments = tuple(spec.segments[i % spec.n] for i in range(count))
        loads = tuple(spec.loads[i % spec.n] for i in range(count))
        return FeederSpec(spec.base_voltage, spec.alpha, segments, loads)
    if parameter == "load-mean-scale":
        if value < 0:
            raise FeederConfigError("sweep", f"scale {value!r} must be >= 0")
        return FeederSpec(spec.base_voltage, spec.alpha, spec.segments,
                          tuple(d.scaled(value) for d in spec.loads))
    # injection-probability-scale: multiply the injection odds by value,
    # keeping both lobe shapes; only the two-sided family has that dial
    if value <= 0:
        raise FeederConfigError("sweep", f"scale {value!r} must be > 0")
    loads = []
    for k, d in enumerate(spec.loads):
        if not isinstance(d, TwoSidedExponential):
            raise FeederConfigError(
                f"loads[{k}]",
                "injection-probability-scale needs two-sided-exponential loads")
        loads.append(TwoSidedExponential(
            weight=1.0 / (d.rate_pos + value / d.rate_neg),
            rate_pos=d.rate_pos,
            rate_neg=d.rate_neg / value,
        ))
    return FeederSpec(spec.base_voltage, spec.alpha, spec.segments, tuple(loads))


def cmd_sweep(spec: FeederSpec, args) -> int:
    if args.threshold and len(args.threshold) > 1:
        return _fail("sweep takes at most one --threshold")
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        return _fail(f"cannot parse sweep values {args.values!r}")
    if not values:
        return _fail("sweep needs at least one value")
    for v in values:
        if not math.isfinite(v):
            return _fail(f"sweep value {v!r} must be finite")
    try:
        specs = [_sweep_spec(spec, args.parameter, v) for v in values]
    except FeederConfigError as exc:
        return _fail(str(exc))
    config = _dp_config(args)
    out = _out_dir(args)
    path = out / "sweep.csv"
    code = EXIT_OK
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("value,mean_drop,threshold,exceed_prob,runtime_s\n")
        for value, point in zip(values, specs):
            t0 = time.perf_counter()
            try:
                report = run(point, config)
            except MassLossError as exc:
                print(f"error at value {value:g}: {exc}", file=sys.stderr)
                code = EXIT_NUMERICAL
                break
            elapsed = time.perf_counter() - t0
            mean, _ = report.drop.mean_std()
            threshold = args.threshold[0] if args.threshold else 2.0 * mean
            fh.write(f"{value!r},{mean!r},{threshold!r},"
                     f"{report.drop.prob_exceed(threshold)!r},{elapsed!r}\n")
            fh.flush()
            print(f"value {value:g}: mean drop {mean:.6g}, {elapsed:.2f}s")
    print(f"wrote {path}")
    return code


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_dp_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-s", type=int, default=2048,
                   help="through-flow axis cells (default 2048)")
    p.add_argument("--grid-delta", type=int, default=2048,
                   help="drop axis cells (default 2048)")
    p.add_argument("--tail-tol", type=float, default=1e-6,
                   help="per-run truncation budget (default 1e-6)")


def _add_out_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", default="out", help="output directory (default ./out)")


def _add_seed_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="master seed; a random one is drawn and echoed when omitted")


def _add_quantile_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quantile", type=float, action="append", default=None,
                   help="quantile level to report (repeatable; default 0.5 0.9 0.99)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vdropstat",
        description="Distribution of the maximal voltage drop on a radial feeder "
                    "with random bus loads.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a feeder config")
    p.add_argument("config")

    p = sub.add_parser("deterministic",
                       help="solve the feeder once at the mean loads")
    p.add_argument("config")
    _add_out_flag(p)

    p = sub.add_parser("analyze", help="propagate the full drop distribution")
    p.add_argument("config")
    _add_dp_flags(p)
    _add_seed_flag(p)
    _add_quantile_flag(p)
    p.add_argument("--threshold", type=float, action="append", default=None,
                   help="report P(drop > threshold) (repeatable)")
    p.add_argument("--renormalize", action="store_true",
                   help="scale the final law back to total mass one")
    p.add_argument("--skip-joint", action="store_true",
                   help="skip joint.csv (large at default grids)")
    _add_out_flag(p)

    p = sub.add_parser("mc", help="Monte Carlo sampling of the drop")
    p.add_argument("config")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--shards", type=int, default=1,
                   help="shard count (never changes the values)")
    p.add_argument("--nonlinear", action="store_true",
                   help="replay samples through the nonlinear solver")
    p.add_argument("--with-s0", action="store_true",
                   help="emit original-order (s0, delta0) pairs instead of sorted drops")
    _add_seed_flag(p)
    _add_quantile_flag(p)
    _add_out_flag(p)

    p = sub.add_parser("compare", help="gate the deterministic law against MC")
    p.add_argument("config")
    _add_dp_flags(p)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--ks-threshold", type=float, default=0.01)
    p.add_argument("--atom-threshold", type=float, default=0.005)
    _add_seed_flag(p)
    _add_out_flag(p)

    p = sub.add_parser("sweep", help="repeat the analysis over a parameter range")
    p.add_argument("config")
    p.add_argument("--parameter", choices=SWEEP_PARAMETERS, required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated list, e.g. 8,16,32")
    p.add_argument("--threshold", type=float, action="append", default=None,
                   help="exceedance threshold (default: twice the mean per point)")
    _add_dp_flags(p)
    _add_out_flag(p)
    return parser


_DISPATCH = {
    "validate": cmd_validate,
    "deterministic": cmd_deterministic,
    "analyze": cmd_analyze,
    "mc": cmd_mc,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "quantile", None) is None and hasattr(args, "quantile"):
        args.quantile = [0.5, 0.9, 0.99]
    for q in getattr(args, "quantile", None) or []:
        if not 0.0 <= q <= 1.0:
            return _fail(f"quantile level {q!r} outside [0, 1]")
    for t in getattr(args, "threshold", None) or []:
        if not math.isfinite(t):
            return _fail(f"threshold {t!r} must be finite")
    try:
        spec = parse_feeder(args.config)
    except FeederConfigError as exc:
        return _fail(str(exc))
    try:
        return _DISPATCH[args.command](spec, args)
    except (MassLossError, NonConvergenceError) as exc:
        # raised before any command touches its output directory
        return _fail(str(exc), EXIT_NUMERICAL)
    except ValueError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
