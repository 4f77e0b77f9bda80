"""Acceptance gate: one test per release criterion, in order.

Each test states its tolerance and wall-clock budget inline. Mass-ledger
audits (criterion 8) sweep every engine run the earlier criteria produced,
so the runs register themselves in RUNS as they happen.
"""

import time

import numpy as np
import pytest

from helpers import (
    CONFIG4,
    random_point_spec,
    reference_load,
    reference_spec,
    segment,
)
from vdropstat import cli
from vdropstat.distflow import max_drop, solve_linear
from vdropstat.dp_engine import DpConfig, DpReport, run
from vdropstat.feeder_model import FeederSpec, Histogram
from vdropstat.mc_oracle import McConfig, compare, ks_distance, run_mc

RUNS: list[tuple[str, DpReport]] = []
_CACHE: dict[str, DpReport] = {}


def _record(label: str, report: DpReport) -> DpReport:
    RUNS.append((label, report))
    return report


def reference_report() -> DpReport:
    """4-bus two-sided-exponential system at the full 2048x2048 grid."""
    if "ref" not in _CACHE:
        _CACHE["ref"] = _record("reference-2048", run(reference_spec(), DpConfig()))
    return _CACHE["ref"]


def test_criterion_1_reference_load_moments():
    t0 = time.perf_counter()
    load = reference_load()
    mean, std = load.moments()
    assert mean == 2.0
    assert abs(std - 10.0**0.5) <= 1e-6 * 10.0**0.5
    assert time.perf_counter() - t0 < 5.0


def test_criterion_2_recursion_matches_linear_solver():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    done = 0
    while done < 1000:
        spec, _ = random_point_spec(rng, n_max=16)
        for _ in range(10):
            loads = rng.normal(0.0, 3.0, spec.n)
            drop = max_drop(spec, loads)
            profile = solve_linear(spec, loads)
            gap = abs(drop.delta0 - (spec.base_voltage - profile.voltage.min()))
            assert gap <= 1e-12
            done += 1
    assert time.perf_counter() - t0 < 1.0


def test_criterion_3_atomic_specs_collapse_to_point():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    cfg = DpConfig(grid_s=64, grid_delta=64)
    for i in range(50):
        spec, locs = random_point_spec(rng, n_max=8)
        rep = _record(f"atomic-{i}", run(spec, cfg))
        det = max_drop(spec, locs)
        d = rep.drop.density
        assert len(d.atom_locs) == 1
        assert d.grid is None or d.grid.mass() < 1e-12
        assert abs(d.atom_locs[0] - det.delta0) <= rep.lattice.d_step
    assert time.perf_counter() - t0 < 10.0


def test_criterion_4_reference_law_matches_mc():
    t0 = time.perf_counter()
    rep = reference_report()
    emp = run_mc(reference_spec(), McConfig(samples=1_000_000, seed=7))
    report = compare(rep.drop, emp, ks_threshold=0.01, atom_threshold=0.005)
    values = {c.name: c.value for c in report.checks}
    assert values["ks_distance"] <= 0.01
    assert values["zero_atom_gap"] <= 0.005
    assert report.passed
    assert time.perf_counter() - t0 < 120.0


def shifted_exponential_histogram(shift: float, scale: float) -> Histogram:
    # 400 exact cdf-difference bins carry the whole law onto finite support
    width = scale * np.log(1e9)
    edges = shift + np.linspace(0.0, width, 401)
    masses = np.diff(1.0 - np.exp(-(edges - shift) / scale))
    return Histogram(tuple(edges), tuple(masses / masses.sum()))


def test_criterion_5_nonnegative_loads_match_direct_convolution():
    t0 = time.perf_counter()
    n = 4
    loads = tuple(shifted_exponential_histogram(0.5 + 0.25 * k, 1.5)
                  for k in range(n))
    spec = FeederSpec(base_voltage=1.0, alpha=0.0,
                      segments=tuple(segment(1e-3) for _ in range(n)),
                      loads=loads)
    rep = _record("monotone", run(spec, DpConfig(grid_s=1024, grid_delta=1024)))

    # nonnegative draws never hit the zero clamp, so the drop is the plain
    # weighted sum over buses; convolve the per-bus laws on a fine 1D grid
    h = rep.lattice.d_step / 4.0
    dist = np.array([1.0])
    off = 0
    for k, load in enumerate(loads):
        c = 1e-3 * (k + 1)
        lo, hi = load.support(1e-12)
        i0, i1 = int(np.floor(c * lo / h)), int(np.ceil(c * hi / h))
        edges = np.arange(i0, i1 + 1) * h
        masses = np.diff(np.asarray(load.cdf(edges / c), dtype=float))
        dist = np.convolve(dist, np.clip(masses, 0.0, None))
        off += i0
    pos = (off + np.arange(len(dist)) + n / 2.0) * h
    f_mid = np.cumsum(dist) - dist / 2.0
    ks = float(np.abs(np.asarray(rep.drop.cdf(pos)) - f_mid).max())
    assert ks <= 0.005
    assert time.perf_counter() - t0 < 30.0


def test_criterion_6_tail_exceedance_matches_mc():
    rep = reference_report()
    mean, _ = rep.drop.mean_std()
    twice = 2.0 * mean
    p_dp = rep.drop.prob_exceed(twice)
    emp = run_mc(reference_spec(), McConfig(samples=1_000_000, seed=11))
    p_mc = float((emp.delta0 > twice).mean())
    print(f"\nP(drop > 2*mean): dp={p_dp:.5f}, mc={p_mc:.5f}, "
          f"gap={abs(p_dp - p_mc):.5f}; "
          f"distance to the 0.13 benchmark figure: {abs(p_dp - 0.13):.5f}")
    assert abs(p_dp - p_mc) <= 0.01


def test_criterion_7_near_linear_scaling(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "sweep"
    sizes = [8, 16, 32, 64, 128, 256, 512, 1024]
    code = cli.main([
        "sweep", str(CONFIG4), "--parameter", "bus-count",
        "--values", ",".join(str(v) for v in sizes),
        "--grid-s", "256", "--grid-delta", "256",
        "--out-dir", str(out),
    ])
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == len(sizes)
    runtimes = np.array([float(r.split(",")[4]) for r in rows])
    slope = np.polyfit(np.log10(sizes), np.log10(runtimes), 1)[0]
    print(f"\nsweep runtimes {np.round(runtimes, 3).tolist()}, "
          f"log-log slope {slope:.3f}")
    assert 0.8 <= slope <= 1.3
    # fold the deepest chain into the mass audit as a direct engine run
    _record("chain-1024", run(reference_spec(n=1024),
                              DpConfig(grid_s=256, grid_delta=256)))
    assert time.perf_counter() - t0 < 600.0


def test_criterion_8_mass_ledger_bounds():
    if not RUNS:  # selective invocation: audit at least the reference run
        reference_report()
    worst_gap = max(abs(rep.ledger_gap) for _, rep in RUNS)
    worst_lost = max(rep.lost_mass for _, rep in RUNS)
    print(f"\naudited {len(RUNS)} runs: worst unlogged gap {worst_gap:.3e}, "
          f"worst logged loss {worst_lost:.3e}")
    for label, rep in RUNS:
        assert abs(rep.ledger_gap) <= 1e-6, label
        assert rep.lost_mass <= 1e-4, label


def test_criterion_9_sharded_mc_bitwise_identical():
    t0 = time.perf_counter()
    spec = reference_spec()
    runs = [run_mc(spec, McConfig(samples=250_000, seed=5, shards=k))
            for k in (1, 4, 8)]
    base = runs[0]
    for other in runs[1:]:
        assert np.array_equal(base.delta0, other.delta0)
        assert np.array_equal(base.samples, other.samples)
        assert base.zero_count == other.zero_count
    assert time.perf_counter() - t0 < 60.0
