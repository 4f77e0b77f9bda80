"""Output checks behind the benchmark's failure count.

Every check returns a list of problems; an operation whose list is not
empty counts as failed. The compare gate is not one of them: it is
reported as its own pass flag next to ``ks_mc``.
"""

from __future__ import annotations

import numpy as np

# Acceptance criterion 8 of the test suite.
LEDGER_GAP_MAX = 1e-6
LOST_MASS_MAX = 1e-4


def law_problems(ledger_gap: float, lost_mass: float, drop, quantiles) -> list[str]:
    """Mass ledger bounds, a finite monotone CDF and ordered quantiles."""
    problems = []
    if not abs(ledger_gap) <= LEDGER_GAP_MAX:
        problems.append(f"ledger_gap {ledger_gap!r} beyond {LEDGER_GAP_MAX:g}")
    if not lost_mass <= LOST_MASS_MAX:
        problems.append(f"lost_mass {lost_mass!r} beyond {LOST_MASS_MAX:g}")
    xs = drop.knots()
    right = np.asarray(drop.cdf(xs))
    left = np.asarray(drop.cdf_left(xs))
    if not (np.all(np.isfinite(right)) and np.all(np.isfinite(left))):
        problems.append("cdf not finite")
    elif np.any(np.diff(right) < 0.0) or np.any(left > right):
        problems.append("cdf not monotone")
    q = np.asarray(quantiles, dtype=float)
    if not np.all(np.isfinite(q)) or np.any(np.diff(q) < 0.0):
        problems.append(f"quantiles unordered: {q.tolist()}")
    return problems


def sample_problems(d: np.ndarray, samples: int) -> list[str]:
    """A Monte Carlo law has the asked-for count of finite, sorted drops."""
    if len(d) != samples:
        return [f"{len(d)} drops, expected {samples}"]
    if not np.all(np.isfinite(d)):
        return ["non-finite drop"]
    if np.any(np.diff(d) < 0.0):
        return ["drops not sorted"]
    return []


def shard_problems(one, many) -> list[str]:
    """Linear MC must be bitwise identical whatever the shard count."""
    same = (np.array_equal(one.delta0, many.delta0)
            and np.array_equal(one.samples, many.samples)
            and one.zero_count == many.zero_count)
    return [] if same else ["sharded MC differs from the single-shard run"]


def selftest() -> list[str]:
    """Feed the checks known-bad inputs; return the ones they let through.

    Uses a 4-bus feeder on a 64-cell lattice, so it costs milliseconds.
    """
    from vdropstat.dp_engine import DpConfig, run
    from vdropstat.feeder_model import parse_feeder
    from vdropstat.mc_oracle import McConfig, run_mc
    from vdropstat.mixed_dist import DropDistribution, Grid1D, MixedDensity1D

    spec = parse_feeder("configs/feeder4.json")
    rep = run(spec, DpConfig(grid_s=64, grid_delta=64))
    drop = rep.drop
    qs = [drop.quantile(p) for p in (0.5, 0.9, 0.99)]
    missed = []
    if law_problems(rep.ledger_gap, rep.lost_mass, drop, qs):
        missed.append("a good law was flagged")
    if not law_problems(rep.ledger_gap + 1e-3, rep.lost_mass, drop, qs):
        missed.append("perturbed ledger gap")

    one = run_mc(spec, McConfig(samples=1000, seed=3, shards=1))
    many = run_mc(spec, McConfig(samples=1000, seed=3, shards=4))
    if shard_problems(one, many):
        missed.append("a good shard pair was flagged")
    flipped = many.delta0.copy()
    k = len(flipped) // 2
    flipped[k] = np.nextafter(flipped[k], np.inf)
    object.__setattr__(many, "delta0", flipped)
    if not shard_problems(one, many):
        missed.append("shard pair with one value flipped")

    # Grid1D clamps negative cells on construction, so plant one afterwards.
    g = drop.density.grid
    bad = g.values.copy()
    bad[len(bad) // 2] = -10.0 * float(bad.max()) - 1.0
    grid = Grid1D(g.lo, g.hi, g.values)
    object.__setattr__(grid, "values", bad)
    dense = DropDistribution(MixedDensity1D(
        grid=grid, atom_locs=drop.density.atom_locs,
        atom_masses=drop.density.atom_masses))
    if not law_problems(0.0, 0.0, dense, qs):
        missed.append("non-monotone cdf")
    return missed
