"""Shared builders for the test suite."""

import threading
from pathlib import Path

import numpy as np

from vdropstat import mixed_dist
from vdropstat.feeder_model import (
    FeederSpec,
    LineSegment,
    PointMass,
    TwoSidedExponential,
)

V0 = 1.0
REPO = Path(__file__).resolve().parent.parent
CONFIG4 = REPO / "configs" / "feeder4.json"


def segment(r, x=0.0):
    return LineSegment(r=r, x=x)


def reference_load():
    # mean 2.0 kW, std sqrt(10) kW, P(s <= 0) = 1/4
    return TwoSidedExponential(weight=0.25, rate_pos=3.0, rate_neg=1.0)


def reference_spec(n=4, r=1e-3):
    return FeederSpec(
        base_voltage=V0,
        alpha=0.0,
        segments=tuple(segment(r) for _ in range(n)),
        loads=tuple(reference_load() for _ in range(n)),
    )


def point_spec(locations, r=1e-3):
    locs = [float(v) for v in locations]
    return FeederSpec(
        base_voltage=V0,
        alpha=0.0,
        segments=tuple(segment(r) for _ in locs),
        loads=tuple(PointMass(location=v) for v in locs),
    )


def random_point_spec(rng, n_max=8):
    """Random all-point-mass chain; returns (spec, load vector)."""
    n = int(rng.integers(1, n_max + 1))
    segs = tuple(segment(float(rng.uniform(1e-4, 5e-3))) for _ in range(n))
    locs = rng.uniform(-3.0, 5.0, size=n)
    loads = tuple(PointMass(location=float(v)) for v in locs)
    spec = FeederSpec(base_voltage=V0, alpha=0.0, segments=segs, loads=loads)
    return spec, locs


def write_config(path, obj):
    import json

    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    return str(path)


def single_point_config(tmp_path, location=2.0, r=1e-3):
    return write_config(tmp_path / "one.json", {
        "base_voltage": 1.0,
        "alpha": 0.0,
        "segments": [{"r": r, "x": 0.0}],
        "loads": [{"family": "point-mass", "location": location}],
    })


def transform_threads(monkeypatch):
    """Patch ``rfft``, the forward transform of each block of lines in
    ``convolve_lines`` (and of a kernel's weights, on the caller, when its
    spectrum is not cached yet), to collect the ids of the threads that call
    it; returns the set."""
    seen = set()
    rfft = mixed_dist.rfft
    monkeypatch.setattr(mixed_dist, "rfft", lambda *a, **k: (
        seen.add(threading.get_ident()), rfft(*a, **k))[1])
    return seen
