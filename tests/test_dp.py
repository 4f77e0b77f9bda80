"""Stage kernel and full propagation of the joint flow-drop law."""

import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from helpers import (
    CONFIG4,
    REPO,
    on_threads,
    point_spec,
    random_point_spec,
    reference_load,
    reference_spec,
    segment,
    write_config,
)
from vdropstat import dp_engine, mixed_dist
from vdropstat.distflow import max_drop
from vdropstat.dp_engine import (
    DpConfig,
    MassLossError,
    joint_to_csv,
    plan_lattice,
    run,
)
from vdropstat.feeder_model import (
    FeederSpec,
    Gaussian,
    Histogram,
    PointMass,
    Uniform,
    parse_feeder,
)
from vdropstat.mc_oracle import McConfig, run_mc
from vdropstat.mixed_dist import JointLattice, JointState, Scratch, convolve_lines


CFG = DpConfig(grid_s=256, grid_delta=256)


def _terminal(spec, config):
    return JointState.terminal(plan_lattice(spec, config), stage=spec.n)


def _step(state, spec, j, config):
    """Apply bus j's stage alone, with a workspace of its own (whose canvas
    is zero, so the stage reads ``state``'s band where it lies and leaves it
    as it was)."""
    return dp_engine._stage(state, spec.loads[j], spec.rho[j], config,
                            dp_engine._Workspace(state.lattice))[0]


def test_config_validation():
    with pytest.raises(ValueError):
        DpConfig(grid_s=8)
    with pytest.raises(ValueError):
        DpConfig(tail_tol=0.5)
    with pytest.raises(ValueError):
        DpConfig(tail_tol=0.0)


def test_planned_lattice_anchors_zero():
    lat = plan_lattice(reference_spec(), CFG)
    k = (0.0 - lat.s_lo) / lat.s_step
    assert abs(k - round(k)) < 1e-9
    assert lat.s_lo < 0.0 < lat.s_hi
    # domain must cover the head-flow bulk (mean 8) and the drop range
    assert lat.s_hi > 8.0
    assert lat.d_hi > 2.0 * 0.0207
    assert lat.stage_tail_budget == pytest.approx(CFG.tail_tol / 4)


def test_first_step_splits_load_by_sign():
    spec = reference_spec()
    st = _step(_terminal(spec, CFG), spec, 3, CFG)
    assert st.stage == 3
    assert st.slope == 1e-3
    assert st.pc_mass() == 0.0
    zero, diag = st.hinge_sides()
    assert abs(zero.mass() - 0.25) < 2e-3
    assert abs(diag.mass() - 0.75) < 2e-3
    st.validate()


def test_point_load_from_rest_consumption():
    spec = point_spec([2.0])
    cfg = DpConfig(grid_s=64, grid_delta=64)
    st = _step(_terminal(spec, cfg), spec, 0, cfg)
    # positive draw lands on the diagonal: D = rho * S exactly
    assert (st.atom_s.tolist(), st.atom_d.tolist()) == ([2.0], [0.002])
    assert st.atom_mass.tolist() == [1.0]
    assert st.slope == 1e-3
    assert st.atom_d[0] == st.slope * st.atom_s[0]
    assert st.line is None
    st.validate()


def test_point_load_from_rest_injection():
    spec = point_spec([-2.0])
    cfg = DpConfig(grid_s=64, grid_delta=64)
    st = _step(_terminal(spec, cfg), spec, 0, cfg)
    assert (st.atom_s.tolist(), st.atom_d.tolist()) == ([-2.0], [0.0])
    assert st.atom_mass.tolist() == [1.0]
    assert st.line is None
    st.validate()


def test_single_bus_point_mass_drop():
    rep = run(point_spec([2.0]), DpConfig(grid_s=64, grid_delta=64))
    d = rep.drop.density
    assert d.atom_locs.tolist() == [0.002]
    assert d.atom_masses.tolist() == [1.0]
    assert rep.drop.mean_std() == (0.002, 0.0)


def test_four_bus_point_mass_matches_recursion_exactly():
    spec = point_spec([2.0, 2.0, 2.0, 2.0])
    rep = run(spec, DpConfig(grid_s=64, grid_delta=64))
    det = max_drop(spec, [2.0, 2.0, 2.0, 2.0])
    d = rep.drop.density
    assert len(d.atom_locs) == 1
    assert d.atom_locs[0] == det.delta0 == 0.020


def test_degenerate_specs_stay_atomic():
    rng = np.random.default_rng(17)
    cfg = DpConfig(grid_s=64, grid_delta=64)
    for _ in range(10):
        spec, locs = random_point_spec(rng)
        rep = run(spec, cfg)
        det = max_drop(spec, locs)
        d = rep.drop.density
        assert len(d.atom_locs) == 1
        assert d.grid is None or d.grid.mass() < 1e-12
        assert abs(d.atom_locs[0] - det.delta0) <= rep.lattice.d_step


def test_state_valid_after_every_stage():
    spec = reference_spec()
    st = _terminal(spec, CFG)
    for j in range(spec.n - 1, -1, -1):
        st = _step(st, spec, j, CFG)
        st.validate()
        assert st.stage == j
    assert st.slope == spec.rho[0]


def test_mixed_atomic_and_continuous_loads():
    spec = FeederSpec(
        base_voltage=1.0,
        alpha=0.0,
        segments=(segment(1e-3), segment(1e-3)),
        loads=(reference_load(), PointMass(location=3.0)),
    )
    rep = run(spec, CFG)
    rep.state.validate()
    # a 3 kW floor under a two-sided tail leaves almost everything continuous
    assert rep.state.pc_mass() > 0.99
    assert rep.drop.atom_at_zero() < 1e-3
    assert abs(rep.ledger_gap) < 1e-9


def test_point_mass_kernel_over_gridded_state():
    spec = FeederSpec(
        base_voltage=1.0,
        alpha=0.0,
        segments=(segment(1e-3), segment(1e-3)),
        loads=(PointMass(location=3.0), reference_load()),
    )
    rep = run(spec, CFG)
    rep.state.validate()
    assert abs(rep.ledger_gap) < 1e-9
    mean, _ = rep.drop.mean_std()
    # E[drop] >= rho * (E[S_0] + E[S_1]) with both summands positive here
    assert mean > 1e-3 * (5.0 + 2.0) * 0.9


def test_reference_run_mass_ledger():
    rep = run(reference_spec(), DpConfig(grid_s=512, grid_delta=512))
    assert rep.drop.total_mass() == pytest.approx(1.0, abs=2e-6)
    assert rep.lost_mass < 1e-4
    assert abs(rep.ledger_gap) < 1e-9
    assert len(rep.stage_logs) == 4
    assert rep.stage_logs[-1].cumulative_lost == pytest.approx(rep.lost_mass)


def test_renormalize_option():
    rep = run(reference_spec(), DpConfig(grid_s=256, grid_delta=256,
                                         renormalize=True))
    assert rep.drop.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_coarse_grid_keeps_mean_drift():
    # long chain at fixed resolution: cells far wider than the load scale
    spec = reference_spec(n=64)
    rep = run(spec, CFG)
    mean, _ = rep.drop.mean_std()
    floor = 1e-3 * 2.0 * 64 * 65 / 2.0  # rho * sum of flow means
    assert floor <= mean <= 1.02 * floor


def test_mass_loss_aborts_loudly():
    spec = reference_spec(n=64)
    with pytest.raises(MassLossError, match="exceeds"):
        run(spec, DpConfig(grid_s=16, grid_delta=16))


def test_joint_csv_layout():
    cfg = DpConfig(grid_s=128, grid_delta=128)
    rep = run(reference_spec(), cfg)
    buf = io.StringIO()
    joint_to_csv(rep.state, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "part,s,delta,density,atom_mass"
    st, lat = rep.state, rep.lattice
    zero, diag = st.hinge_sides()
    expect = (
        (lat.d_cells * lat.s_cells if st.pc is not None else 0)
        + (lat.s_cells if zero.values.any() else 0)
        + (lat.s_cells if diag.values.any() else 0)
        + len(st.atom_s)
    )
    assert len(lines) - 1 == expect
    # the "c" rows hold the band at (pc_r0, pc_c0) of the lattice, row by row
    grid = np.array([float(row.split(",")[3]) for row in lines[1:] if row.startswith("c,")])
    assert np.array_equal(grid.reshape(lat.d_cells, lat.s_cells),
                          _padded(st.pc, st.pc_r0, st.pc_c0, lat))
    # mass recovered from the rows matches the state
    cell = lat.s_step * lat.d_step
    total = 0.0
    for row in lines[1:]:
        part, _, _, dens, atom = row.split(",")
        if part == "c":
            total += float(dens) * cell
        elif part in ("zero", "diag"):
            total += float(dens) * lat.s_step + float(atom)
        else:
            total += float(atom)
    assert total == pytest.approx(st.total_mass(), abs=1e-9)


def test_joint_csv_places_the_band_at_its_frame():
    lat = JointLattice(s_base=-3, s_step=0.5, s_cells=6, d_step=0.25, d_cells=8)
    pc = np.arange(1.0, 7.0).reshape(2, 3)  # lattice rows 5-6, columns 2-4
    st = JointState(stage=0, slope=0.5, lattice=lat, pc=pc, pc_r0=5, pc_c0=2)
    buf = io.StringIO()
    joint_to_csv(st, buf)
    cells = {(float(s_), float(d)): float(v) for part, s_, d, v, _ in
             (row.split(",") for row in buf.getvalue().strip().split("\n")[1:]) if part == "c"}
    assert len(cells) == lat.d_cells * lat.s_cells
    for (i, j), v in np.ndenumerate(_padded(pc, 5, 2, lat)):
        assert cells[lat.s_centers()[j], lat.d_centers()[i]] == v
    assert cells[lat.s_centers()[2], lat.d_centers()[5]] == 1.0
    assert cells[lat.s_centers()[4], lat.d_centers()[6]] == 6.0


def test_joint_csv_of_terminal_state():
    lat = plan_lattice(reference_spec(), CFG)
    buf = io.StringIO()
    joint_to_csv(JointState.terminal(lat, stage=4), buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "part,s,delta,density,atom_mass"
    assert len(lines) == 2  # just the starting atom


# ---------------------------------------------------------------------------
# band-limited, run-wise stage kernel
# ---------------------------------------------------------------------------


def _padded(band, r0, c0, lat):
    """The grid band, first cell at (r0, c0), as a full d_cells x s_cells
    canvas (zeros when None)."""
    full = np.zeros((lat.d_cells, lat.s_cells))
    if band is not None:
        full[r0:r0 + band.shape[0], c0:c0 + band.shape[1]] = band
    return full


def _assert_frame_in_lattice(band, r0, c0, lat):
    assert band.ndim == 2
    assert 0 <= r0 < r0 + band.shape[0] <= lat.d_cells
    assert 0 <= c0 < c0 + band.shape[1] <= lat.s_cells


def _reach(rows, cols, rho, lat):
    """The rows [o0, o1) the shear can move the band rows ``rows`` of the
    columns ``cols`` into, cut to the lattice."""
    shift = np.floor(rho * lat.s_centers()[cols[0]:cols[1]] / lat.d_step).astype(int)
    return max(rows[0] + int(shift.min()), 0), min(rows[1] + int(shift.max()) + 1, lat.d_cells)


def _table(rho, lat):
    return dp_engine._build_shear_table(rho, lat.s_centers(), lat)


def _shear(band, r0, c0, table, lat):
    """``_shear_canvas`` of ``band`` (first cell at lattice cell (r0, c0))
    on a canvas that holds nothing else. Checks that the canvas is zero
    outside the new band afterwards."""
    rows, cols = (r0, r0 + len(band)), (c0, c0 + band.shape[1])
    canvas = np.zeros((lat.s_cells, lat.d_cells))
    canvas[c0:cols[1], r0:rows[1]] = band.T
    got = dp_engine._shear_canvas(canvas, rows, cols, table, lat, mixed_dist.Scratch())
    new, o0 = got[0], got[1]
    rest = canvas.copy()
    if new is not None:
        assert np.shares_memory(new, canvas)
        rest[c0:cols[1], o0:o0 + len(new)] = 0.0
    assert not rest.any()
    return got


def _shear_per_column(canvas, rho, lat):
    """The column-by-column shear the run-wise one replaced; kept as its oracle."""
    m_d, n_s = canvas.shape
    cell = lat.s_step * lat.d_step
    colsum = canvas.sum(axis=0)
    g = rho * lat.s_centers() / lat.d_step
    base = np.floor(g).astype(int)
    frac = g - base
    out = np.zeros_like(canvas)
    zero_gain = np.zeros(n_s)
    top = 0.0
    for i in np.nonzero(colsum > 0.0)[0]:
        col = canvas[:, i]
        for w, sh in ((1.0 - frac[i], base[i]), (frac[i], base[i] + 1)):
            if w <= 0.0:
                continue
            if sh >= m_d:
                top += w * colsum[i]
            elif sh <= -m_d:
                zero_gain[i] += w * colsum[i]
            elif sh >= 0:
                out[sh:, i] += w * col[:m_d - sh]
                if sh:
                    top += w * float(col[m_d - sh:].sum())
            else:
                out[:m_d + sh, i] += w * col[-sh:]
                zero_gain[i] += w * float(col[:-sh].sum())
    return out, zero_gain * cell, top * cell


# shifts rho * s / d_step over s in [-15, 15]: 0, fractional and within
# the canvas, past both ends (|shift| >= d_cells), and exact integers
SHEAR_CASES = [(0.0, 0.5), (0.13, 0.5), (0.9, 0.5), (2.7, 0.5), (1.0, 0.5), (0.05, 0.1)]


def _assert_shear_matches_oracle(canvas, r0, r1, rho, lat):
    # the canvas's mass lies in rows [r0, r1); shear it as frames of the
    # whole width, of its occupied columns and of a few columns past them
    cell = lat.s_step * lat.d_step
    want_out, want_zero, want_top = _shear_per_column(canvas, rho, lat)
    occupied = np.flatnonzero(canvas.any(axis=0))
    frames = [(0, lat.s_cells)]
    if len(occupied):
        c_lo, c_hi = int(occupied[0]), int(occupied[-1]) + 1
        frames += [(c_lo, c_hi), (max(c_lo - 3, 0), min(c_hi + 2, lat.s_cells))]
    for c0, c1 in frames:
        band, o0, zero_gain, top = _shear(canvas[r0:r1, c0:c1], r0, c0, _table(rho, lat), lat)
        assert zero_gain.shape == (c1 - c0,)
        if band is not None:
            # the new band spans the frame's columns and the rows the shear reaches
            _assert_frame_in_lattice(band, o0, c0, lat)
            assert band.shape[1] == c1 - c0
            assert (o0, o0 + len(band)) == _reach((r0, r1), (c0, c1), rho, lat)
        out = _padded(band, o0, c0, lat)
        assert np.abs(out - want_out).max() <= 1e-15
        assert np.abs(zero_gain - want_zero[c0:c1]).max() <= 1e-15
        assert not want_zero[:c0].any() and not want_zero[c1:].any()
        assert abs(top - want_top) <= 1e-15
        mass_in = canvas.sum() * cell
        mass_out = out.sum() * cell + zero_gain.sum() + top
        assert abs(mass_out - mass_in) <= 1e-12 * max(mass_in, 1e-300)
        if r1 == r0:
            assert out.sum() == 0.0 and zero_gain.sum() == 0.0 and top == 0.0


@pytest.mark.parametrize("rho, d_step", SHEAR_CASES)
def test_run_wise_shear_matches_per_column_loop(rho, d_step):
    rng = np.random.default_rng(int(rho * 100) + 7)
    lat = JointLattice(s_base=-15, s_step=1.0, s_cells=30, d_step=d_step, d_cells=24)
    cell = lat.s_step * lat.d_step
    bands = [(0, 24), (0, 5), (9, 17), (20, 24), (23, 24), (0, 0)]
    for r0, r1 in bands:
        canvas = np.zeros((24, 30))
        canvas[r0:r1] = rng.random((r1 - r0, 30)) / (24 * 30 * cell)
        canvas[:, rng.random(30) < 0.2] = 0.0  # some empty columns
        _assert_shear_matches_oracle(canvas, r0, r1, rho, lat)


@pytest.mark.parametrize("s_base, rho", [(-45, 0.5), (15, 0.5), (-30, 2.0), (-30, 0.13)])
def test_shear_column_blocks_match_per_column_loop(monkeypatch, s_base, rho):
    # 16-column blocks over 60 columns; at s_base=-45 the first block lands
    # wholly below zero and at s_base=15 the last ones wholly over the top
    monkeypatch.setattr(dp_engine, "_SHEAR_BLOCK_CELLS", 16)
    rng = np.random.default_rng(11)
    lat = JointLattice(s_base=s_base, s_step=1.0, s_cells=60, d_step=0.5, d_cells=24)
    cell = lat.s_step * lat.d_step
    for r0, r1 in [(0, 24), (3, 11), (23, 24)]:
        canvas = np.zeros((24, 60))
        canvas[r0:r1] = rng.random((r1 - r0, 60)) / (24 * 60 * cell)
        _assert_shear_matches_oracle(canvas, r0, r1, rho, lat)


def test_shear_reports_an_emptied_grid_as_none():
    lat = JointLattice(s_base=-15, s_step=1.0, s_cells=30, d_step=0.5, d_cells=24)
    band = np.ones((2, 4))  # rows 3 and 4 of the S < 0 columns 2-5, pushed far below zero
    out, _, zero_gain, top = _shear(band, 3, 2, _table(5.0, lat), lat)
    assert out is None and top == 0.0
    assert zero_gain.shape == (4,)
    assert zero_gain.sum() == pytest.approx(8.0 * 0.5)


def _shear_per_shift(band, r0, c0, rho, lat, scratch):
    """The shear that formed each integer shift's weighted part on its own
    (a weight product, a temporary and an add per shift); kept as the oracle
    of the one-copy-per-shift shear, which must match it bit for bit."""
    m_d = lat.d_cells
    n_b, n_c = band.shape
    r1 = r0 + n_b
    cell = lat.s_step * lat.d_step
    zero_gain = np.zeros(n_c)
    top = 0.0
    g = rho * lat.s_centers()[c0:c0 + n_c] / lat.d_step
    base = np.floor(g).astype(int)
    frac = g - base
    odd = base % 2 == 1
    parts = (np.where(odd, frac, 1.0 - frac), np.where(odd, 1.0 - frac, frac))
    b_lo = int(base[0])
    first = np.searchsorted(base, np.arange(b_lo - 1, int(base[-1]) + 3)).tolist()
    out_r0 = max(r0 + b_lo, 0)
    out_r1 = min(r1 + int(base[-1]) + 1, m_d)
    out = np.zeros((max(out_r1 - out_r0, 0), n_c))
    width = max(dp_engine._SHEAR_BLOCK_CELLS // max(n_b, 1), 16)
    for b0 in range(0, n_c, width):
        b1 = min(b0 + width, n_c)
        block = scratch.array("shear_block", (b1 - b0, n_b))
        block[...] = band[:, b0:b1].T
        o0 = max(r0 + int(base[b0]), 0)
        o1 = min(r1 + int(base[b1 - 1]) + 1, m_d)
        moved = scratch.array("shear_moved", (b1 - b0, max(o1 - o0, 0)))
        moved[...] = 0.0
        for sh in range(int(base[b0]), int(base[b1 - 1]) + 2):
            a = max(first[sh - b_lo], b0)
            b = min(first[sh - b_lo + 2], b1)
            if b <= a:
                continue
            w = parts[sh % 2][a:b]
            lo = min(max(-sh - r0, 0), n_b)
            hi = max(min(m_d - sh - r0, n_b), lo)
            src = block[a - b0:b - b0]
            if lo:
                zero_gain[a:b] += w * src[:, :lo].sum(axis=1)
            if hi < n_b:
                top += float(np.dot(w, src[:, hi:].sum(axis=1)))
            if hi > lo:
                d0 = r0 + lo + sh - o0
                moved[a - b0:b - b0, d0:d0 + hi - lo] += w[:, np.newaxis] * src[:, lo:hi]
        if o1 > o0:
            out[o0 - out_r0:o1 - out_r0, b0:b1] = moved.T
    return (out if len(out) else None), out_r0, zero_gain * cell, top * cell


@pytest.mark.parametrize("block_cells", [16, None])
def test_shear_equals_per_shift_shear_bitwise(monkeypatch, block_cells):
    # random frames of random lattices, some pushed partly below zero or over
    # the top, in 16-cell blocks (one or a few columns each) and in whole ones
    if block_cells is not None:
        monkeypatch.setattr(dp_engine, "_SHEAR_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(23)
    seen = {"below": 0, "over": 0, "single": 0, "blocks": 0}
    for trial in range(80):
        s_cells, d_cells = int(rng.integers(8, 80)), int(rng.integers(4, 48))
        lat = JointLattice(s_base=int(rng.integers(-s_cells, 4)), s_step=1.0, s_cells=s_cells,
                           d_step=float(rng.uniform(0.2, 2.0)), d_cells=d_cells)
        rho = (0.0, 0.01, float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.3, 4.0)))[trial % 4]
        c0 = int(rng.integers(0, s_cells))
        c1 = int(rng.integers(c0 + 1, s_cells + 1)) if trial % 5 else c0 + 1
        r0 = int(rng.integers(0, d_cells))
        r1 = int(rng.integers(r0 + 1, d_cells + 1))
        band = rng.random((r1 - r0, c1 - c0))
        band[:, rng.random(c1 - c0) < 0.2] = 0.0  # some empty columns
        table = _table(rho, lat)
        got = _shear(band, r0, c0, table, lat)
        want = _shear_per_shift(band, r0, c0, rho, lat, mixed_dist.Scratch())
        assert got[1] == want[1]
        assert (got[0] is None) == (want[0] is None)
        if got[0] is not None:
            assert got[0].shape == want[0].shape
            assert got[0].tobytes() == want[0].tobytes()
        assert got[2].tobytes() == want[2].tobytes()
        assert got[3] == want[3]
        shifts = table.base[c0:c1]
        seen["below"] += r0 + int(shifts[0]) < 0
        seen["over"] += r1 + int(shifts[-1]) + 1 > d_cells
        seen["single"] += shifts[0] == shifts[-1]
        seen["blocks"] += (c1 - c0) * (r1 - r0) > dp_engine._SHEAR_BLOCK_CELLS
    assert all(seen[k] >= 5 for k in ("below", "over", "single"))
    assert (seen["blocks"] >= 5) == (block_cells is not None)


def test_band_limited_convolution_equals_full_canvas():
    rng = np.random.default_rng(3)
    weights = rng.random(37)
    for cols, r0, r1 in ((300, 40, 90), (5000, 0, 3)):
        canvas = np.zeros((128, cols))
        canvas[r0:r1] = rng.random((r1 - r0, cols))
        # output cell t folds onto cell t - 5
        direct = np.array([np.convolve(row, weights)[5:5 + cols] for row in canvas[r0:r1]])
        full = canvas.copy()
        band = canvas[r0:r1].copy()
        spectra = {}
        convolve_lines(full, full.T, weights, -5, {}, Scratch(), [(0, 128, 0, cols)])
        convolve_lines(band, band.T, weights, -5, spectra, Scratch(), [(0, r1 - r0, 0, cols)])
        assert not full[:r0].any() and not full[r1:].any()
        assert np.array_equal(full[r0:r1], band)
        assert np.abs(band - direct).max() <= 1e-12 * direct.max()
        # a line of the band matches the 1D call with the band's cached transform
        one = canvas[r0].copy()
        convolve_lines(one, one, weights, -5, spectra, Scratch(), [(0, 1, 0, cols)])
        assert np.abs(one - direct[0]).max() <= 1e-12 * direct.max()


def test_kernel_built_once_per_distinct_load_per_run(monkeypatch):
    calls = []
    build = dp_engine._build_kernel
    monkeypatch.setattr(dp_engine, "_build_kernel",
                        lambda load, lat: (calls.append(load), build(load, lat))[1])
    other = Gaussian(mean=1.0, std=0.5)
    spec = FeederSpec(
        base_voltage=1.0, alpha=0.0,
        segments=tuple(segment(1e-3) for _ in range(6)),
        loads=(reference_load(), other, PointMass(location=0.5)) * 2,
    )
    run(spec, CFG)
    assert len(calls) == 3
    run(spec, CFG)  # no state carries from one run to the next
    assert len(calls) == 6


def test_shear_table_built_once_per_distinct_rho_per_run(monkeypatch):
    tables, centers = [], []
    build = dp_engine._build_shear_table
    monkeypatch.setattr(dp_engine, "_build_shear_table",
                        lambda rho, *a: (tables.append(rho), build(rho, *a))[1])
    s_centers = JointLattice.s_centers
    monkeypatch.setattr(JointLattice, "s_centers",
                        lambda lat: (centers.append(lat), s_centers(lat))[1])
    spec = FeederSpec(
        base_voltage=1.0, alpha=0.0,
        segments=(segment(1e-3), segment(2e-3), segment(3e-3)) * 2,
        loads=(reference_load(),) * 6,
    )
    run(spec, CFG)
    assert sorted(tables) == [1e-3, 2e-3, 3e-3]
    assert len(centers) == 1  # the lift and every table share the run's S cell centers
    run(spec, CFG)  # no state carries from one run to the next
    assert len(tables) == 6 and len(centers) == 2


def test_fine_law_built_once_per_distinct_load(monkeypatch):
    calls = []
    fine = dp_engine._fine_law
    monkeypatch.setattr(dp_engine, "_fine_law",
                        lambda *a: (calls.append(a[0]), fine(*a))[1])
    # one load on 64 buses: one plan-time law and one kernel law
    run(reference_spec(n=64), CFG)
    assert len(calls) == 2
    # atoms convolve against the stage kernel's fine law, not a fresh one
    calls.clear()
    spec = FeederSpec(
        base_voltage=1.0, alpha=0.0,
        segments=(segment(1e-3), segment(1e-3), segment(1e-3)),
        loads=(reference_load(), reference_load(), PointMass(location=3.0)),
    )
    run(spec, CFG)
    assert len(calls) == 2


def test_stage_logs_carry_phases_and_row_band(monkeypatch):
    rep = run(reference_spec(), CFG)
    first, *rest = rep.stage_logs
    assert first.rows == (0, 0)  # the starting atom has no 2D grid
    for log in rep.stage_logs:
        assert set(log.phase_s) <= {"kernel", "lift", "convolve", "shear", "lines"}
        assert all(v >= 0.0 for v in log.phase_s.values())
        assert sum(log.phase_s.values()) == pytest.approx(log.seconds, rel=1e-9)
        assert isinstance(log.minor_faults, int) and log.minor_faults >= 0
    for log in rest:
        r0, r1 = log.rows
        assert 0 <= r0 < r1 <= rep.lattice.d_cells
        c0, c1 = log.cols  # the frame the stage convolved into and sheared
        assert 0 <= c0 < c1 <= rep.lattice.s_cells
    assert rep.stage_logs[-1].rows[1] < rep.lattice.d_cells
    assert rep.stage_logs[-1].cols == (rep.state.pc_c0, rep.state.pc_c0 + rep.state.pc.shape[1])
    # a platform without the resource module logs no fault count
    monkeypatch.setattr(dp_engine, "resource", None)
    assert all(log.minor_faults is None for log in run(reference_spec(), CFG).stage_logs)


def test_plan_records_windows_and_margins():
    spec = reference_spec(n=16)
    lat = plan_lattice(spec, CFG)
    assert lat.s_margin == lat.d_margin == 12  # ceil(3 sqrt(16)) cells
    assert len(lat.s_windows) == spec.n
    assert all(lo < hi for lo, hi in lat.s_windows)
    # the S margins lie beyond every window, the D margin above the drop bound
    assert lat.s_lo + lat.s_margin * lat.s_step < min(lo for lo, _ in lat.s_windows)
    assert lat.s_hi - lat.s_margin * lat.s_step > max(hi for _, hi in lat.s_windows)
    bound = sum(r * max(hi, 0.0) for r, (_, hi) in zip(spec.rho, lat.s_windows))
    assert (lat.d_cells - lat.d_margin) * lat.d_step >= bound
    # the flow through the first segment sums every load: its window is the widest
    widths = [hi - lo for lo, hi in lat.s_windows]
    assert widths[0] == max(widths)


# Lattices planned with the sweep cell at 1/256 of the widest load's support,
# which short feeders keep: s_base, s_step, s_cells, d_step, d_cells,
# s_margin, d_margin (floats as hex)
PLANNED_LATTICES = {
    "feeder4-2048": (lambda: parse_feeder(CONFIG4), 2048,
                     (-447, "0x1.5342d743714c8p-5", 2051, "0x1.cf703ad239656p-14", 2048, 6, 6)),
    "feeder4-512": (lambda: parse_feeder(CONFIG4), 512,
                    (-115, "0x1.595e27f02d31cp-3", 515, "0x1.d38f54a407d1cp-12", 512, 6, 6)),
    "chain64-512": (lambda: reference_spec(n=64), 512,
                    (-60, "0x1.62ac5f4e3e5aep-1", 515, "0x1.986f74ac3f2a8p-6", 512, 24, 24)),
}


@pytest.mark.parametrize("name", sorted(PLANNED_LATTICES))
def test_plan_keeps_the_lattice_of_short_feeders(name):
    spec, grid, want = PLANNED_LATTICES[name]
    lat = plan_lattice(spec(), DpConfig(grid_s=grid, grid_delta=grid))
    assert (lat.s_base, lat.s_step.hex(), lat.s_cells, lat.d_step.hex(), lat.d_cells,
            lat.s_margin, lat.d_margin) == want


def test_plan_sweeps_a_long_chain_at_its_lattice_resolution(monkeypatch):
    # the sweep's cell is sized to about a quarter of a lattice cell, so no
    # suffix-sum law of a 1024-bus chain grows past 4 grid_s cells
    lengths = []
    convolve = dp_engine.np.convolve
    monkeypatch.setattr(dp_engine.np, "convolve", lambda law, w: (
        lengths.append(len(law) + len(w) - 1), convolve(law, w))[1])
    plan_lattice(_feeder4_chain(1024), CFG)
    assert len(lengths) == 1024
    assert max(lengths) <= 4 * CFG.grid_s


def _scipy_modules_after(code, *args):
    """The scipy modules loaded in a fresh interpreter after each ``report()``
    that ``code`` calls, one list per call."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    code = ("import json, sys\n"
            "def report():\n"
            "    print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
            + code)
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, check=True,
                         capture_output=True, text=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def test_cli_import_loads_no_scipy():
    assert _scipy_modules_after("import vdropstat.cli\nreport()") == [[]]


def test_only_a_gaussian_load_imports_scipy_special(tmp_path):
    # feeder4 solves and samples with no scipy module; the same feeder with
    # Gaussian loads imports scipy.special when it solves, and agrees with MC
    gauss = write_config(tmp_path / "gauss.json", {
        "base_voltage": 1.0, "alpha": 0.0,
        "segments": [{"r": 1e-3, "x": 0.0}] * 4,
        "loads": [{"family": "gaussian", "mean": 2.0, "std": 1.0}] * 4,
    })
    code = """
from vdropstat.dp_engine import DpConfig, run
from vdropstat.feeder_model import parse_feeder
from vdropstat.mc_oracle import McConfig, run_mc
for path in sys.argv[1:]:
    spec = parse_feeder(path)
    report()
    law = run(spec, DpConfig(grid_s=256, grid_delta=256)).drop
    emp = run_mc(spec, McConfig(samples=20_000, seed=3))
    report()
    print(json.dumps([law.mean_std()[0], emp.mean_std()[0]]))
"""
    feeder4_parsed, feeder4_run, feeder4_means, gauss_parsed, gauss_run, gauss_means = (
        _scipy_modules_after(code, CONFIG4, gauss))
    assert feeder4_parsed == feeder4_run == gauss_parsed == []
    assert "scipy.special" in gauss_run
    for dp_mean, mc_mean in (feeder4_means, gauss_means):
        assert dp_mean == pytest.approx(mc_mean, rel=0.02)


def _chain(*loads):
    return FeederSpec(base_voltage=1.0, alpha=0.0,
                      segments=tuple(segment(1e-3) for _ in loads), loads=loads)


def _feeder4_chain(n):
    """n buses repeating the feeder4 bus, the benchmark's chain256 at n = 256."""
    feeder = parse_feeder(CONFIG4)
    return FeederSpec(feeder.base_voltage, feeder.alpha,
                      tuple(feeder.segments[i % feeder.n] for i in range(n)),
                      tuple(feeder.loads[i % feeder.n] for i in range(n)))


# Laws and logged losses of the engine that steps each stage on its 2D budget
# window in a moving S frame (recorded once UNTRIMMED_LAWS held it within
# tail_tol of the law before any window); the engine must reproduce them to
# rounding. The two chains were recorded again, under the same guard, when a
# stage began to cut a hinge line under b/8 whole, and feeder4-512,
# chain64-256 and zero-atoms when the window's rows went in row groups, each
# transformed at its own length (KS under 6e-16 from the laws before). The two
# chains were recorded again when the planner began to size its sweep cell
# from the loads' moments, which moved their lattices. Loads run substation
# first, so the last load is applied first. The entries cover every carrier x
# kernel pairing:
LAW_REGRESSION_SPECS = {
    "feeder4-512": lambda: (parse_feeder(CONFIG4), DpConfig(grid_s=512, grid_delta=512)),
    "chain64-256": lambda: (reference_spec(n=64), CFG),
    "chain256-256": lambda: (_feeder4_chain(256), CFG),
    # atoms x continuous load
    "ref-pm3": lambda: (_chain(reference_load(), PointMass(location=3.0)), CFG),
    # grid and lines x point load
    "pm3-ref": lambda: (_chain(PointMass(location=3.0), reference_load()), CFG),
    # zero-line atoms x continuous load
    "zero-atoms": lambda: (_chain(reference_load(), PointMass(location=-2.0),
                                  reference_load(), PointMass(location=1.5)), CFG),
    # free atoms x continuous load, deposited on rows
    "free-atoms": lambda: (_chain(reference_load(), PointMass(location=2.0),
                                  PointMass(location=2.0)), CFG),
    # atoms x point loads only, ending on a free atom
    "points-64": lambda: (point_spec([-1, 2, -3, 4, 1]), DpConfig(grid_s=64, grid_delta=64)),
}
LAW_REGRESSION = {
    "feeder4-512": dict(
        mean=0.02071650883559665, std=0.01650120550475315, atom0=0.054020426741404975,
        q=(0.017495241326613075, 0.042777360573033905, 0.07303108718268979),
        lost=8.591430293662248e-07),
    "chain64-256": dict(
        mean=4.184508090837394, std=0.9776315053288023, atom0=3.067600482593724e-13,
        q=(4.144897642469962, 5.458109565817093, 6.636884376530322),
        lost=6.968557682255184e-07),
    "chain256-256": dict(
        mean=66.09226721546244, std=9.854324453963441, atom0=0.0,
        q=(66.00248545217451, 78.79794205839714, 89.34480939465283),
        lost=6.386543593223873e-07),
    "ref-pm3": dict(
        mean=0.008000617623397547, std=0.003164864766174999, atom0=0.0006279473499059118,
        q=(0.007215587201137969, 0.012053284447255591, 0.018947624341680687),
        lost=3.4764363032735446e-07),
    "pm3-ref": dict(
        mean=0.007267530719884002, std=0.0060227976787831745, atom0=0.012529865193907112,
        q=(0.005472719788215262, 0.015074517219437812, 0.028911086408950046),
        lost=3.8721907333220507e-07),
    "zero-atoms": dict(
        mean=0.010316285203065333, std=0.009607428792463155, atom0=0.08818679502888153,
        q=(0.007914765170461083, 0.022839361876993675, 0.04357828080921836),
        lost=4.2320371023974107e-07),
    "free-atoms": dict(
        mean=0.012000003514378615, std=0.0031679752271617755, atom0=1.1454787061389506e-05,
        q=(0.011225899095822193, 0.01605528785801346, 0.022959341292791695),
        lost=2.1783726911195345e-07),
    "points-64": dict(
        mean=0.015, std=0.0, atom0=0.0, q=(0.015, 0.015, 0.015), lost=0.0),
}


@pytest.mark.parametrize("name", sorted(LAW_REGRESSION))
def test_law_regression(name):
    spec, config = LAW_REGRESSION_SPECS[name]()
    rep = run(spec, config)
    want = LAW_REGRESSION[name]
    mean, std = rep.drop.mean_std()
    got = dict(mean=mean, std=std, atom0=rep.drop.atom_at_zero(),
               q=tuple(rep.drop.quantile(p) for p in (0.5, 0.9, 0.99)),
               lost=rep.lost_mass)
    for key in ("mean", "std", "atom0", "lost"):
        assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), key
    assert got["q"] == pytest.approx(want["q"], rel=1e-12, abs=0.0)


# Final joint states recorded from the engine that steps each stage on its 2D
# budget window in a moving S frame (the two chains: and cuts a hinge line
# under b/8 whole, and the planner sizes its sweep cell from the loads'
# moments), in row groups each transformed at its own length. A state must
# match them bit for bit: pc
# padded to the lattice at its frame, the two sides of the hinge line (each
# over all S cells), the (s, d, m) atom rows and lost_mass. The point-only
# chains end on a zero-line atom, a diagonal atom, a free atom, an atom whose
# drop the last (negative) flow lowered, and one that flow sent back to the
# zero line.
STATE_REGRESSION_SPECS = {
    **LAW_REGRESSION_SPECS,
    "families": lambda: (_chain(Gaussian(mean=1.0, std=0.5), Uniform(lo=-1.0, hi=2.0),
                                Histogram(edges=(-2.0, 0.0, 1.0, 3.0), masses=(0.2, 0.3, 0.5)),
                                PointMass(location=-0.5), reference_load()), CFG),
    "point-zero": lambda: (point_spec([-2.0]), DpConfig(grid_s=64, grid_delta=64)),
    "point-diag": lambda: (point_spec([2.0]), DpConfig(grid_s=64, grid_delta=64)),
    "point-lowered": lambda: (point_spec([-2.0, 1.5]), DpConfig(grid_s=64, grid_delta=64)),
    "point-rezeroed": lambda: (point_spec([-3.0, -2.0, 1.5]),
                               DpConfig(grid_s=64, grid_delta=64)),
}
# name: sha1[:16] of (pc padded to the lattice or "none", zero side, diagonal
# side, atoms), lost_mass.hex()
STATE_REGRESSION = {
    "feeder4-512": ("08534f536ffec7e4", "d499a5a89e5246c5", "ac3862d33d9d2b9d",
                    "da39a3ee5e6b4b0d", "0x1.cd3fb805d2c8fp-21"),
    "chain64-256": ("873134c86a29a13a", "558b881d5c6aac0f", "807f5004e5400b4c",
                    "da39a3ee5e6b4b0d", "0x1.761f20a4390ccp-21"),
    "chain256-256": ("353bce180421831c", "807f5004e5400b4c", "807f5004e5400b4c",
                     "da39a3ee5e6b4b0d", "0x1.56dffc9d53609p-21"),
    "ref-pm3": ("eee3cd2b495a9966", "82b0ddaca74c9249", "807f5004e5400b4c",
                "da39a3ee5e6b4b0d", "0x1.75478db000000p-22"),
    "pm3-ref": ("1feaa53476b587a9", "d4ec99991a335efb", "8bd8704c0e100058",
                "da39a3ee5e6b4b0d", "0x1.9fc5f7e97a8a2p-22"),
    "zero-atoms": ("2c3789cbcdb3fc14", "bb0302120c49057d", "e9c3e112cd26312f",
                   "da39a3ee5e6b4b0d", "0x1.c669599ef335ap-22"),
    "free-atoms": ("4a182b9df9b76add", "8c4efd4133322e89", "807f5004e5400b4c",
                   "da39a3ee5e6b4b0d", "0x1.d3cd4e2000000p-23"),
    "families": ("55e5391ff0a3b2f7", "03782d00fd18d0e7", "9b8bb5b2322b838f",
                 "da39a3ee5e6b4b0d", "0x1.7401f5ddd48e1p-22"),
    "point-zero": ("none", "67e8f7491703620a", "67e8f7491703620a",
                   "59e3b2c5def90dff", "0x0.0p+0"),
    "point-diag": ("none", "67e8f7491703620a", "67e8f7491703620a",
                   "64c87267a1f92493", "0x0.0p+0"),
    "point-lowered": ("none", "67e8f7491703620a", "67e8f7491703620a",
                      "2b3dbf7e3c7d9741", "0x0.0p+0"),
    "point-rezeroed": ("none", "67e8f7491703620a", "67e8f7491703620a",
                       "937c85172986a9dd", "0x0.0p+0"),
    "points-64": ("none", "d3549f3fac17bcf7", "d3549f3fac17bcf7",
                  "3a135a1bdc6ad8eb", "0x0.0p+0"),
}


def _sha(arr):
    # + 0.0 folds -0.0 into 0.0, whose bytes differ
    return hashlib.sha1((np.asarray(arr, dtype=float) + 0.0).tobytes()).hexdigest()[:16]


def _digest(st):
    """A final state as its STATE_REGRESSION entry."""
    zero, diag = st.hinge_sides()
    atoms = np.column_stack((st.atom_s, st.atom_d, st.atom_mass))
    grid = "none" if st.pc is None else _sha(_padded(st.pc, st.pc_r0, st.pc_c0, st.lattice))
    return grid, _sha(zero.values), _sha(diag.values), _sha(atoms), st.lost_mass.hex()


@pytest.mark.parametrize("name", sorted(STATE_REGRESSION))
def test_state_regression(name):
    spec, config = STATE_REGRESSION_SPECS[name]()
    assert _digest(run(spec, config).state) == STATE_REGRESSION[name]


def test_base_voltage_enters_only_through_rho():
    # a feeder at V0 = 2 with every r doubled has the V0 = 1 feeder's rho bit
    # for bit, so the DP and the linear MC, which read only rho, see one feeder
    rng = np.random.default_rng(21)
    r = rng.uniform(1e-4, 5e-3, size=8)
    loads = (reference_load(), Gaussian(mean=1.0, std=0.5), PointMass(location=0.5),
             Uniform(lo=-1.0, hi=3.0)) * 2
    unit = FeederSpec(1.0, 0.0, tuple(segment(v) for v in r), loads)
    double = FeederSpec(2.0, 0.0, tuple(segment(2.0 * v) for v in r), loads)
    assert double.rho.tobytes() == unit.rho.tobytes()
    assert _digest(run(double, CFG).state) == _digest(run(unit, CFG).state)
    mc = McConfig(samples=20_000, seed=3)
    assert run_mc(double, mc).samples.tobytes() == run_mc(unit, mc).samples.tobytes()


def _snapshot(state):
    """``state`` with a copy of its band, S-major as the engine holds it (the
    band's sums depend on its layout): a stage consumes the band itself."""
    return state if state.pc is None else dataclasses.replace(state, pc=state.pc.T.copy().T)


def _stages(spec, config):
    """Yield (state stepped, its stage log, next state) over a whole run in
    one workspace. The stepped state is a snapshot taken before the stage;
    the next state holds its band in the canvas until the next stage."""
    state = _terminal(spec, config)
    ws = dp_engine._Workspace(state.lattice)
    for j in range(spec.n - 1, -1, -1):
        stepped = _snapshot(state)
        state, log = dp_engine._stage(state, spec.loads[j], spec.rho[j], config, ws)
        yield stepped, log, state


@pytest.mark.parametrize("name", sorted(STATE_REGRESSION_SPECS))
def test_band_is_trimmed_after_every_stage(name):
    spec, config = STATE_REGRESSION_SPECS[name]()
    loads = spec.loads[::-1]  # in the order the stages apply them
    kernels = {}
    for load, (stepped, log, st) in zip(loads, _stages(spec, config)):
        lat = st.lattice
        if load not in kernels:
            kernels[load] = dp_engine._build_kernel(load, lat)
        kernel = kernels[load]
        if stepped.pc is not None and log.window_cut == 0.0:
            # a window that cut nothing holds the band the stage stepped, and
            # its frame holds every column the load moves that band to
            assert log.rows[0] <= stepped.pc_r0
            assert stepped.pc_r0 + len(stepped.pc) <= log.rows[1]
            assert log.cols[0] <= max(stepped.pc_c0 + kernel.k0, 0)
            assert min(stepped.pc_c0 + stepped.pc.shape[1] + kernel.k1, lat.s_cells) <= log.cols[1]
        if st.pc is not None:
            # the new band lies inside the lattice, spans the frame the stage
            # convolved and sheared, and holds the rows the shear moves it to
            _assert_frame_in_lattice(st.pc, st.pc_r0, st.pc_c0, lat)
            assert (st.pc_c0, st.pc_c0 + st.pc.shape[1]) == log.cols
            assert (st.pc_r0, st.pc_r0 + len(st.pc)) == _reach(log.rows, log.cols, st.slope, lat)


def test_chain256_bands_hold_under_half_the_s_cells():
    # the benchmark's chain at 256^2: the median stage steps a frame at most
    # half the lattice wide and none spans it all (every band that the
    # stages before the column window stepped spanned all s_cells)
    spec, config = LAW_REGRESSION_SPECS["chain256-256"]()
    widths = [st.pc.shape[1] for _, _, st in _stages(spec, config) if st.pc is not None]
    s_cells = plan_lattice(spec, config).s_cells
    assert len(widths) == spec.n - 1  # the first stage leaves only the hinge line
    assert np.median(widths) <= s_cells / 2
    assert max(widths) < s_cells


@pytest.mark.parametrize("name", ["feeder4-512", "chain64-256", "chain256-256", "families",
                                  "zero-atoms"])
def test_stage_masses_close_the_ledger(name):
    spec, config = STATE_REGRESSION_SPECS[name]()
    for state, log, _ in _stages(spec, config):
        assert set(log.masses) == {"grid", "zero", "diag", "atoms"}
        assert log.masses["grid"] == state.pc_mass()
        assert sum(log.masses.values()) + state.lost_mass == pytest.approx(1.0, abs=1e-9)


def test_stage_cuts_a_dust_line_whole(monkeypatch):
    # on the benchmark's chain at 256^2 most stages step a hinge line of
    # transform dust: a line under b/8 is logged in window_cut, and the stage
    # neither lifts its diagonal nor convolves its zero side; a heavier line
    # is lifted as before
    spec, config = LAW_REGRESSION_SPECS["chain256-256"]()
    lifts, lines = [], []
    lift, convolve = dp_engine._lift_diag, dp_engine.convolve_lines
    monkeypatch.setattr(dp_engine, "_lift_diag", lambda *a: (lifts.append(a), lift(*a))[1])
    monkeypatch.setattr(dp_engine, "convolve_lines", lambda src, dest, *a: (
        lines.append(dest.ndim == 1), convolve(src, dest, *a))[1])
    skipped = cut = kept = 0
    for state, log, _ in _stages(spec, config):
        line = log.masses["zero"] + log.masses["diag"]
        if line < state.lattice.stage_tail_budget / 8:
            skipped += 1
            cut += state.line is not None
            assert log.window_cut >= line
            assert not lifts and not any(lines)
        else:
            kept += 1
            assert len(lifts) == 1
        lifts.clear()
        lines.clear()
    assert skipped > spec.n // 2 and cut > 0 and kept > 0


def test_budget_window_cuts_at_most_cut_at_each_end():
    sums = np.array([0.0, 1.0, 2.0, 0.0, 3.0, 0.5, 0.0])
    window = dp_engine._budget_window
    assert window(sums, 1e-9) == (1, 6)  # only the empty end cells go
    assert window(sums, 1.0) == (1, 5)   # under the cut below, at most the cut above
    assert window(sums, 1.5) == (2, 5)
    assert window(sums, 4.0) == (4, 4)   # the whole array holds under twice the cut


@pytest.mark.parametrize("name", ["feeder4-512", "chain64-256", "chain256-256", "families",
                                  "zero-atoms", "ref-pm3", "pm3-ref"])
def test_stage_losses_add_up_to_lost_mass(name):
    # each stage logs the load's tail (at most half the stage budget per unit
    # mass), the window's cut (at most an eighth of the budget at each end of
    # each axis) and the spill
    spec, config = STATE_REGRESSION_SPECS[name]()
    rep = run(spec, config)
    budget = rep.lattice.stage_tail_budget
    total = 0.0
    for log in rep.stage_logs:
        assert 0.0 <= log.window_cut <= 0.5 * budget * (1.0 + 1e-9)
        assert log.kernel_tail + log.window_cut <= budget * (1.0 + 1e-9)
        total = total + log.kernel_tail + log.boundary_spill + log.window_cut
    assert total == pytest.approx(rep.lost_mass, rel=1e-15, abs=0.0)
    assert rep.lost_mass <= config.tail_tol


# The laws as the engine gave them before any budget window, with the load
# tail cut at the whole stage budget: the CDF at 64 evenly spaced drops from 0
# to ``top``, and P(D > x) at their 1 - 1e-3, 1e-4 and 1e-5 quantiles. The
# window and the load tail share that budget, so the law may move by at most
# tail_tol from them. The two chains were recorded again on the lattices of the
# planner that sizes its sweep cell from the loads' moments, by the engine with
# no window cut (end cut 5e-324) and the load tail cut at the whole budget,
# which reproduces the laws recorded on the lattices before to 5e-11.
UNTRIMMED_LAWS = {
    "feeder4-512": dict(top=0.2, cdf=(
        0.0540201460, 0.1193802610, 0.1962104815, 0.2814771864, 0.3701035316, 0.4572591196,
        0.5393022328, 0.6139314542, 0.6800050988, 0.7372400411, 0.7859625965, 0.8268555201,
        0.8607728979, 0.8886272768, 0.9113121464, 0.9296560493, 0.9443997027, 0.9561862120,
        0.9655641088, 0.9729994345, 0.9788742900, 0.9835021284, 0.9871379310, 0.9899876105,
        0.9922164663, 0.9939565025, 0.9953120247, 0.9963670114, 0.9971870567, 0.9978237190,
        0.9983174749, 0.9987000291, 0.9989961662, 0.9992252257, 0.9994022228, 0.9995389182,
        0.9996444597, 0.9997259039, 0.9997887219, 0.9998371520, 0.9998744742, 0.9999032255,
        0.9999253643, 0.9999423999, 0.9999555114, 0.9999655985, 0.9999733551, 0.9999793171,
        0.9999838979, 0.9999874163, 0.9999901178, 0.9999921906, 0.9999937812, 0.9999950016,
        0.9999959377, 0.9999966554, 0.9999972053, 0.9999976263, 0.9999979481, 0.9999981928,
        0.9999983772, 0.9999985145, 0.9999986155, 0.9999986888),
        exceed=((0.101633618716, 0.0009988540370922117),
                (0.129757597351, 9.885403710396812e-05),
                (0.158574419758, 8.85403710293442e-06))),
    "chain64-256": dict(top=10.0, cdf=(
        0.0000000009, 0.0000001052, 0.0000006765, 0.0000028204, 0.0000094189, 0.0000272589,
        0.0000710763, 0.0001706693, 0.0003824420, 0.0008065596, 0.0016100270, 0.0030542711,
        0.0055233403, 0.0095462499, 0.0158053052, 0.0251224815, 0.0384185800, 0.0566443236,
        0.0806874720, 0.1112643848, 0.1488083647, 0.1933710023, 0.2445555624, 0.3015003731,
        0.3629228015, 0.4272214526, 0.4926201839, 0.5573282214, 0.6196894532, 0.6783000791,
        0.7320836065, 0.7803218291, 0.8226475118, 0.8590082923, 0.8896122705, 0.9148648064,
        0.9353042046, 0.9515419382, 0.9642112538, 0.9739264408, 0.9812536647, 0.9866895857,
        0.9906647729, 0.9935307100, 0.9955687562, 0.9969990663, 0.9979901432, 0.9986684170,
        0.9991270434, 0.9994335169, 0.9996359722, 0.9997682228, 0.9998536793, 0.9999083223,
        0.9999429120, 0.9999645976, 0.9999780686, 0.9999863638, 0.9999914290, 0.9999944972,
        0.9999963413, 0.9999974413, 0.9999980925, 0.9999984753),
        exceed=((7.5684830737, 0.0009989999746771172),
                (8.38327195574, 9.899997466999988e-05),
                (9.15302350053, 8.999974669632316e-06))),
    "chain256-256": dict(top=120.0, cdf=(
        0.0000000000, 0.0000000000, 0.0000000000, 0.0000000000, 0.0000000000, 0.0000000000,
        0.0000000002, 0.0000000012, 0.0000000057, 0.0000000252, 0.0000000992, 0.0000003559,
        0.0000011976, 0.0000037118, 0.0000106644, 0.0000285872, 0.0000718702, 0.0001709622,
        0.0003861247, 0.0008245941, 0.0016708851, 0.0032220356, 0.0059279791, 0.0104696593,
        0.0177031363, 0.0287014208, 0.0447061928, 0.0670263175, 0.0969411989, 0.1354849731,
        0.1830520361, 0.2395025317, 0.3039742102, 0.3748814746, 0.4500449037, 0.5267435132,
        0.6022008481, 0.6738147310, 0.7393976684, 0.7973223442, 0.8466091715, 0.8871728324,
        0.9194056730, 0.9441328446, 0.9624433694, 0.9754767862, 0.9844588599, 0.9904493625,
        0.9943087744, 0.9967112970, 0.9981549724, 0.9989902213, 0.9994627919, 0.9997219863,
        0.9998598792, 0.9999310708, 0.9999665441, 0.9999838436, 0.9999921030, 0.9999959416,
        0.9999976785, 0.9999984429, 0.9999987683, 0.9999989059),
        exceed=((97.1742850394, 0.0009990000003706756),
                (103.774279651, 9.900000036722201e-05),
                (109.839241618, 9.000000358638793e-06))),
}


@pytest.mark.parametrize("name", sorted(UNTRIMMED_LAWS))
def test_trim_moves_the_law_by_at_most_tail_tol(name):
    spec, config = LAW_REGRESSION_SPECS[name]()
    rep = run(spec, config)
    want = UNTRIMMED_LAWS[name]
    got = rep.drop.cdf(np.linspace(0.0, want["top"], 64))
    assert np.abs(got - np.array(want["cdf"])).max() <= config.tail_tol
    for x, p in want["exceed"]:
        assert abs(rep.drop.prob_exceed(x) - p) <= config.tail_tol
    assert rep.lost_mass <= config.tail_tol


def test_stage_holds_no_full_canvas():
    # the second stage lifts the first one's diagonal onto a 6-row band and
    # steps the window of it the budget keeps, in the workspace's canvas;
    # stepping it must allocate under a tenth of one 1024^2 canvas (8.4 MB)
    spec = reference_spec(n=64)
    config = DpConfig(grid_s=1024, grid_delta=1024)
    state = _terminal(spec, config)
    ws = dp_engine._Workspace(state.lattice)
    state, _ = dp_engine._stage(state, spec.loads[63], spec.rho[63], config, ws)
    lat = state.lattice
    tracemalloc.start()
    try:
        new, log = dp_engine._stage(state, spec.loads[62], spec.rho[62], config, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log.rows == (0, 5)
    assert 0 < log.cols[1] - log.cols[0] < lat.s_cells
    assert (new.pc_c0, new.pc_c0 + new.pc.shape[1]) == log.cols
    assert peak < 8 * lat.d_cells * lat.s_cells // 10


def _into(ws, state):
    """``state`` with its band placed in ``ws``'s canvas, which holds nothing
    else: a stepped state as the stage before leaves it."""
    ws.canvas[...] = 0.0
    if state.pc is None:
        return state
    rows, cols = state.pc.shape
    view = ws.canvas[state.pc_c0:state.pc_c0 + cols, state.pc_r0:state.pc_r0 + rows]
    view[...] = state.pc.T
    return dataclasses.replace(state, pc=view.T)


def _warm_step(spec, load, config):
    """Step ``spec``'s stages down to bus 1, then bus 0 with ``load`` twice in
    one workspace, the second time from the same band put back into the
    canvas; returns (the second result, its log, its tracemalloc peak, the
    state it stepped)."""
    state = _terminal(spec, config)
    ws = dp_engine._Workspace(state.lattice)
    for j in range(spec.n - 1, 0, -1):
        state, _ = dp_engine._stage(state, spec.loads[j], spec.rho[j], config, ws)
    stepped = _snapshot(state)
    first = _snapshot(dp_engine._stage(state, load, spec.rho[0], config, ws)[0])
    state = _into(ws, stepped)
    tracemalloc.start()
    try:
        again, log = dp_engine._stage(state, load, spec.rho[0], config, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _digest(again) == _digest(first)
    return again, log, peak, stepped


def _frame_bytes(log):
    """Bytes of the frame a stage sheared: its rows by its columns."""
    return 8 * (log.rows[1] - log.rows[0]) * (log.cols[1] - log.cols[0])


def test_warm_workspace_steps_a_stage_in_its_own_arrays():
    # once the workspace holds a stage's transform blocks and shear blocks,
    # stepping that stage again allocates under a quarter of a window: the
    # window's group sums, each line's two spills, the shear's per-column
    # sums and numpy's iterator buffers for the shear's products over the
    # canvas's strided columns (about 190 KB) (a new band per stage came to
    # a whole band more, a full rows x n_out convolution output to over four)
    spec = reference_spec(n=52)
    _, log, peak, _ = _warm_step(spec, spec.loads[0], DpConfig(grid_s=512, grid_delta=512))
    window = _frame_bytes(log)
    assert window > 1 << 20
    assert peak < window // 4


def test_warm_big_stage_copies_no_band_and_keeps_no_spill_array(monkeypatch):
    # feeder4's last stage at 1024^2: 674 window rows, whose outputs run
    # hundreds of cells past the lattice at each end. The convolution reads
    # the stepped band where it lies and sums each line's spill as its block
    # folds, so up to the shear the stage allocates under an eighth of a
    # window (a copy of the band, or a rows x spill array, is over a third),
    # and the shear, which moves the frame in place, as little
    peaks = []
    shear = dp_engine._shear_canvas

    def shear_spy(*args):
        if tracemalloc.is_tracing():
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        return shear(*args)

    monkeypatch.setattr(dp_engine, "_shear_canvas", shear_spy)
    spec = parse_feeder(CONFIG4)
    _, log, shear_peak, stepped = _warm_step(spec, spec.loads[0],
                                             DpConfig(grid_s=1024, grid_delta=1024))
    window = 8 * (log.rows[1] - log.rows[0]) * stepped.pc.shape[1]
    (convolve_peak,) = peaks
    assert log.rows[1] - log.rows[0] > 600 and log.boundary_spill > 0.0
    assert convolve_peak < window // 8
    assert shear_peak < window // 8


def test_warm_workspace_shifts_a_point_load_in_place():
    # a point load's shift copies the band rows into the workspace and forms
    # each weighted part there, so it allocates at most a quarter window (a
    # band copy and a band-sized product per split weight came to about one
    # band more)
    _, log, peak, _ = _warm_step(reference_spec(n=30), PointMass(location=1.5),
                                 DpConfig(grid_s=512, grid_delta=512))
    window = _frame_bytes(log)
    assert window > 1 << 20
    assert peak <= window // 4


@pytest.mark.parametrize("name", ["feeder4-512", "families", "pm3-ref"])
def test_canvas_is_zero_outside_the_new_band(name):
    # a stage steps its band in the run's canvas and leaves nothing behind:
    # after every stage each cell outside the new band is exactly zero, the
    # new band is a view of the canvas, and the stage steps the band the
    # stage before left there
    spec, config = STATE_REGRESSION_SPECS[name]()
    state = _terminal(spec, config)
    ws = dp_engine._Workspace(state.lattice)
    for j in range(spec.n - 1, -1, -1):
        state, _ = dp_engine._stage(state, spec.loads[j], spec.rho[j], config, ws)
        rest = ws.canvas.copy()
        if state.pc is not None:
            assert np.shares_memory(state.pc, ws.canvas)
            rows, cols = state.pc.shape
            rest[state.pc_c0:state.pc_c0 + cols, state.pc_r0:state.pc_r0 + rows] = 0.0
        assert not rest.any(), j
    assert _digest(state) == STATE_REGRESSION[name]


@pytest.mark.parametrize("name", ["feeder4-512", "chain64-256", "families", "free-atoms"])
def test_warm_stage_allocates_no_band_sized_array(name):
    # every stage of a run, stepped a second time from the same band put back
    # into the canvas (its transform and shear blocks already grown), makes
    # the same state and allocates under an eighth of the frame it shears
    # plus 256 KB, of which numpy's iterator buffers for the shear's products
    # over the canvas's strided columns take about 200 KB (a new band per
    # stage, 2 MB at feeder4-512's last stage, is more)
    spec, config = STATE_REGRESSION_SPECS[name]()
    state = _terminal(spec, config)
    ws = dp_engine._Workspace(state.lattice)
    for j in range(spec.n - 1, -1, -1):
        stepped = _snapshot(state)
        first = _snapshot(dp_engine._stage(state, spec.loads[j], spec.rho[j], config, ws)[0])
        state = _into(ws, stepped)
        tracemalloc.start()
        try:
            state, log = dp_engine._stage(state, spec.loads[j], spec.rho[j], config, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _digest(state) == _digest(first)
        assert peak < _frame_bytes(log) // 8 + (1 << 18), j


def test_warm_run_holds_the_canvas_and_one_block():
    # a warm feeder4 run at 1024^2 allocates its canvas (8.4 MB, of which
    # only the pages its bands reach get mapped), the transform blocks of one
    # thread's share (padded lines, coefficients, inverse: 3 x 4 MB at most)
    # and under 3 MB besides: no band beside another
    spec = parse_feeder(CONFIG4)
    config = DpConfig(grid_s=1024, grid_delta=1024)
    run(spec, config)
    tracemalloc.start()
    try:
        rep = run(spec, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    canvas = 8 * rep.lattice.s_cells * rep.lattice.d_cells
    assert peak <= canvas + 3 * 8 * mixed_dist._FFT_BLOCK_CELLS + (3 << 20)


# ---------------------------------------------------------------------------
# the S-convolution's thread pool
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(STATE_REGRESSION))
def test_state_regression_on_threads(monkeypatch, name):
    # 4096-cell blocks cut the bands of the 256^2 and 512^2 lattices into
    # blocks of a few rows, so the pool transforms them
    spec, config = STATE_REGRESSION_SPECS[name]()
    for threads in (2, 4):
        seen = on_threads(monkeypatch, threads, 1 << 12)
        rep = run(spec, config)
        assert rep.threads == threads
        assert _digest(rep.state) == STATE_REGRESSION[name]
        if name in ("feeder4-512", "chain64-256", "families"):  # bands of many rows
            assert seen - {threading.get_ident()}


# feeder4 at 1024^2 before the window's rows went in row groups: its drop
# law's CDF at 25 drops from 0 to 0.12
FEEDER4_1024_CDF = (
    0.05406986316899894, 0.16239237968812778, 0.2948558104228288, 0.4338653970539278,
    0.5627245926320459, 0.6723776030695449, 0.7603048559251934, 0.8278879502500874,
    0.8782317249326786, 0.914870484186069, 0.9410504513328928, 0.9594988317585968,
    0.9723511602444601, 0.9812251546594624, 0.9873072628191284, 0.9914504779786757,
    0.9942593169040818, 0.9961551581761376, 0.9974307273830331, 0.9982862078317734,
    0.9988586751012501, 0.9992408950305617, 0.9994956521051536, 0.9996652004442625,
    0.9997778776479227)


def test_row_groups_transform_fewer_cells_than_their_window(monkeypatch):
    # at 1024^2 feeder4's last three stages step bands of many row groups;
    # each group is transformed only over the columns its rows occupy, so a
    # stage transforms fewer cells than its window's rows at the transform
    # length of the whole window
    spec = parse_feeder(CONFIG4)
    config = DpConfig(grid_s=1024, grid_delta=1024)
    windows, cells = [], []
    grid_window, rfft = dp_engine._grid_window, mixed_dist.rfft
    monkeypatch.setattr(dp_engine, "_grid_window", lambda *a: (
        windows.append(grid_window(*a)), windows[-1])[1])
    monkeypatch.setattr(mixed_dist, "rfft", lambda a, *args, **kw: (
        cells.append(a.size if a.ndim == 2 else 0), rfft(a, *args, **kw))[1])
    state = _terminal(spec, config)
    ws = dp_engine._Workspace(state.lattice)
    width = len(ws.kernel(spec.loads[0]).weights)  # every feeder4 bus has this load
    big = 0
    for j in range(spec.n - 1, -1, -1):
        windows.clear()
        cells.clear()
        state, _ = dp_engine._stage(state, spec.loads[j], spec.rho[j], config, ws)
        (w0, w1), (v0, v1), _, groups = windows[0]
        if len(groups) > 4:
            big += 1
            assert sum(cells) < (w1 - w0) * mixed_dist.next_fast_len(v1 - v0 + width - 1)
    assert big == 3


def test_row_groups_keep_the_state_whatever_the_threads(monkeypatch):
    # the groups and their transform calls depend on the band alone: the
    # final state is the same on 1, 2 and 4 threads, in default blocks and in
    # blocks of 4096 cells, and the law within KS 1e-12 of the one before
    # row groups
    spec = parse_feeder(CONFIG4)
    config = DpConfig(grid_s=1024, grid_delta=1024)
    rep = run(spec, config)
    want = _digest(rep.state)
    got = rep.drop.cdf(np.linspace(0.0, 0.12, len(FEEDER4_1024_CDF)))
    assert np.abs(got - np.array(FEEDER4_1024_CDF)).max() <= 1e-12
    blocks = (mixed_dist._FFT_BLOCK_CELLS, 1 << 12)
    for threads in (1, 2, 4):
        for block_cells in blocks:
            on_threads(monkeypatch, threads, block_cells)
            assert _digest(run(spec, config).state) == want


def test_chain_bands_at_256_run_on_the_calling_thread(monkeypatch):
    # every band of the benchmark's 256-bus chain at 256^2 fits one block, so
    # four threads start no pool
    spec = _feeder4_chain(256)
    seen = on_threads(monkeypatch, 4)
    baseline = threading.active_count()
    rep = run(spec, CFG)
    assert rep.threads == 4
    assert seen == {threading.get_ident()}
    assert threading.active_count() == baseline


def test_run_joins_every_pool_on_return_and_on_mass_loss(monkeypatch):
    seen = on_threads(monkeypatch, 2, 1)  # one-row blocks
    baseline = threading.active_count()
    run(parse_feeder(CONFIG4), CFG)
    assert seen - {threading.get_ident()}
    assert threading.active_count() == baseline
    seen.clear()
    with pytest.raises(MassLossError):
        run(reference_spec(n=64), DpConfig(grid_s=16, grid_delta=16))
    assert seen - {threading.get_ident()}
    assert threading.active_count() == baseline


def test_worker_exception_surfaces_from_run(monkeypatch):
    on_threads(monkeypatch, 2, 1)
    raised = []
    rfft = mixed_dist.rfft  # the transform of a block of several
    caller = threading.get_ident()

    def failing(*a, **k):
        if threading.get_ident() != caller:
            raised.append(FloatingPointError("transform failed"))
            raise raised[-1]
        return rfft(*a, **k)

    monkeypatch.setattr(mixed_dist, "rfft", failing)
    baseline = threading.active_count()
    with pytest.raises(FloatingPointError) as info:
        run(parse_feeder(CONFIG4), CFG)
    assert info.value in raised
    assert threading.active_count() == baseline


def test_pool_stress_is_bitwise_and_leaves_no_thread(monkeypatch):
    # more threads than CPUs on blocks of a few rows, switching as often as the
    # interpreter allows: a block written to the wrong rows, or through a
    # buffer another thread shares, would show here
    spec, config = STATE_REGRESSION_SPECS["families"]()
    seen = on_threads(monkeypatch, 8, 1 << 10)
    baseline = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rep = run(spec, config)
    finally:
        sys.setswitchinterval(interval)
    assert rep.threads == 8 and len(seen - {threading.get_ident()}) > 1
    assert _digest(rep.state) == STATE_REGRESSION["families"]
    assert threading.active_count() == baseline


def test_threads_add_at_most_one_block_of_memory(monkeypatch):
    # the threads share out one thread's block of transform arrays (padded
    # lines, their coefficients, the inverse), so a second thread adds at
    # most the rows lost to rounding, well under one block (4 MB)
    spec = parse_feeder(CONFIG4)
    config = DpConfig(grid_s=1024, grid_delta=1024)
    peaks = []
    for threads in (1, 2):
        seen = on_threads(monkeypatch, threads)
        tracemalloc.start()
        try:
            run(spec, config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert seen - {threading.get_ident()}  # the bands at 1024^2 took the pool
    assert peaks[1] <= peaks[0] + mixed_dist._FFT_BLOCK_CELLS  # 512 KB
