"""Stage kernel and full propagation of the joint flow-drop law."""

import hashlib
import io
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
    point_spec,
    random_point_spec,
    reference_load,
    reference_spec,
    transform_threads,
    segment,
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
from vdropstat.mixed_dist import JointLattice, JointState, convolve_lines, line_spectrum


CFG = DpConfig(grid_s=256, grid_delta=256)


def _terminal(spec, config):
    return JointState.terminal(plan_lattice(spec, config), stage=spec.n)


def _step(state, spec, j, config):
    """Apply bus j's stage alone, with a kernel cache of its own."""
    return dp_engine._apply_stage(state, spec.loads[j], spec.segments[j], config, {})[0]


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
    assert d.n_atoms() == 1
    assert d.atom_locs[0] == det.delta0 == 0.020


def test_degenerate_specs_stay_atomic():
    rng = np.random.default_rng(17)
    cfg = DpConfig(grid_s=64, grid_delta=64)
    for _ in range(10):
        spec, locs = random_point_spec(rng)
        rep = run(spec, cfg)
        det = max_drop(spec, locs)
        d = rep.drop.density
        assert d.n_atoms() == 1
        assert d.grid is None or d.grid.mass() < 1e-12
        assert abs(d.atom_locs[0] - det.delta0) <= rep.lattice.d_step


def test_state_valid_after_every_stage():
    spec = reference_spec()
    st = _terminal(spec, CFG)
    for j in range(spec.n - 1, -1, -1):
        st = _step(st, spec, j, CFG)
        st.validate()
        assert st.stage == j
    assert st.slope == spec.segments[0].rho


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


def _padded(band, r0, lat):
    """The grid band as a full d_cells x s_cells canvas (zeros when None)."""
    full = np.zeros((lat.d_cells, lat.s_cells))
    if band is not None:
        full[r0:r0 + len(band)] = band
    return full


def _assert_trimmed_band(band, r0, lat):
    assert band.shape[1] == lat.s_cells
    assert 0 <= r0 < r0 + len(band) <= lat.d_cells
    assert band[0].any() and band[-1].any()


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
    cell = lat.s_step * lat.d_step
    want_out, want_zero, want_top = _shear_per_column(canvas, rho, lat)
    band, o0, zero_gain, top, cols = dp_engine._shear_canvas(canvas[r0:r1], r0, rho, lat)
    occupied = np.flatnonzero(canvas.any(axis=0))
    assert cols == ((int(occupied[0]), int(occupied[-1]) + 1) if len(occupied) else (0, 0))
    if band is not None:
        _assert_trimmed_band(band, o0, lat)
    out = _padded(band, o0, lat)
    assert np.abs(out - want_out).max() <= 1e-15
    assert np.abs(zero_gain - want_zero).max() <= 1e-15
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
    band = np.zeros((2, 30))
    band[:, 2:6] = 1.0  # rows 3 and 4, S < 0 columns pushed far below zero
    out, _, zero_gain, top, cols = dp_engine._shear_canvas(band, 3, 5.0, lat)
    assert out is None and top == 0.0
    assert cols == (2, 6)
    assert zero_gain.sum() == pytest.approx(8.0 * 0.5)


def test_band_limited_convolution_equals_full_canvas():
    rng = np.random.default_rng(3)
    weights = rng.random(37)
    for cols, r0, r1 in ((300, 40, 90), (5000, 0, 3)):
        canvas = np.zeros((128, cols))
        canvas[r0:r1] = rng.random((r1 - r0, cols))
        full = convolve_lines(canvas, weights)
        band = convolve_lines(canvas[r0:r1], weights)
        assert not full[:r0].any() and not full[r1:].any()
        assert np.array_equal(full[r0:r1], band)
        direct = np.array([np.convolve(row, weights) for row in canvas[r0:r1]])
        assert np.abs(band - direct).max() <= 1e-12 * direct.max()
        # a line of the band matches the 1D call with the kernel's cached transform
        one = convolve_lines(canvas[r0], weights, line_spectrum(weights, cols))
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


def test_stage_logs_carry_phases_and_row_band():
    rep = run(reference_spec(), CFG)
    first, *rest = rep.stage_logs
    assert first.rows == (0, 0)  # the starting atom has no 2D grid
    for log in rep.stage_logs:
        assert set(log.phase_s) <= {"kernel", "lift", "convolve", "shear", "lines"}
        assert all(v >= 0.0 for v in log.phase_s.values())
        assert sum(log.phase_s.values()) == pytest.approx(log.seconds, rel=1e-9)
    for log in rest:
        r0, r1 = log.rows
        assert 0 <= r0 < r1 <= rep.lattice.d_cells
    assert rep.stage_logs[-1].rows[1] < rep.lattice.d_cells


def test_cli_import_leaves_scipy_signal_out():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    code = "import sys, vdropstat.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.strip()
    assert out == "False"


def _chain(*loads):
    return FeederSpec(base_voltage=1.0, alpha=0.0,
                      segments=tuple(segment(1e-3) for _ in loads), loads=loads)


# Laws and logged losses recorded from earlier versions of the engine, which
# had one code path per carrier and kernel kind; the current engine must
# reproduce them to rounding. Loads run substation first, so the last load
# is applied first. The entries cover every carrier x kernel pairing:
LAW_REGRESSION_SPECS = {
    "feeder4-512": lambda: (parse_feeder(CONFIG4), DpConfig(grid_s=512, grid_delta=512)),
    "chain64-256": lambda: (reference_spec(n=64), CFG),
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
        mean=0.0207165085483211, std=0.01650124346919351, atom0=0.05402014601052252,
        q=(0.017495251098909977, 0.042777386174409834, 0.07303138261111267),
        lost=1.1459628976530075e-06),
    "chain64-256": dict(
        mean=4.184487852467777, std=0.9775732574082685, atom0=9.070840733684995e-10,
        q=(4.144876650091846, 5.458126880175924, 6.6367502017281925),
        lost=1.0000271386844023e-06),
    "ref-pm3": dict(
        mean=0.00800061623642348, std=0.003164857077267633, atom0=0.0006278330813737702,
        q=(0.007215572354803427, 0.012053266681880077, 0.01894768060737556),
        lost=5.00000000069889e-07),
    "pm3-ref": dict(
        mean=0.007267531765015661, std=0.006022795874403423, atom0=0.012529944623041463,
        q=(0.005472666884783761, 0.015074444061672573, 0.02891125829707095),
        lost=5.132427646957455e-07),
    "zero-atoms": dict(
        mean=0.010316284821700168, std=0.009607463698688786, atom0=0.08818689871393309,
        q=(0.007914788467584, 0.022839360102687615, 0.043578370619600335),
        lost=5.643998177371249e-07),
    "free-atoms": dict(
        mean=0.012000001694175075, std=0.0031679657924145736, atom0=1.137089492015906e-05,
        q=(0.011225910372870717, 0.016055308937611014, 0.022959391974686875),
        lost=3.33333333379926e-07),
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


# Final joint states recorded from the engine that stored the zero line, the
# diagonal and the free atoms as separate carriers. A state must match them
# bit for bit: pc, the two sides of the hinge line (each over all S cells),
# the (s, d, m) atom rows and lost_mass. The point-only chains end on a
# zero-line atom, a diagonal atom, a free atom, an atom whose drop the last
# (negative) flow lowered, and one that flow sent back to the zero line.
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
    "feeder4-512": ("a8bbf66f90c4fd0b", "cef657b929cb8225", "9cef8d1766f9049e",
                    "da39a3ee5e6b4b0d", "0x1.339df87ed9ba4p-20"),
    "chain64-256": ("09c0eacee161e801", "1e436adf4e2f4c7f", "2f9b9dbd7f392f4c",
                    "da39a3ee5e6b4b0d", "0x1.0c71577923b38p-20"),
    "ref-pm3": ("988df151c05abbe0", "a664de58671ea433", "807f5004e5400b4c",
                "da39a3ee5e6b4b0d", "0x1.0c6f7a0c00000p-21"),
    "pm3-ref": ("0082de3fbfc120ae", "e1761a8d198a23a4", "05c243618ffa27b7",
                "da39a3ee5e6b4b0d", "0x1.138b8c67ab319p-21"),
    "zero-atoms": ("7cd17bb8fab14462", "18f5fe8cda5975d2", "5ca29df19e9283cc",
                   "da39a3ee5e6b4b0d", "0x1.2f028531b2a1fp-21"),
    "free-atoms": ("49078e0217ab82c4", "453461e72b602b30", "807f5004e5400b4c",
                   "da39a3ee5e6b4b0d", "0x1.65e9f81000000p-22"),
    "families": ("592d62a59b7f6542", "ac11530fb91f6778", "bfb59635aa050b6f",
                 "da39a3ee5e6b4b0d", "0x1.b5407c3073a8cp-22"),
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
    grid = "none" if st.pc is None else _sha(_padded(st.pc, st.pc_r0, st.lattice))
    return grid, _sha(zero.values), _sha(diag.values), _sha(atoms), st.lost_mass.hex()


@pytest.mark.parametrize("name", sorted(STATE_REGRESSION))
def test_state_regression(name):
    spec, config = STATE_REGRESSION_SPECS[name]()
    assert _digest(run(spec, config).state) == STATE_REGRESSION[name]


def _stages(spec, config):
    """Yield (state stepped, its stage log, next state) over a whole run."""
    state = _terminal(spec, config)
    kernels = {}
    for j in range(spec.n - 1, -1, -1):
        new, log = dp_engine._apply_stage(state, spec.loads[j], spec.segments[j], config,
                                          kernels)
        yield state, log, new
        state = new


@pytest.mark.parametrize("name", sorted(STATE_REGRESSION_SPECS))
def test_band_is_trimmed_after_every_stage(name):
    spec, config = STATE_REGRESSION_SPECS[name]()
    for stepped, log, st in _stages(spec, config):
        if stepped.pc is not None:  # the stage's band holds the band it stepped
            r0, r1 = log.rows
            assert r0 <= stepped.pc_r0 and stepped.pc_r0 + len(stepped.pc) <= r1
        if st.pc is not None:
            _assert_trimmed_band(st.pc, st.pc_r0, st.lattice)


@pytest.mark.parametrize("name", ["feeder4-512", "chain64-256", "families", "zero-atoms"])
def test_stage_masses_close_the_ledger(name):
    spec, config = STATE_REGRESSION_SPECS[name]()
    for state, log, _ in _stages(spec, config):
        assert set(log.masses) == {"grid", "zero", "diag", "atoms"}
        assert log.masses["grid"] == state.pc_mass()
        assert sum(log.masses.values()) + state.lost_mass == pytest.approx(1.0, abs=1e-9)


def test_stage_holds_no_full_canvas():
    # the second stage lifts the first one's diagonal onto a 6-row band;
    # stepping it must stay under one 1024^2 canvas (8.4 MB)
    spec = reference_spec(n=64)
    config = DpConfig(grid_s=1024, grid_delta=1024)
    kernels = {}
    state, _ = dp_engine._apply_stage(_terminal(spec, config), spec.loads[63],
                                      spec.segments[63], config, kernels)
    lat = state.lattice
    tracemalloc.start()
    try:
        _, log = dp_engine._apply_stage(state, spec.loads[62], spec.segments[62], config,
                                        kernels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log.rows == (0, 6)
    assert peak < 8 * lat.d_cells * lat.s_cells


# ---------------------------------------------------------------------------
# the S-convolution's thread pool
# ---------------------------------------------------------------------------


def _on_threads(monkeypatch, threads, block_cells=None):
    """Plan ``threads`` DP threads and blocks of ``block_cells`` transform
    cells; returns the set that collects the transforms' thread ids."""
    monkeypatch.setattr(mixed_dist, "_cores", lambda: threads)
    monkeypatch.setattr(mixed_dist, "_MAX_THREADS", max(threads, mixed_dist._MAX_THREADS))
    if block_cells is not None:
        monkeypatch.setattr(mixed_dist, "_FFT_BLOCK_CELLS", block_cells)
    return transform_threads(monkeypatch)


@pytest.mark.parametrize("name", sorted(STATE_REGRESSION))
def test_state_regression_on_threads(monkeypatch, name):
    # 4096-cell blocks cut the bands of the 256^2 and 512^2 lattices into
    # blocks of a few rows, so the pool transforms them
    spec, config = STATE_REGRESSION_SPECS[name]()
    for threads in (2, 4):
        seen = _on_threads(monkeypatch, threads, 1 << 12)
        rep = run(spec, config)
        assert rep.threads == threads
        assert _digest(rep.state) == STATE_REGRESSION[name]
        if name in ("feeder4-512", "chain64-256", "families"):  # bands of many rows
            assert seen - {threading.get_ident()}


def test_chain_bands_at_256_run_on_the_calling_thread(monkeypatch):
    # every band of the benchmark's 256-bus chain at 256^2 fits one block, so
    # four threads start no pool
    feeder = parse_feeder(CONFIG4)
    spec = FeederSpec(feeder.base_voltage, feeder.alpha,
                      tuple(feeder.segments[i % feeder.n] for i in range(256)),
                      tuple(feeder.loads[i % feeder.n] for i in range(256)))
    seen = _on_threads(monkeypatch, 4)
    baseline = threading.active_count()
    rep = run(spec, CFG)
    assert rep.threads == 4
    assert seen == {threading.get_ident()}
    assert threading.active_count() == baseline


def test_run_joins_every_pool_on_return_and_on_mass_loss(monkeypatch):
    seen = _on_threads(monkeypatch, 2, 1)  # one-row blocks
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
    _on_threads(monkeypatch, 2, 1)
    raised = []
    r2c = mixed_dist._r2c  # the transform of a block of several
    caller = threading.get_ident()

    def failing(*a, **k):
        if threading.get_ident() != caller:
            raised.append(FloatingPointError("transform failed"))
            raise raised[-1]
        return r2c(*a, **k)

    monkeypatch.setattr(mixed_dist, "_r2c", failing)
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
    seen = _on_threads(monkeypatch, 8, 1 << 10)
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
    # most the rows lost to rounding, well under one block (8 MB)
    spec = parse_feeder(CONFIG4)
    config = DpConfig(grid_s=1024, grid_delta=1024)
    peaks = []
    for threads in (1, 2):
        seen = _on_threads(monkeypatch, threads)
        tracemalloc.start()
        try:
            run(spec, config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert seen - {threading.get_ident()}  # the bands at 1024^2 took the pool
    assert peaks[1] <= peaks[0] + mixed_dist._FFT_BLOCK_CELLS  # 1 MB
