"""Exact-recursion engine for the law of the maximal voltage drop.

Walks the feeder from the leaf to the substation, carrying the joint law of
(through-flow S, downstream maximal drop D) on the two carriers of
``mixed_dist.JointState``:

* grid rows: the 2D density on its occupied band of D rows, with the
  hinge line's S > 0 side (the diagonal D = slope * S) lifted onto it,
  plus the line's S < 0 side (the zero line D = 0),
* atoms (s, d, m): exact point masses with d >= 0.

One stage is one step over both carriers:

* convolve along S with the bus load, D unchanged. Grid rows convolve
  with a continuous load's kernel, or shift by a point load's location.
  An atom times a point load is a new atom at s + x; an atom times a
  continuous load lands on the zero line when d == 0 and otherwise on the
  two straddled D rows.
* shear: D becomes max(0, D + rho * S). Band mass pushed to D <= 0 joins
  the zero line, and the zero line becomes the new hinge line: its S > 0
  cells are the new diagonal. An atom's d becomes max(0, d + rho * s).

A stage sizes one band up front (the state's rows, the lifted diagonal's
and the atoms' deposit rows) and lifts, convolves and deposits into it
alone: a convolution along S never mixes rows. The shear moves whole runs
of columns with equal integer shift floor(rho * S / d_step) at once into
the next band, trimmed to its occupied rows, so no stage holds the full
d_cells x s_cells lattice. Each distinct load's kernel is built once per
run. The S-convolution (``convolve_lines``) cuts a band larger than one
transform block into blocks of rows and transforms them on a thread pool
(``pool_threads``: one thread per CPU, at most four) that lives for that
one convolution. A row's transform does not depend on its block or
thread, and the fold, the spill sums, the lift and the shear stay on the
calling thread, so the thread count never changes a value. Atoms stay
exact and the zero line stays off the 2D grid, so point-mass feeders and
the zero-drop probability suffer no discretization.
All truncation (load tails, lattice boundary clips, shear overflow) is
logged per stage; the run aborts when the accumulated loss blows past 100x
the configured tolerance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .feeder_model import FeederSpec, LineSegment, LoadDensity, PointMass
from .mixed_dist import (
    DropDistribution,
    JointLattice,
    JointState,
    convolve_lines,
    line_spectrum,
    marginal_drop,
    pool_threads,
)

__all__ = [
    "DpConfig",
    "DpReport",
    "StageLog",
    "MassLossError",
    "plan_lattice",
    "run",
    "joint_to_csv",
]

_EMPTY = np.empty(0)


class MassLossError(RuntimeError):
    """Accumulated truncation exceeded 100x the configured tolerance."""


@dataclass(frozen=True)
class DpConfig:
    """Engine knobs.

    grid_s / grid_delta count lattice cells per axis (the S axis may gain a
    couple of cells when its edges snap onto the integer lattice).
    tail_tol is the per-run truncation budget; each stage gets tail_tol / N.
    renormalize scales the final drop law back to total mass one.
    """

    grid_s: int = 2048
    grid_delta: int = 2048
    tail_tol: float = 1e-6
    renormalize: bool = False

    def __post_init__(self):
        if self.grid_s < 16 or self.grid_delta < 16:
            raise ValueError("grids need at least 16 cells per axis")
        if not 0.0 < self.tail_tol <= 1e-2:
            raise ValueError("tail_tol must lie in (0, 1e-2]")


@dataclass(frozen=True)
class StageLog:
    stage: int
    seconds: float
    kernel_tail: float      # mass dropped with the load-support truncation
    boundary_spill: float   # mass clipped at lattice edges and the drop top
    cumulative_lost: float
    rows: tuple[int, int] = (0, 0)  # the stage's D-row band [r0, r1)
    cols: tuple[int, int] = (0, 0)  # the band's occupied S columns [c0, c1)
    # masses of the state the stage stepped: grid, zero side, diagonal side, atoms
    masses: dict[str, float] = field(default_factory=dict)
    # seconds per phase: kernel, lift, convolve, shear, lines (assembly)
    phase_s: dict[str, float] = field(default_factory=dict)


@dataclass(eq=False)
class DpReport:
    """Everything a run produced: final state, drop law, per-stage audit."""

    state: JointState
    drop: DropDistribution
    lattice: JointLattice
    stage_logs: list[StageLog]
    seconds: float
    threads: int  # threads the stages' S-convolutions could run on

    @property
    def lost_mass(self) -> float:
        return self.state.lost_mass

    @property
    def ledger_gap(self) -> float:
        """Signed unlogged discrepancy: 1 - final mass - logged losses."""
        return 1.0 - self.state.total_mass() - self.state.lost_mass


# ---------------------------------------------------------------------------
# lattice planning
# ---------------------------------------------------------------------------


def plan_lattice(spec: FeederSpec, config: DpConfig | None = None) -> JointLattice:
    """Size one shared (S, D) lattice for a whole run.

    A coarse convolution sweep over the suffix-sum laws (cell width
    doubling whenever the law outgrows 16384 cells) yields per-stage
    quantile windows at the stage budget. The S domain is their union,
    padded and snapped so S = 0 is a cell edge; the D top bounds the drop
    by sum_j rho_j * max(0, hi_j), which the recursion cannot exceed
    outside the logged tail events.
    """
    config = config or DpConfig()
    n = spec.n
    budget = config.tail_tol / n
    rho = spec.rho
    sup = [d.support(0.1 * budget) for d in spec.loads]

    scale = max(max(hi - lo for lo, hi in sup),
                max(abs(b) for pair in sup for b in pair), 1e-9)
    h = scale / 256.0
    masses = np.array([1.0])
    origin = 0  # masses[i] sits at (origin + i) * h
    s_lo = np.empty(n)
    s_hi = np.empty(n)
    splits: dict[tuple[LoadDensity, float], tuple[int, np.ndarray]] = {}
    for j in range(n - 1, -1, -1):
        load = spec.loads[j]
        if (load, h) not in splits:
            if isinstance(load, PointMass):
                locs, ams = np.array([load.location]), np.array([1.0])
            else:
                locs, ams = _fine_law(load, h, 0.1 * budget)
            splits[load, h] = _split_onto(locs / h, ams)
        k0, w = splits[load, h]
        masses = np.convolve(masses, w)
        origin += k0
        cum = np.cumsum(masses)
        total = cum[-1]
        i_lo = int(np.searchsorted(cum, budget))
        i_hi = int(np.searchsorted(cum, total - budget))
        s_lo[j] = (origin + i_lo - 1) * h - 3.0 * h
        s_hi[j] = (origin + i_hi + 1) * h + 3.0 * h
        # track the moving bulk at constant resolution: trim tails far below
        # the budget (coarsening h instead would freeze the drift of laws
        # whose per-stage mean shift is smaller than a cell)
        t0 = int(np.searchsorted(cum, 1e-3 * budget))
        t1 = max(int(np.searchsorted(cum, total - 1e-3 * budget)) + 1, t0 + 2)
        if t0 > 0 or t1 < len(masses):
            masses = masses[t0:t1]
            origin += t0
        if len(masses) > 16384:
            if origin % 2:
                masses = np.concatenate(([0.0], masses))
                origin -= 1
            if len(masses) % 2:
                masses = np.concatenate((masses, [0.0]))
            masses = masses[0::2] + masses[1::2]
            origin //= 2
            h *= 2.0

    g_lo = min(0.0, float(s_lo.min()))
    g_hi = max(0.0, float(s_hi.max()))
    if g_hi - g_lo < 1e-9 * max(1.0, abs(g_lo), abs(g_hi)):
        pad = max(0.5, 1e-6 * max(abs(g_lo), abs(g_hi)))
        g_lo -= pad
        g_hi += pad
    # Two-point splits diffuse mass by at most one cell per stage, so after
    # n stages the lattice law runs wider than the true law by O(h sqrt(n)).
    # Reserve a 3 sqrt(n)-cell margin per exposed edge (Hoeffding: crossing
    # mass <= 2 exp(-18)); the drop axis only needs it at the top, the zero
    # clamp absorbs at the bottom.
    m_s = min(math.ceil(3.0 * math.sqrt(n)), config.grid_s // 3)
    m_d = min(math.ceil(3.0 * math.sqrt(n)), config.grid_delta // 3)
    h_s = (g_hi - g_lo) / max(config.grid_s - 2 * m_s, 1)
    s_base = math.floor(g_lo / h_s) - 1 - m_s
    s_cells = (math.ceil(g_hi / h_s) + 1 + m_s) - s_base

    d_max = float(np.dot(rho, np.maximum(s_hi, 0.0)))
    d_max = d_max * 1.001 + 1e-12
    return JointLattice(
        s_base=s_base,
        s_step=h_s,
        s_cells=int(s_cells),
        d_step=d_max / max(config.grid_delta - m_d, 1),
        d_cells=config.grid_delta,
        stage_tail_budget=budget,
    )


# ---------------------------------------------------------------------------
# stage kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Kernel:
    """One bus load, prepared for lattice work.

    Continuous mass becomes weights at edge offsets k * h (k0 <= k <= k1),
    so grid (cell-center) values convolved with them land back on centers;
    ``spectrum`` is their transform for lattice-wide lines and ``fine`` the
    fine law they were split from (atoms convolve against it directly).
    A point load has no weights and stays one exact ``shift``.
    """

    k0: int
    weights: np.ndarray | None
    spectrum: np.ndarray | None
    fine: tuple[np.ndarray, np.ndarray] | None
    shift: float
    tail: float


def _fine_law(load: LoadDensity, h: float, budget: float) -> tuple[np.ndarray, np.ndarray]:
    """Load law as midpoint masses on a grid several times finer than h.

    Exact cdf differences per fine cell; downstream two-point splits then
    place each fine mass mean-exactly, so a kernel never loses its drift
    even when the lattice cell dwarfs the load scale.
    """
    lo, hi = load.support(budget)
    span = max(hi - lo, 1e-12 * max(abs(lo), abs(hi), 1.0))
    cells = int(min(max(4096, 4.0 * math.ceil(span / h)), 65536))
    edges = np.linspace(lo, lo + span, cells + 1)
    m = np.diff(np.asarray(load.cdf(edges), dtype=float))
    return 0.5 * (edges[:-1] + edges[1:]), np.clip(m, 0.0, None)


def _split_onto(positions: np.ndarray, masses: np.ndarray) -> tuple[int, np.ndarray]:
    """Deposit masses at real-valued indices with the two-point linear split.

    Returns (first index, weight array); the split keeps the first moment
    of every deposit exact.
    """
    base = np.floor(positions).astype(int)
    frac = positions - base
    k0 = int(base.min())
    w = np.zeros(int(base.max()) - k0 + 2)
    np.add.at(w, base - k0, masses * (1.0 - frac))
    np.add.at(w, base - k0 + 1, masses * frac)
    return k0, w


def _build_kernel(load: LoadDensity, lat: JointLattice) -> _Kernel:
    if isinstance(load, PointMass):
        return _Kernel(0, None, None, None, float(load.location), 0.0)
    mid, masses = _fine_law(load, lat.s_step, lat.stage_tail_budget)
    k0, w = _split_onto(mid / lat.s_step, masses)
    return _Kernel(k0, w, line_spectrum(w, lat.s_cells), (mid, masses), 0.0,
                   max(0.0, 1.0 - float(masses.sum())))


# ---------------------------------------------------------------------------
# array helpers (value-sum spills; callers convert to mass)
# ---------------------------------------------------------------------------


def _fold_last(dest: np.ndarray, src: np.ndarray, k0: int) -> float:
    """dest[..., t + k0] += src[..., t]; returns the out-of-range value sum."""
    n = dest.shape[-1]
    width = src.shape[-1]
    lo = max(0, -k0)
    hi = min(width, n - k0)
    if hi <= lo:
        return float(src.sum())
    dest[..., k0 + lo:k0 + hi] += src[..., lo:hi]
    return float(src[..., :lo].sum() + src[..., hi:].sum())


def _shift_last(dest: np.ndarray, src: np.ndarray, cells: float) -> float:
    """dest += src shifted by a real number of cells, split over the two
    straddled integer shifts. Returns the clipped value sum."""
    base = math.floor(cells)
    frac = cells - base
    n = src.shape[-1]
    spill = 0.0
    for w, sh in ((1.0 - frac, base), (frac, base + 1)):
        if w <= 0.0:
            continue
        ln = n - abs(sh)
        if ln <= 0:
            spill += w * float(src.sum())
            continue
        d0 = max(0, sh)
        s0 = max(0, -sh)
        dest[..., d0:d0 + ln] += w * src[..., s0:s0 + ln]
        spill += w * (float(src.sum()) - float(src[..., s0:s0 + ln].sum()))
    return spill


def _analytic_cells(fine: tuple[np.ndarray, np.ndarray], shift: float, mass: float,
                    lat: JointLattice) -> tuple[np.ndarray, float]:
    """Cell masses of (atom at shift) + load, evaluated from its fine law.

    Splitting the fine cdf-difference masses keeps an atom's convolution
    free of the half-cell smear a gridded shift would add, and keeps the
    deposit's mean exact. Returns (cell masses, mass outside the lattice).
    """
    mid, fm = fine
    k0, w = _split_onto((mid + shift - lat.s_lo) / lat.s_step - 0.5, fm)
    vals = np.zeros(lat.s_cells)
    _fold_last(vals, w, k0)
    vals *= mass
    return vals, mass - float(vals.sum())


def _row_weights(d: float, lat: JointLattice) -> list[tuple[int, float]]:
    """(row, weight) of the two-row split of drop d, zero weights left out.
    Rows below 0 clamp to 0; rows at or past d_cells lie over the top."""
    g = d / lat.d_step - 0.5
    j = math.floor(g)
    f = g - j
    return [(max(row, 0), w) for w, row in ((1.0 - f, j), (f, j + 1)) if w > 0.0]


def _span(spans: list[tuple[int, int]]) -> tuple[int, int]:
    """Smallest row range [r0, r1) holding every span; (0, 0) if there are none."""
    return (min(a for a, _ in spans), max(b for _, b in spans)) if spans else (0, 0)


def _lift_diag(diag: np.ndarray, slope: float,
               lat: JointLattice) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Splat the diagonal line density onto 2D cells at D = slope * S.

    Two-row linear split; rows below 0 clamp to row 0 (drop under half a
    cell), rows above the top are clipped and returned as lost mass.
    Returns (rows, cols, densities, lost mass), lower split rows first.
    """
    mass = diag * lat.s_step
    cols = np.nonzero(mass > 0.0)[0]
    g = slope * lat.s_centers()[cols] / lat.d_step - 0.5
    j0 = np.floor(g).astype(int)
    frac = g - j0
    dens = mass[cols] / (lat.s_step * lat.d_step)
    spill = 0.0
    parts = []
    for w, rows in ((1.0 - frac, j0), (frac, j0 + 1)):
        contrib = w * dens
        rows = np.clip(rows, 0, None)
        over = rows >= lat.d_cells
        if np.any(over):
            spill += float(contrib[over].sum()) * lat.s_step * lat.d_step
        keep = ~over & (contrib > 0.0)
        parts.append((rows[keep], cols[keep], contrib[keep]))
    rows, cols, contrib = (np.concatenate(p) for p in zip(*parts))
    return rows, cols, contrib, spill


_SHEAR_BLOCK_CELLS = 1 << 17  # cells per S-major block in the shear (1 MB)


def _shear_canvas(band: np.ndarray, r0: int, rho: float, lat: JointLattice
                  ) -> tuple[np.ndarray | None, int, np.ndarray, float, tuple[int, int]]:
    """Shear D -> D + rho * S with clipping at zero, on a band of D rows.

    ``band`` holds grid rows [r0, r0 + len(band)) at full S width. Column i
    moves by g_i = rho * s_i / d_step rows, split over floor(g_i) (weight
    1 - frac) and floor(g_i) + 1 (weight frac). floor(g_i) is constant on
    runs of columns, so the band's occupied columns are transposed to
    S-major (in blocks of about _SHEAR_BLOCK_CELLS cells, which keeps both
    transposes in cache) and each run moves as one slice per split weight
    into the rows [r0 + min shift, r1 + max shift] of the new band. Rows
    pushed below zero feed the zero line of their column; rows pushed past
    the top are lost.

    Returns (new band trimmed to its occupied rows, or None when no mass
    stays on the grid; its first row; per-column mass clipped to the zero
    line; mass lost over the top; the occupied columns [c_lo, c_hi) of
    ``band``, (0, 0) when it is empty). Only negative-S columns can feed
    the zero line.
    """
    m_d = lat.d_cells
    n_b, n_s = band.shape
    r1 = r0 + n_b
    cell = lat.s_step * lat.d_step
    zero_gain = np.zeros(n_s)
    top = 0.0
    occupied = np.flatnonzero(band.any(axis=0))
    if not len(occupied):
        return None, 0, zero_gain, top, (0, 0)
    c_lo, c_hi = int(occupied[0]), int(occupied[-1]) + 1
    g = rho * lat.s_centers() / lat.d_step
    base = np.floor(g).astype(int)
    frac = g - base
    run_starts = np.flatnonzero(np.diff(base)) + 1
    out_r0 = max(r0 + int(base[c_lo:c_hi].min()), 0)
    out_r1 = min(r1 + int(base[c_lo:c_hi].max()) + 1, m_d)
    out = np.zeros((max(out_r1 - out_r0, 0), n_s))
    width = max(_SHEAR_BLOCK_CELLS // n_b, 16)
    for c0 in range(c_lo, c_hi, width):
        c1 = min(c0 + width, c_hi)
        block = band[:, c0:c1].T.copy()  # block[i - c0] is column i
        o0 = max(r0 + int(base[c0:c1].min()), 0)
        o1 = min(r1 + int(base[c0:c1].max()) + 1, m_d)
        moved = np.zeros((c1 - c0, max(o1 - o0, 0)))
        inner = run_starts[(run_starts > c0) & (run_starts < c1)].tolist()
        for a, b in zip([c0, *inner], [*inner, c1]):
            for w, sh in ((1.0 - frac[a:b], int(base[a])), (frac[a:b], int(base[a]) + 1)):
                if not w.any():
                    continue
                lo = min(max(-sh - r0, 0), n_b)        # band rows [0, lo) land below zero
                hi = max(min(m_d - sh - r0, n_b), lo)  # band rows [hi, n_b) land over the top
                src = block[a - c0:b - c0]
                if lo:
                    zero_gain[a:b] += w * src[:, :lo].sum(axis=1)
                if hi < n_b:
                    top += float(np.dot(w, src[:, hi:].sum(axis=1)))
                if hi > lo:
                    d0 = r0 + lo + sh - o0
                    moved[a - c0:b - c0, d0:d0 + hi - lo] += w[:, np.newaxis] * src[:, lo:hi]
        if o1 > o0:  # a block can land wholly below zero or over the top
            out[o0 - out_r0:o1 - out_r0, c0:c1] = moved.T
    rows = np.flatnonzero(out.any(axis=1))
    if not len(rows):
        return None, 0, zero_gain * cell, top * cell, (c_lo, c_hi)
    return (out[rows[0]:rows[-1] + 1], out_r0 + int(rows[0]), zero_gain * cell,
            top * cell, (c_lo, c_hi))


# ---------------------------------------------------------------------------
# one stage
# ---------------------------------------------------------------------------


class _PhaseClock:
    """Accumulates wall seconds per named phase between successive laps."""

    def __init__(self):
        self.start = self.last = time.perf_counter()
        self.phases: dict[str, float] = {}

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.phases[name] = self.phases.get(name, 0.0) + now - self.last
        self.last = now


_KernelCache = dict[LoadDensity, _Kernel]  # the lattice is fixed within a run


def _convolve_grid(vals: np.ndarray, kernel: _Kernel, h_s: float) -> float:
    """Convolve ``vals`` along S with the load in place; returns the clipped value sum.

    ``vals`` is a block of band rows (2D) or the zero line (1D). A
    continuous load folds in its convolution; a point load shifts ``vals``
    by its location.
    """
    if kernel.weights is not None:
        src = convolve_lines(vals, kernel.weights, kernel.spectrum)
        vals[...] = 0.0
        return _fold_last(vals, src, kernel.k0)
    src = vals.copy()
    vals[...] = 0.0
    return _shift_last(vals, src, kernel.shift / h_s)


def _apply_stage(state: JointState, load: LoadDensity, segment: LineSegment,
                 config: DpConfig, kernels: _KernelCache) -> tuple[JointState, StageLog]:
    """Advance one bus toward the substation; see the module docstring."""
    clock = _PhaseClock()
    lat = state.lattice
    h_s = lat.s_step
    cell = h_s * lat.d_step
    rho = segment.rho
    kernel = kernels.get(load)
    if kernel is None:
        kernel = kernels[load] = _build_kernel(load, lat)
    clock.lap("kernel")
    zero, diag = state.hinge_sides()
    masses = {"grid": state.pc_mass(), "zero": zero.mass(), "diag": diag.mass(),
              "atoms": float(state.atom_mass.sum())}
    tail_loss = (masses["grid"] + masses["diag"] + masses["zero"]) * kernel.tail
    spill = 0.0

    # ---- one band: the state's rows, the lifted diagonal's, the atom deposits' ----
    rows, cols, dens, lost = _lift_diag(diag.values, state.slope, lat)
    spill += lost
    spans = [(int(rows.min()), int(rows.max()) + 1)] if len(rows) else []
    if state.pc is not None:
        spans.append((state.pc_r0, state.pc_r0 + len(state.pc)))
    g0, g1 = _span(spans)  # grid rows: the state's band and the lifted diagonal
    s, d, m = state.atom_s, state.atom_d, state.atom_mass
    if kernel.weights is not None:
        spans += [(row, row + 1) for da in d if da > 0.0
                  for row, _ in _row_weights(da, lat) if row < lat.d_cells]
    r0, r1 = _span(spans)
    band = np.zeros((r1 - r0, lat.s_cells))
    if state.pc is not None:
        band[state.pc_r0 - r0:state.pc_r0 - r0 + len(state.pc)] = state.pc
    np.add.at(band, (rows - r0, cols), dens)
    clock.lap("lift")

    # ---- convolve: grid rows (band, zero line) ----
    if g1 > g0:
        spill += _convolve_grid(band[g0 - r0:g1 - r0], kernel, h_s) * cell
    z_vals = zero.values.copy()
    if z_vals.any():
        spill += _convolve_grid(z_vals, kernel, h_s) * h_s

    # ---- convolve: atoms (s, d, m) ----
    if kernel.weights is None:
        s = s + kernel.shift
    else:
        for sa, da, ma in zip(s, d, m):
            vals, clipped = _analytic_cells(kernel.fine, sa, ma, lat)
            spill += clipped
            if da == 0.0:
                z_vals += vals / h_s
                continue
            for row, w in _row_weights(da, lat):
                if row >= lat.d_cells:
                    spill += w * float(vals.sum())
                else:
                    band[row - r0] += (w / cell) * vals
        s = d = m = _EMPTY
    clock.lap("convolve")

    # ---- shear: D -> max(0, D + rho * S) ----
    pc, pc_r0, cols = None, 0, (0, 0)
    if r1 > r0:
        pc, pc_r0, zero_gain, top, cols = _shear_canvas(band, r0, rho, lat)
        spill += top
        z_vals += zero_gain / h_s
    d = np.maximum(0.0, d + rho * s)
    clock.lap("shear")

    new_state = JointState(
        stage=state.stage - 1,
        slope=rho,
        lattice=lat,
        pc=pc,
        pc_r0=pc_r0,
        line=z_vals if z_vals.any() else None,
        atom_s=s,
        atom_d=d,
        atom_mass=m,
        lost_mass=state.lost_mass + tail_loss + spill,
    )
    if new_state.lost_mass > 100.0 * config.tail_tol:
        raise MassLossError(
            f"accumulated mass loss {new_state.lost_mass:.3e} exceeds "
            f"100x tail_tol={config.tail_tol:.1e} at stage {new_state.stage}")
    clock.lap("lines")
    log = StageLog(
        stage=new_state.stage,
        seconds=clock.last - clock.start,
        kernel_tail=tail_loss,
        boundary_spill=spill,
        cumulative_lost=new_state.lost_mass,
        rows=(r0, r1),
        cols=cols,
        masses=masses,
        phase_s=clock.phases,
    )
    return new_state, log


def run(spec: FeederSpec, config: DpConfig | None = None) -> DpReport:
    """Propagate the full feeder and integrate out the through-flow."""
    config = config or DpConfig()
    t0 = time.perf_counter()
    state = JointState.terminal(plan_lattice(spec, config), stage=spec.n)
    logs: list[StageLog] = []
    kernels: _KernelCache = {}  # one kernel per distinct load, for this run only
    for j in range(spec.n - 1, -1, -1):
        state, log = _apply_stage(state, spec.loads[j], spec.segments[j], config, kernels)
        logs.append(log)
    drop = marginal_drop(state)
    if config.renormalize:
        drop = drop.renormalized()
    return DpReport(
        state=state,
        drop=drop,
        lattice=state.lattice,
        stage_logs=logs,
        seconds=time.perf_counter() - t0,
        threads=pool_threads(),
    )


# ---------------------------------------------------------------------------
# joint-state export
# ---------------------------------------------------------------------------


def joint_to_csv(state: JointState, target) -> None:
    """Emit the joint state as part,s,delta,density,atom_mass rows.

    Part "c" rows carry the 2D density, "zero"/"diag" rows the two sides
    of the hinge line (delta derived from the line geometry). Atom rows
    carry exact point masses, labelled "zero" at d == 0, "diag" at
    d == slope * s and "atom" elsewhere. An empty state writes the header
    only.
    """
    own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
    fh = open(target, "w", newline="", encoding="utf-8") if own else target
    try:
        fh.write("part,s,delta,density,atom_mass\n")
        lat = state.lattice
        cs = lat.s_centers()
        if state.pc is not None:
            pc = np.zeros((lat.d_cells, lat.s_cells))  # the band padded to the lattice
            pc[state.pc_r0:state.pc_r0 + len(state.pc)] = state.pc
            block = np.column_stack((
                np.tile(cs, lat.d_cells),
                np.repeat(lat.d_centers(), lat.s_cells),
                pc.ravel(),
            ))
            np.savetxt(fh, block, fmt="c,%.17g,%.17g,%.17g,0")
        zero, diag = state.hinge_sides()
        if zero.values.any():
            np.savetxt(fh, np.column_stack((cs, zero.values)), fmt="zero,%.17g,0,%.17g,0")
        if diag.values.any():
            np.savetxt(fh, np.column_stack((cs, state.slope * cs, diag.values)),
                       fmt="diag,%.17g,%.17g,%.17g,0")
        for sa, da, ma in zip(state.atom_s, state.atom_d, state.atom_mass):
            part = "zero" if da == 0.0 else "diag" if da == state.slope * sa else "atom"
            fh.write(f"{part},{float(sa)!r},{float(da)!r},0,{float(ma)!r}\n")
    finally:
        if own:
            fh.close()
