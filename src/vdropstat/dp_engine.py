"""Exact-recursion engine for the law of the maximal voltage drop.

Walks the feeder from the leaf to the substation, carrying the joint law of
(through-flow S, downstream maximal drop D) on the two carriers of
``mixed_dist.JointState``:

* grid: the 2D density on a frame of D rows and S columns, with the
  hinge line's S > 0 side (the diagonal D = slope * S) lifted onto it,
  plus the line's S < 0 side (the zero line D = 0),
* atoms (s, d, m): exact point masses with d >= 0.

One stage is one step over both carriers:

* convolve along S with the bus load, D unchanged. Grid rows convolve
  with a continuous load's kernel, or shift by a point load's location.
  An atom times a point load is a new atom at s + x; an atom times a
  continuous load lands on the zero line when d == 0 and otherwise on the
  two straddled D rows.
* shear: D becomes max(0, D + rho * S), with the segment's rho =
  r / base_voltage from ``FeederSpec.rho``. Band mass pushed to D <= 0
  joins the zero line, and the zero line becomes the new hinge line: its
  S > 0 cells are the new diagonal. An atom's d becomes max(0, d + rho * s).

A stage first finds its budget window, once, on the state's band and the
lifted diagonal: the D rows, then within them the S columns, that hold all
but half the stage budget b, at most b/8 cut from each end of each axis
(the transform's dust would otherwise keep nearly every cell occupied). A
hinge line that holds under b/8 is transform dust too: the stage cuts it
whole, neither lifting nor convolving it, and its mass comes out of the
low-end cut of the D axis, at whose bottom the line sits. It then sizes
one band: the window's rows and the frame of columns that the
window's convolution reaches (its columns plus the kernel's length - 1,
clipped to the lattice), widened to the rows and columns of the atoms'
exact deposits, which are never cut. The band is a frame with its own
column origin, so it moves along S with the through-flow from stage to
stage, and it lives in the run's canvas: the whole lattice, held S-major
(one row per S column) and made with zeros, of which only the pages that
bands reach get mapped. Every cell outside the current band is zero.

The S-convolution (``convolve_lines``) reads its source, the state's
band, straight over the window, and writes its destination, the canvas
over the stage's frame of columns, into the same lattice rows it read, so
each row is folded back where it was filled from and the shear reads the
frame as it stands. The stage then zeroes the stepped band's cells that
the convolution did not write. The window's rows go in row groups of
_GROUP_ROWS rows, and each group is transformed only over the columns
between its first and last window column with mass in its rows (the
others are exact zeros), at its own length; adjacent groups share one
transform call when that costs no more than two calls. The groups depend
on the band alone. A call fills its blocks of rows through the stage's
``_window_fill``, which places the state's band and adds the lifted
diagonal's cells that lie in them, transforms them
against the kernel's spectrum at that length (a short one kept in the
kernel's cache the first time) and folds each block, transposed,
into its lines of the canvas, shifted by the kernel's offset;
what falls off the lattice is summed per line and added up group by
group. A point load's two-cell split shifts the lines the same way,
without transforms. Every convolution runs its blocks through one
runner: those of calls that fit one thread's share of a block run in
order on the calling thread, and those of a bigger band on a thread pool
(``pool_threads``: one thread per CPU, at most four) that lives for that
one convolution. A line's result depends on its group's call alone, and
the spill sums, the window and the shear stay on the calling thread, so
the thread count never changes a value. The shear then forms each frame
column's two-part move once, in a scratch block, and copies the columns
of each integer shift floor(rho * S / d_step), one range, with one slice
back into their canvas columns, zeroing the rows each column leaves: the
new band spans the same columns, and the state's ``pc`` is the transpose
of that part of the canvas.

Each run has one workspace (``_Workspace``), made on the run's lattice:
the lattice's S cell centers, the canvas, the kernel of each distinct
load, built once, and the shear's table of each distinct rho, and the
arrays a stage works in (the transform blocks of each thread, the shear's
block), which grow to the largest stage's and are reused by every later
one. A stage consumes its state's band, in place, so no stage holds two
bands: ``run`` passes each state to the next stage and keeps only the
last, whose band is a view of the canvas. Atoms stay exact and the zero
line stays off the 2D grid, so point-mass feeders and the zero-drop
probability suffer no discretization. All truncation (load tails, cut at
b/2; the window's cut; lattice boundary clips; shear overflow) is logged
per stage; the run aborts when the accumulated loss blows past 100x the
configured tolerance.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

try:
    import resource
except ImportError:  # not on every platform; stages then log no fault count
    resource = None

from .feeder_model import FeederSpec, LoadDensity, PointMass
from .mixed_dist import (
    DropDistribution,
    JointLattice,
    JointState,
    Scratch,
    convolve_lines,
    marginal_drop,
    pool_threads,
    text_target,
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
_NO_BAND = np.empty((0, 0))


class MassLossError(RuntimeError):
    """Accumulated truncation exceeded 100x the configured tolerance."""


@dataclass(frozen=True)
class DpConfig:
    """Engine knobs.

    grid_s / grid_delta count lattice cells per axis (the S axis may gain a
    couple of cells when its edges snap onto the integer lattice).
    tail_tol is the per-run truncation budget. Each of the N stages gets
    b = tail_tol / N, shared by the load's tail (at most b/2) and the budget
    window's cut (at most b/8 at each end of the D and the S axis); mass
    clipped at the lattice edges is logged beside it.
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
    window_cut: float       # mass outside the stage's budget window
    cumulative_lost: float
    rows: tuple[int, int] = (0, 0)  # the D rows [r0, r1) the stage sheared
    cols: tuple[int, int] = (0, 0)  # the S frame [c0, c1) the stage convolved into and sheared

    # masses of the state the stage stepped: grid, zero side, diagonal side, atoms
    masses: dict[str, float] = field(default_factory=dict)
    # seconds per phase: kernel, lift, convolve, shear, lines (assembly)
    phase_s: dict[str, float] = field(default_factory=dict)
    # minor page faults of the whole process (pool threads too) during the
    # stage; None where the platform has no ``resource`` module
    minor_faults: int | None = None


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


def _budget_window(sums: np.ndarray, cut: float, below: float | None = None,
                   cum: np.ndarray | None = None) -> tuple[int, int]:
    """Cells [lo, hi) of ``sums`` that leave under ``below`` (``cut`` when
    None) below lo and at most ``cut`` from hi on; lo == hi when all of them
    hold under their sum. ``cum``, when given, is the cumulative sum of
    ``sums``, which is then not read."""
    if cum is None:
        cum = sums.cumsum()
    lo = int(cum.searchsorted(cut if below is None else below))
    return lo, max(lo, int(cum.searchsorted(cum[-1] - cut)) + 1)


def plan_lattice(spec: FeederSpec, config: DpConfig | None = None) -> JointLattice:
    """Size one shared (S, D) lattice for a whole run.

    A coarse convolution sweep over the suffix-sum laws yields per-stage
    quantile windows at the stage budget. The S domain is their union,
    padded and snapped so S = 0 is a cell edge; the D top bounds the drop
    by sum_j rho_j * max(0, hi_j), which the recursion cannot exceed
    outside the logged tail events. The windows and the margins reserved
    beyond them are recorded on the lattice.

    The sweep's cell h is picked once, from the loads' exact moments
    (``LoadDensity.moments``): h = max(support / 256, spread / (4 grid_s)),
    where support is the widest load's support and spread is the range of
    the suffix sums' means (the empty suffix's 0 included) plus 12 standard
    deviations of the whole chain's sum, about the S extent that the
    lattice's grid_s cells will cover. A quarter of a lattice cell is
    resolution enough: the windows set only the lattice's extent and d_max,
    not where any mass sits, and each end lands within one h of the true
    quantile before a pad of three cells of support / 256. A short feeder,
    whose loads' support sets h, keeps its lattice bit for bit, while a long
    chain's laws stay under about 4 grid_s cells instead of growing with
    every bus. The cell doubles if a law still outgrows 16384 cells.
    """
    config = config or DpConfig()
    n = spec.n
    budget = config.tail_tol / n
    rho = spec.rho
    sup = [d.support(0.1 * budget) for d in spec.loads]

    scale = max(max(hi - lo for lo, hi in sup),
                max(abs(b) for pair in sup for b in pair), 1e-9)
    pad = 3.0 * (scale / 256.0)
    means, stds = np.array([d.moments() for d in spec.loads]).T
    suffix = np.cumsum(np.concatenate(([0.0], means[::-1])))  # from the empty suffix on
    spread = float(np.ptp(suffix)) + 12.0 * math.sqrt(float(np.dot(stds, stds)))
    h = max(scale / 256.0, spread / (4.0 * config.grid_s))
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
        w0, w1 = _budget_window(masses, budget, cum=cum)
        s_lo[j] = (origin + w0 - 1) * h - pad
        s_hi[j] = (origin + w1) * h + pad
        # track the moving bulk at constant resolution: trim tails far below
        # the budget (coarsening h instead would freeze the drift of laws
        # whose per-stage mean shift is smaller than a cell)
        t0, t1 = _budget_window(masses, 1e-3 * budget, cum=cum)
        t1 = max(t1, t0 + 2)
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
        s_margin=m_s,
        d_margin=m_d,
        s_windows=tuple(zip(s_lo.tolist(), s_hi.tolist())),
    )


# ---------------------------------------------------------------------------
# stage kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Kernel:
    """One bus load, prepared for lattice work.

    Its mass becomes weights at edge offsets k * h (k0 <= k <= k1), so grid
    (cell-center) values convolved with them land back on centers, and
    ``spectra`` holds their short transforms by transform length, which
    ``convolve_lines`` fills as it first needs each. A continuous load's
    weights are split from ``fine``, its fine law (atoms convolve against
    it directly). A point load has no fine law: it stays one exact
    ``shift``, and its weights split that shift over the offsets k0 =
    floor(shift / h) and k1 = k0 + 1. Either way a cell's mass lands within
    offsets [k0, k1] of it.
    """

    k0: int
    k1: int
    weights: np.ndarray
    fine: tuple[np.ndarray, np.ndarray] | None
    shift: float
    tail: float
    spectra: dict[int, np.ndarray] = field(default_factory=dict, repr=False, compare=False)


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
        cells = load.location / lat.s_step
        k0 = math.floor(cells)
        return _Kernel(k0, k0 + 1, np.array([1.0 - (cells - k0), cells - k0]), None,
                       float(load.location), 0.0)
    mid, masses = _fine_law(load, lat.s_step, lat.stage_tail_budget / 2)
    k0, w = _split_onto(mid / lat.s_step, masses)
    return _Kernel(k0, k0 + len(w) - 1, w, (mid, masses), 0.0,
                   max(0.0, 1.0 - float(masses.sum())))


# ---------------------------------------------------------------------------
# stage helpers
# ---------------------------------------------------------------------------


def _analytic_cells(fine: tuple[np.ndarray, np.ndarray], shift: float, mass: float,
                    lat: JointLattice) -> tuple[int, np.ndarray, float]:
    """Cell masses of (atom at shift) + load, evaluated from its fine law.

    Splitting the fine cdf-difference masses keeps an atom's convolution
    free of the half-cell smear a gridded shift would add, and keeps the
    deposit's mean exact. Returns (first lattice column, the masses of the
    columns from there on, mass outside the lattice).
    """
    mid, fm = fine
    k0, w = _split_onto((mid + shift - lat.s_lo) / lat.s_step - 0.5, fm)
    lo, hi = max(0, -k0), min(len(w), lat.s_cells - k0)  # weights that land on the lattice
    vals = w[lo:max(hi, lo)] * mass
    return k0 + lo, vals, mass - float(vals.sum())


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


def _lift_diag(diag: np.ndarray, slope: float, lat: JointLattice,
               centers: np.ndarray) -> tuple[list[tuple[np.ndarray, np.ndarray, np.ndarray]], float]:
    """Splat the diagonal line density onto 2D cells at D = slope * S.

    ``diag`` is the hinge line's S > 0 side, its cells from ``lat.hinge`` on,
    and ``centers`` the lattice's S cell centers.
    Two-row linear split; rows below 0 clamp to row 0 (drop under half a
    cell), rows above the top are clipped and returned as lost mass.
    Returns (the split's two parts, the lower rows first, each as (rows,
    cols, densities) with no cell twice and rows and columns ascending; the
    lost mass).
    """
    mass = diag * lat.s_step
    cols = np.nonzero(mass > 0.0)[0]
    mass = mass[cols]
    cols += lat.hinge
    g = slope * centers[cols] / lat.d_step - 0.5
    j0 = np.floor(g).astype(int)
    frac = g - j0
    dens = mass / (lat.s_step * lat.d_step)
    spill = 0.0
    parts = []
    for w, rows in ((1.0 - frac, j0), (frac, j0 + 1)):
        contrib = w * dens
        rows = np.maximum(rows, 0)
        over = rows >= lat.d_cells
        if np.any(over):
            spill += float(contrib[over].sum()) * lat.s_step * lat.d_step
        keep = ~over & (contrib > 0.0)
        parts.append((rows[keep], cols[keep], contrib[keep]))
    return parts, spill


_SHEAR_BLOCK_CELLS = 1 << 17  # cells per S-major block in the shear (1 MB)


@dataclass(frozen=True)
class _ShearTable:
    """Where the shear D -> D + rho * S moves each lattice column.

    Column i moves by g_i = rho * s_i / d_step rows, split over base[i] =
    floor(g_i) (weight stay[i] = 1 - frac[i]) and base[i] + 1 (weight
    frac[i]); parts[sh % 2][i] is its weight for the shift sh = base[i] or
    base[i] + 1. With rho >= 0, base never falls from one column to the
    next, so the columns whose floor shift is v or more start at
    first[v - lo], lo = base[0], for v in [lo, base[-1]]. It depends only
    on rho and the lattice, so a run builds it once per distinct rho.
    """

    base: np.ndarray
    stay: np.ndarray
    frac: np.ndarray
    parts: tuple[np.ndarray, np.ndarray]
    first: list[int]
    lo: int


def _build_shear_table(rho: float, centers: np.ndarray, lat: JointLattice) -> _ShearTable:
    g = rho * centers / lat.d_step
    base = np.floor(g).astype(int)
    frac = g - base
    stay = 1.0 - frac
    odd = base % 2 == 1
    lo = int(base[0])
    return _ShearTable(base, stay, frac, (np.where(odd, frac, stay), np.where(odd, stay, frac)),
                       np.searchsorted(base, np.arange(lo, int(base[-1]) + 1)).tolist(), lo)


def _shear_canvas(canvas: np.ndarray, rows: tuple[int, int], cols: tuple[int, int],
                  table: _ShearTable, lat: JointLattice,
                  scratch: Scratch) -> tuple[np.ndarray | None, int, np.ndarray, float]:
    """Shear D -> D + rho * S with clipping at zero, in place on a frame of
    the run's canvas.

    ``canvas`` is the S-major lattice (canvas[c, r] is lattice cell (r, c))
    and holds its mass in the band of grid rows ``rows`` = [r0, r1) over the
    lattice columns ``cols`` = [c0, c1), its frame; every cell outside the
    band is zero. ``table`` says where rho moves each column. The frame goes
    in blocks of about _SHEAR_BLOCK_CELLS cells, which keeps the block's work
    in cache. In a block each column x forms its two-part move once in
    ``scratch``, y = stay * x with y[1:] += frac * x (its rows from floor
    shift on; x is scaled in place), and the columns of each floor shift,
    one range, copy their y as one slice back into their rows of the canvas
    and zero the rows of [r0, r1) that it leaves. Rows pushed below zero feed
    the zero line of their column; rows pushed past the top are lost. Both
    are summed per integer shift, over the columns that move some part by
    it.

    Returns (the new band, a view of the canvas's frame columns over the rows
    the shear reaches, or None when none of them lies on the grid; its first
    row; per-column mass clipped to the zero line, over the frame's columns;
    mass lost over the top). The canvas is zero outside the new band. Only
    negative-S columns can feed the zero line.
    """
    m_d = lat.d_cells
    (r0, r1), (c0, c1) = rows, cols
    n_c, n_b = c1 - c0, r1 - r0
    cell = lat.s_step * lat.d_step
    zero_gain = np.zeros(n_c)
    top = 0.0
    base = table.base[c0:c1]
    stay, frac = table.stay[c0:c1, np.newaxis], table.frac[c0:c1, np.newaxis]
    parts = [p[c0:c1] for p in table.parts]
    first, f0 = table.first, table.lo  # lattice columns from first[v - f0] on shift v or more
    out_r0 = max(r0 + int(base[0]), 0)
    out_r1 = min(r1 + int(base[-1]) + 1, m_d)
    width = max(_SHEAR_BLOCK_CELLS // max(n_b, 1), 16)
    for b0 in range(0, n_c, width):
        b1 = min(b0 + width, n_c)
        sh0, sh1 = int(base[b0]), int(base[b1 - 1])
        x = canvas[c0 + b0:c0 + b1, r0:r1]  # x[i] is frame column b0 + i
        # x[cuts[t]:cuts[t + 1]] are the columns at floor shift sh0 - 1 + t
        cuts = [0, 0, *(v - c0 - b0 for v in first[sh0 + 1 - f0:sh1 + 1 - f0]), b1 - b0, b1 - b0]
        # the rows a shift sh pushes off the grid, for the stay part of the
        # columns at floor sh and the frac part of those at sh - 1
        for sh in itertools.chain(range(sh0, min(sh1 + 2, -r0)),
                                  range(max(sh0, m_d - r1 + 1), sh1 + 2)):
            a, b = cuts[sh - sh0], cuts[sh - sh0 + 2]
            if b <= a:
                continue
            w = parts[sh % 2][b0 + a:b0 + b]
            lo = min(max(-sh - r0, 0), n_b)        # band rows [0, lo) land below zero
            hi = max(min(m_d - sh - r0, n_b), lo)  # band rows [hi, n_b) land over the top
            src = x[a:b]
            if lo:
                zero_gain[b0 + a:b0 + b] += w * src[:, :lo].sum(axis=1)
            if hi < n_b:
                top += float(np.dot(w, src[:, hi:].sum(axis=1)))
        if min(r1 + sh1 + 1, m_d) <= max(r0 + sh0, 0):  # the block lands wholly off the grid
            x[...] = 0.0
            continue
        # y = stay * x, y[1:] += frac * x: row j of y lands floor shift + j rows on
        y = scratch.array("shear_block", (b1 - b0, n_b + 1))
        np.multiply(x, stay[b0:b1], out=y[:, :n_b])
        y[:, n_b] = 0.0
        x *= frac[b0:b1]
        y[:, 1:] += x
        for sh, a, b in zip(range(sh0, sh1 + 1), cuts[1:], cuts[2:]):
            if b <= a:
                continue
            # y rows [j0, j1) land on the grid, on lattice rows from o = r0 + sh on
            j0 = -sh - r0 if sh < -r0 else 0
            j1 = m_d - sh - r0 if sh > m_d - r1 - 1 else n_b + 1
            o = r0 + sh
            moved = canvas[c0 + b0 + a:c0 + b0 + b]  # the columns, whole
            if j1 > j0:
                moved[:, o + j0:o + j1] = y[a:b, j0:j1]
            # the rows of [r0, r1) the columns leave: those below the first row
            # written and from the last one on (all of them when none is written)
            if o + j0 > r0:
                moved[:, r0:min(o + j0, r1)] = 0.0
            if o + j1 < r1:
                moved[:, max(o + j1, r0):r1] = 0.0
    new = canvas[c0:c1, out_r0:out_r1].T if out_r1 > out_r0 else None
    return new, out_r0, zero_gain * cell, top * cell


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


class _Workspace(Scratch):
    """What one run keeps from stage to stage: its lattice, the canvas, the
    kernel cache and the stage scratch.

    The lattice is bound here, once per run, with its S cell centers, and
    every kernel and shear table is built on it: each distinct load's
    kernel once (its short transforms are cached on it by
    ``convolve_lines``, one per transform length), and the shear's table
    once per distinct rho. ``canvas`` is the whole lattice, held S-major
    (canvas[c, r] is lattice cell (r, c)) and made with zeros, whose pages
    stay unmapped until a band reaches them. Every band of the run lives in
    it: the state a stage returns has its ``pc`` as a view of the canvas,
    and the canvas holds zeros outside that band, so the next stage steps
    the band where it lies and consumes it. The scratch arrays (the
    S-convolution's block arrays, one set per thread, and the shear's
    block) grow to the largest stage's and every stage reuses them, so a
    warm stage maps no new memory for them.
    """

    def __init__(self, lat: JointLattice):
        super().__init__()
        self.lattice = lat
        self.centers = lat.s_centers()
        self.canvas = np.zeros((lat.s_cells, lat.d_cells))
        self.kernels: dict[LoadDensity, _Kernel] = {}
        self.shear_tables: dict[float, _ShearTable] = {}

    def kernel(self, load: LoadDensity) -> _Kernel:
        kernel = self.kernels.get(load)
        if kernel is None:
            kernel = self.kernels[load] = _build_kernel(load, self.lattice)
        return kernel

    def shear_table(self, rho: float) -> _ShearTable:
        table = self.shear_tables.get(rho)
        if table is None:
            table = self.shear_tables[rho] = _build_shear_table(rho, self.centers, self.lattice)
        return table


def _minor_faults() -> int | None:
    """Minor page faults of the whole process so far; None without ``resource``."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


_GROUP_ROWS = 32  # rows per row group of a stage's budget window


def _cut(parts, rows: tuple[int, int], cols: tuple[int, int]):
    """The lifted diagonal's ``parts`` cut to the rows [r0, r1) and the
    columns [c0, c1); a part already inside them comes back as it is."""
    (r0, r1), (c0, c1) = rows, cols
    for part in parts:
        rs, cs, _ = part
        if len(rs) and (rs[0] < r0 or rs[-1] >= r1 or cs[0] < c0 or cs[-1] >= c1):
            keep = (rs >= r0) & (rs < r1) & (cs >= c0) & (cs < c1)
            part = tuple(x[keep] for x in part)
        yield part


def _grid_window(state: JointState, parts, row_sums: np.ndarray, cut: float,
                 below: float) -> tuple[tuple[int, int], tuple[int, int], float, list]:
    """The budget window of a stage's grid, the state's band (whose row sums
    are ``row_sums``) plus the lifted diagonal's ``parts``, and its row groups.

    First the D rows that leave under ``below`` below them and at most
    ``cut`` above (``_budget_window``), then, summed over those rows, the S
    columns that leave under ``cut`` below and at most ``cut`` above. The
    window's rows go in groups of _GROUP_ROWS from its first row on, and a
    group's columns run from its first to its last window column that holds
    mass in its rows. One pass over the band's window rows sums each
    group's columns; the window's column sums add those up. Both ends of
    the column window hold mass (a positive cut stops at a cell that
    holds some), so a window of one group spans all its columns.
    Returns the rows [w0, w1), the columns [v0, v1), the mass outside the
    window and the groups (a, b, c0, c1), rows [a, b) over columns [c0, c1)
    (c1 == c0 when they hold no mass), tiling [w0, w1); both ranges are
    empty and there are no groups when no grid mass is left.
    """
    lat = state.lattice
    pc = state.pc
    cell = lat.s_step * lat.d_step
    parts = [part for part in parts if len(part[0])]
    if parts:
        g0 = min(int(rows[0]) for rows, _, _ in parts)
        g1 = max(int(rows[-1]) + 1 for rows, _, _ in parts)
        q0 = min(int(cols[0]) for _, cols, _ in parts)
        q1 = max(int(cols[-1]) + 1 for _, cols, _ in parts)
        if pc is not None:
            g0, g1 = min(g0, state.pc_r0), max(g1, state.pc_r0 + len(pc))
            q0, q1 = min(q0, state.pc_c0), max(q1, state.pc_c0 + pc.shape[1])
        sums = np.zeros(g1 - g0)
        for rows, _, dens in parts:
            sums += np.bincount(rows - g0, dens, g1 - g0)
        if pc is not None:
            sums[state.pc_r0 - g0:state.pc_r0 - g0 + len(pc)] += row_sums
        sums *= cell
    elif pc is not None:  # the band's rows alone
        g0, q0 = state.pc_r0, state.pc_c0
        q1 = q0 + pc.shape[1]
        sums = row_sums * cell
    else:
        return (0, 0), (0, 0), 0.0, []
    lo, hi = _budget_window(sums, cut, below)
    outside = float(np.add.reduce(sums[:lo]) + np.add.reduce(sums[hi:]))
    if hi == lo:
        return (0, 0), (0, 0), outside, []
    w0, w1 = g0 + lo, g0 + hi
    starts = range(w0, w1, _GROUP_ROWS)
    if parts:
        group_sums = np.zeros((len(starts), q1 - q0))
    if pc is not None:
        a, b = max(w0, state.pc_r0), min(w1, state.pc_r0 + len(pc))
        if b > a:  # the groups that hold pc rows, each over its rows among [a, b)
            ga = (a - w0) // _GROUP_ROWS
            cuts = [0, *range(w0 + (ga + 1) * _GROUP_ROWS - a, b - a, _GROUP_ROWS)]
            band_sums = np.add.reduceat(pc[a - state.pc_r0:b - state.pc_r0], cuts, axis=0)
            if parts:
                c = state.pc_c0 - q0
                group_sums[ga:ga + len(cuts), c:c + pc.shape[1]] = band_sums
            else:  # the band's rows and columns are the window's
                group_sums = band_sums
    for rows, cols, dens in _cut(parts, (w0, w1), (q0, q1)):  # no (group, column) twice
        group_sums[(rows - w0) // _GROUP_ROWS, cols - q0] += dens
    sums = np.add.reduce(group_sums, axis=0) * cell
    lo, hi = _budget_window(sums, cut)
    outside += float(np.add.reduce(sums[:lo]) + np.add.reduce(sums[hi:]))
    if hi == lo:
        return (0, 0), (0, 0), outside, []
    v0, v1 = q0 + lo, q0 + hi
    if len(starts) == 1:
        return (w0, w1), (v0, v1), outside, [(w0, w1, v0, v1)]
    held = group_sums[:, lo:hi] > 0.0
    c0s = (v0 + held.argmax(axis=1)).tolist()
    c1s = (v1 - held[:, ::-1].argmax(axis=1)).tolist()
    groups = [(t, min(t + _GROUP_ROWS, w1), c0, c1 if any_ else c0)
              for t, c0, c1, any_ in zip(starts, c0s, c1s, held.any(axis=1).tolist())]
    return (w0, w1), (v0, v1), outside, groups


def _place(dest: np.ndarray, src: np.ndarray, r: int, c: int) -> None:
    """Fill ``dest`` with ``src`` placed with its first cell on dest[r, c],
    cut to ``dest``, and zeros everywhere else."""
    a0, a1 = max(r, 0), min(r + len(src), len(dest))
    b0, b1 = max(c, 0), min(c + src.shape[1], dest.shape[1])
    if a1 <= a0 or b1 <= b0:
        dest[...] = 0.0
        return
    if a0 or a1 < len(dest):
        dest[:a0] = 0.0
        dest[a1:] = 0.0
    if b0 or b1 < dest.shape[1]:
        dest[a0:a1, :b0] = 0.0
        dest[a0:a1, b1:] = 0.0
    dest[a0:a1, b0:b1] = src[a0 - r:a1 - r, b0 - c:b1 - c]


def _clear(canvas: np.ndarray, box: tuple[tuple[int, int], tuple[int, int]],
           keep: tuple[tuple[int, int], tuple[int, int]]) -> None:
    """Zero the cells of the S-major ``canvas`` in the lattice box ``box`` =
    (rows, cols) that lie outside the box ``keep``."""
    ((r0, r1), (c0, c1)), ((k0, k1), (q0, q1)) = box, keep
    canvas[c0:min(c1, q0), r0:r1] = 0.0
    canvas[max(c0, q1):c1, r0:r1] = 0.0
    kept = canvas[max(c0, q0):min(c1, q1)]  # the box's columns that ``keep`` spans
    kept[:, r0:min(k0, r1)] = 0.0
    kept[:, max(k1, r0):r1] = 0.0


def _window_fill(pc: np.ndarray, at: tuple[int, int], lift):
    """The ``fill(x, a, i0)`` through which ``convolve_lines`` reads a
    stage's window: band ``pc`` with its cell (0, 0) on window row at[0]
    and frame column at[1], zero elsewhere, plus the lifted diagonal's
    cells ``lift``, parts (rows, cols, densities) on the window's rows and
    the frame's columns as ``_lift_diag`` and ``_cut`` leave them: rows
    ascending and no cell twice, so each block finds its rows by bisection
    and adds its cells without ``np.add.at``."""
    r_at, c_at = at
    lift = [part for part in lift if len(part[0])]

    def fill(x, a, i0):
        _place(x, pc, r_at - a, c_at - i0)
        for rows, cols, vals in lift:
            s, e = rows.searchsorted((a, a + len(x)))
            if e > s:
                x[rows[s:e] - a, cols[s:e] - i0] += vals[s:e]
    return fill


def _stage(state: JointState, load: LoadDensity, rho: float, config: DpConfig,
           ws: _Workspace) -> tuple[JointState, StageLog]:
    """One stage: the hinge line's split, the budget window and its row
    groups, the S-convolution of the window, of the zero line and of the
    atoms, then the shear. ``rho`` is the drop coefficient of the stage's
    segment, and ``state`` lies on the lattice of the run's workspace ``ws``,
    whose canvas holds no mass outside the state's band.

    A stage consumes its state's band. The band is stepped where it lies:
    the S-convolution reads the window from the state's band and writes it
    back into the same lattice rows of the canvas, over the stage's frame
    of columns; the stage zeroes the band's cells that lie outside what it
    wrote, and the shear moves the frame in place. The new state's ``pc``
    is a view of the canvas, and the state passed in no longer holds its
    band (when its ``pc`` was a view of the canvas too). Returns the new
    state and the stage's log.
    """
    faults = _minor_faults()
    clock = _PhaseClock()
    lat = ws.lattice
    h_s = lat.s_step
    cell = h_s * lat.d_step
    kernel = ws.kernel(load)
    clock.lap("kernel")
    # the hinge line cut at S = 0: cells [0, i0) lie on the zero line, the rest on the diagonal
    i0 = lat.hinge
    line = state.line
    pc = state.pc
    row_sums = _EMPTY if pc is None else pc.sum(axis=1)
    masses = {"grid": float(row_sums.sum()) * h_s * lat.d_step, "zero": 0.0, "diag": 0.0,
              "atoms": float(state.atom_mass.sum())}
    if line is not None:
        masses["zero"], masses["diag"] = float(line[:i0].sum() * h_s), float(line[i0:].sum() * h_s)

    # ---- the budget window of the grid: the state's band and the lifted
    # diagonal. A line under b/8 is dust: it is cut whole, and its mass comes
    # out of the D axis's low-end cut ----
    end_cut = lat.stage_tail_budget / 8
    dropped = masses["zero"] + masses["diag"]
    if dropped < end_cut:
        parts, spill, zero_side = [], 0.0, _EMPTY
    else:
        parts, spill = _lift_diag(line[i0:], state.slope, lat, ws.centers)
        zero_side = line[:i0]
        dropped = 0.0
    (w0, w1), (v0, v1), cut, groups = _grid_window(state, parts, row_sums, end_cut,
                                                   end_cut - dropped)
    cut += dropped
    # the load's tail, cut from the mass the kernel convolves: the grid in the
    # window and the zero line (atoms lose theirs with their deposits' clip)
    tail_loss = (masses["grid"] + masses["diag"] - spill - cut + masses["zero"]) * kernel.tail

    # ---- one band: the window's rows and the frame of columns its convolution
    # reaches, widened to the atoms' exact deposits ----
    spans, frame = [], []  # rows; columns the convolution and the deposits write
    if w1 > w0:
        spans.append((w0, w1))
        f0, f1 = max(v0 + kernel.k0, 0), min(v1 + kernel.k1, lat.s_cells)
        if f1 > f0:
            frame.append((f0, f1))
    s, d, m = state.atom_s, state.atom_d, state.atom_mass
    deposits = []
    if kernel.fine is not None:
        for sa, da, ma in zip(s, d, m):
            a0, vals, clipped = _analytic_cells(kernel.fine, sa, ma, lat)
            spill += clipped
            if not len(vals):
                continue
            deposits.append((da, a0, vals))
            if da > 0.0:
                spans += [(row, row + 1) for row, _ in _row_weights(da, lat)
                          if row < lat.d_cells]
                frame.append((a0, a0 + len(vals)))
        s = d = m = _EMPTY
    else:
        s = s + kernel.shift
    r0, r1 = _span(spans)
    e0, e1 = _span(frame)
    canvas = ws.canvas  # S-major: canvas[c, r] is lattice cell (r, c)
    if w1 > w0:
        # the window's input: the state's band and the lifted diagonal's
        # window cells, on the window's rows and the frame's columns
        fill = _window_fill(_NO_BAND if pc is None else pc, (state.pc_r0 - w0, state.pc_c0 - e0),
                            [(rows - w0, cols - e0, dens)
                             for rows, cols, dens in _cut(parts, (w0, w1), (v0, v1))])
    clock.lap("lift")

    # ---- convolve: the window (into the frame, in the lattice rows it was
    # read from), the zero line, the atoms ----
    if w1 > w0:
        spill += convolve_lines(
            fill, canvas[e0:e1, w0:w1], kernel.weights, kernel.k0, kernel.spectra, ws,
            [(a - w0, b - w0, c0 - e0, c1 - e0) for a, b, c0, c1 in groups]) * cell
    if pc is not None:  # the stepped band's cells that the convolution did not write
        _clear(canvas, ((state.pc_r0, state.pc_r0 + len(pc)),
                        (state.pc_c0, state.pc_c0 + pc.shape[1])), ((w0, w1), (e0, e1)))
    z_vals = np.zeros(lat.s_cells)
    held = np.flatnonzero(zero_side)
    if len(held):
        spill += convolve_lines(zero_side, z_vals, kernel.weights, kernel.k0, kernel.spectra, ws,
                                [(0, 1, int(held[0]), int(held[-1]) + 1)]) * h_s
    for da, a0, vals in deposits:
        if da == 0.0:
            z_vals[a0:a0 + len(vals)] += vals / h_s
            continue
        for row, w in _row_weights(da, lat):
            if row >= lat.d_cells:
                spill += w * float(vals.sum())
            else:
                canvas[a0:a0 + len(vals), row] += (w / cell) * vals
    clock.lap("convolve")

    # ---- shear the frame ----
    new_pc, new_r0 = None, 0
    if r1 > r0 and e1 > e0:
        new_pc, new_r0, zero_gain, top = _shear_canvas(canvas, (r0, r1), (e0, e1),
                                                       ws.shear_table(rho), lat, ws)
        spill += top
        z_vals[e0:e1] += zero_gain / h_s
    clock.lap("shear")

    new_state = JointState(
        stage=state.stage - 1,
        slope=rho,
        lattice=lat,
        pc=new_pc,
        pc_r0=new_r0,
        pc_c0=e0,
        line=z_vals if z_vals.any() else None,
        atom_s=s,
        atom_d=np.maximum(0.0, d + rho * s) if len(s) else s,
        atom_mass=m,
        lost_mass=state.lost_mass + tail_loss + spill + cut,
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
        window_cut=cut,
        cumulative_lost=new_state.lost_mass,
        rows=(r0, r1),
        cols=(e0, e1),
        masses=masses,
        phase_s=clock.phases,
        minor_faults=None if faults is None else _minor_faults() - faults,
    )
    return new_state, log


def run(spec: FeederSpec, config: DpConfig | None = None) -> DpReport:
    """Propagate the full feeder and integrate out the through-flow."""
    config = config or DpConfig()
    t0 = time.perf_counter()
    ws = _Workspace(plan_lattice(spec, config))  # for this run only
    state = JointState.terminal(ws.lattice, stage=spec.n)
    logs: list[StageLog] = []
    rho = spec.rho.tolist()
    for j in range(spec.n - 1, -1, -1):
        state, log = _stage(state, spec.loads[j], rho[j], config, ws)
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
    with text_target(target) as fh:
        fh.write("part,s,delta,density,atom_mass\n")
        lat = state.lattice
        cs = lat.s_centers()
        if state.pc is not None:
            pc = np.zeros((lat.d_cells, lat.s_cells))  # the band padded to the lattice
            pc[state.pc_r0:state.pc_r0 + len(state.pc),
               state.pc_c0:state.pc_c0 + state.pc.shape[1]] = state.pc
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
