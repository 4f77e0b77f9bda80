"""Mixed discrete/continuous densities on uniform grids, and the joint
flow-drop state of the dynamic program.

The joint law of (through-flow S, downstream maximal drop D) at any stage
sits on the two carriers that ``dp_engine`` steps:

* grid: the 2D density ``pc`` on D > 0, held as its occupied band of D
  rows (first row ``pc_r0``) at full S width, plus the hinge ``line``, a
  1D density over the S cells whose mass sits at D = max(0, slope * S). Its
  S < 0 cells form the zero line D = 0; its S > 0 cells form the diagonal
  D = slope * S (mass that had zero drop until the latest segment),
* atoms (s, d, m): exact point masses with d >= 0. The start state is
  one; point-mass loads shift them without error, so degenerate feeders
  stay exact, and a continuous load spreads them onto the grid.

Grids share one integer-anchored lattice: S cell edges sit at
``(s_base + j) * s_step`` so that S = 0 is exactly a cell edge, which puts
every line cell on exactly one side of the hinge. D cell edges sit at
``j * d_step``. The drop law integrated out of a state is a
``MixedDensity1D`` (D grid plus atoms) wrapped in a ``DropDistribution``.
"""

from __future__ import annotations

import csv
import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len, rfft
# the transforms scipy.fft.rfft/irfft run, called with the output passed in
from scipy.fft._pocketfft.pypocketfft import c2r as _c2r, r2c as _r2c

__all__ = [
    "Grid1D",
    "MixedDensity1D",
    "JointLattice",
    "JointState",
    "DropDistribution",
    "pool_threads",
    "map_blocks",
    "convolve_lines",
    "line_spectrum",
    "marginal_drop",
    "write_density_csv",
]

# Values below this are rejected as real negativity; anything in
# [-_NEG_REJECT, 0) is treated as arithmetic dust and clamped to zero.
_NEG_REJECT = 1e-12
# Direct summation below this output size, transform-based above.
_FFT_THRESHOLD = 4096
# Transform cells per block of lines on one thread (8 MB arrays), shared
# out among a pool's threads, so that the arrays in flight stay the same
# whatever the thread count. A line's result does not depend on the block
# it is transformed in, nor on the thread.
_FFT_BLOCK_CELLS = 1 << 20
# Pool threads at most: bounds the working sets the threads hold (the MC's
# vector sets, the transform blocks) whatever the host's CPU count. Only
# 2-CPU hosts have been measured.
_MAX_THREADS = 4


# ---------------------------------------------------------------------------
# 1D carriers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform cell-centered density: ``values[i]`` at ``lo + (i+1/2)*step``."""

    lo: float
    hi: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or len(vals) < 2:
            raise ValueError("Grid1D needs at least 2 cells")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.hi > self.lo):
            raise ValueError("Grid1D needs finite hi > lo")
        if not np.all(np.isfinite(vals)):
            raise ValueError("Grid1D values must be finite")
        worst = float(vals.min(initial=0.0))
        if worst < -_NEG_REJECT:
            raise ValueError(f"negative density {worst!r} below the clamping threshold")
        np.clip(vals, 0.0, None, out=vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def cells(self) -> int:
        return len(self.values)

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / self.cells

    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.cells) + 0.5) * self.step

    def edges(self) -> np.ndarray:
        return self.lo + np.arange(self.cells + 1) * self.step

    def mass(self) -> float:
        return float(self.values.sum() * self.step)


def _merge_atoms(locs, masses, tol: float):
    locs = np.asarray(locs, dtype=float)
    masses = np.asarray(masses, dtype=float)
    if locs.shape != masses.shape or locs.ndim != 1:
        raise ValueError("atom locations and masses must be matching 1D arrays")
    if len(locs) == 0:
        return locs, masses
    if not (np.all(np.isfinite(locs)) and np.all(np.isfinite(masses))):
        raise ValueError("atoms must be finite")
    if float(masses.min()) < 0.0:
        raise ValueError("atom masses must be nonnegative")
    keep = masses > 0.0
    locs, masses = locs[keep], masses[keep]
    if len(locs) == 0:
        return locs, masses
    order = np.argsort(locs, kind="stable")
    locs, masses = locs[order], masses[order]
    out_loc: list[float] = []
    out_mass: list[float] = []
    for x, m in zip(locs, masses):
        if out_loc and x - out_loc[-1] <= tol:
            total = out_mass[-1] + m
            # mass-weighted location keeps the mean exact under merging
            out_loc[-1] = (out_loc[-1] * out_mass[-1] + x * m) / total
            out_mass[-1] = total
        else:
            out_loc.append(x)
            out_mass.append(m)
    return np.asarray(out_loc), np.asarray(out_mass)


@dataclass(frozen=True, eq=False)
class MixedDensity1D:
    """Optional continuous grid plus exact atoms.

    Atoms closer than half a cell are merged on construction (weighted by
    mass); ``tail_mass`` records what a truncation dropped so the books
    stay auditable. Total mass may not exceed 1 + 1e-6.
    """

    grid: Grid1D | None = None
    atom_locs: np.ndarray = field(default_factory=lambda: np.empty(0))
    atom_masses: np.ndarray = field(default_factory=lambda: np.empty(0))
    tail_mass: float = 0.0

    def __post_init__(self):
        tol = 0.5 * self.grid.step if self.grid is not None else 0.0
        locs, masses = _merge_atoms(self.atom_locs, self.atom_masses, tol)
        locs.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "atom_locs", locs)
        object.__setattr__(self, "atom_masses", masses)
        if self.tail_mass < 0.0:
            raise ValueError("tail_mass must be nonnegative")
        total = self.total_mass()
        if total > 1.0 + 1e-6:
            raise ValueError(f"total mass {total!r} exceeds 1 beyond tolerance")

    def grid_mass(self) -> float:
        return self.grid.mass() if self.grid is not None else 0.0

    def atom_mass(self) -> float:
        return float(self.atom_masses.sum())

    def total_mass(self) -> float:
        return self.grid_mass() + self.atom_mass()

    def n_atoms(self) -> int:
        return len(self.atom_locs)


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def pool_threads(tasks: int | None = None) -> int:
    """Threads for a pool: one per CPU this process may use, but no more
    than _MAX_THREADS or, when given, the number of ``tasks``."""
    threads = min(_cores(), _MAX_THREADS)
    return threads if tasks is None else min(threads, tasks)


def map_blocks(fn, starts, threads: int, scratch) -> None:
    """Call ``fn(start, bufs)`` for every start, on ``threads`` threads.

    ``bufs`` is one of ``threads`` scratch sets, each made by ``scratch()``
    here on the calling thread; a call borrows a free set and puts it back.
    So no pool thread allocates: glibc gives each thread its own malloc
    arena, which would keep the thread's freed arrays resident by an amount
    that varies from run to run. With one thread the calls run in order on
    the calling thread and no pool starts; otherwise the pool is started
    here and joined on return, also when a call raises.
    """
    free = queue.SimpleQueue()
    for _ in range(threads):
        free.put(scratch())

    def call(start):
        bufs = free.get()
        try:
            fn(start, bufs)
        finally:
            free.put(bufs)

    if threads == 1:
        for start in starts:
            call(start)
        return
    with ThreadPoolExecutor(threads) as pool:
        for _ in pool.map(call, starts):
            pass


def line_spectrum(weights: np.ndarray, n_vals: int) -> np.ndarray:
    """Transform of ``weights`` sized for lines of ``n_vals`` cells.

    Computed once per kernel and handed to ``convolve_lines``, which then
    transforms only the lines.
    """
    return rfft(weights, next_fast_len(n_vals + len(weights) - 1, real=True))


def convolve_lines(vals: np.ndarray, weights: np.ndarray,
                   spectrum: np.ndarray | None = None) -> np.ndarray:
    """Full linear convolution of ``vals`` with ``weights`` along the last axis.

    ``vals`` is one line (1D) or a band of lines (2D, one per row). A single
    line with fewer than 4096 output cells is summed directly. Everything
    else is transformed as blocks of rows, reusing ``spectrum`` (from
    ``line_spectrum`` for lines of this length) when given: each block is
    zero-padded, transformed, multiplied by the spectrum, transformed back,
    copied into its rows of the output and clipped of its transform dust.
    A block holds at most _FFT_BLOCK_CELLS transform cells shared out among
    ``pool_threads()``, and the blocks run through ``map_blocks`` on at most
    one thread per block, so a band that fits one block runs on the calling
    thread. Every row comes out bitwise the same whatever the block or
    thread.
    """
    n_out = vals.shape[-1] + len(weights) - 1
    if vals.ndim == 1:
        if n_out < _FFT_THRESHOLD:
            return np.convolve(vals, weights)
        return convolve_lines(vals[np.newaxis], weights, spectrum)[0]
    n_rows, n_vals = vals.shape
    n_fft = next_fast_len(n_out, real=True)
    if spectrum is None:
        spectrum = line_spectrum(weights, n_vals)
    step = min(max(_FFT_BLOCK_CELLS // pool_threads() // n_fft, 1), n_rows)
    out = np.empty((n_rows, n_out))

    def scratch():
        # zero-padded lines, coefficients, inverse; pad columns stay zero
        return (np.zeros((step, n_fft)), np.empty((step, n_fft // 2 + 1), complex),
                np.empty((step, n_fft)))

    def block(a, bufs):
        padded, coef, inverse = bufs
        k = min(step, n_rows - a)
        padded[:k, :n_vals] = vals[a:a + k]
        _r2c(padded[:k], (1,), True, 0, coef[:k], 1)  # rfft(.., n_fft, axis=-1)
        coef[:k] *= spectrum
        _c2r(coef[:k], (1,), n_fft, False, 2, inverse[:k], 1)  # irfft(.., n_fft, axis=-1)
        rows = out[a:a + k]
        rows[...] = inverse[:k, :n_out]
        np.clip(rows, 0.0, None, out=rows)

    starts = range(0, n_rows, step)
    map_blocks(block, starts, pool_threads(len(starts)), scratch)
    return out


# ---------------------------------------------------------------------------
# joint state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JointLattice:
    """Shared integer-anchored lattice for one DP run.

    S edges at ``(s_base + j) * s_step`` for j = 0..s_cells (so S = 0 is an
    edge whenever s_base <= 0 <= s_base + s_cells), D edges at ``j * d_step``.
    ``stage_tail_budget`` records the per-stage truncation tolerance the
    domain was sized for.
    """

    s_base: int
    s_step: float
    s_cells: int
    d_step: float
    d_cells: int
    stage_tail_budget: float = 1e-6

    def __post_init__(self):
        if self.s_step <= 0 or self.d_step <= 0:
            raise ValueError("lattice steps must be > 0")
        if self.s_cells < 2 or self.d_cells < 2:
            raise ValueError("lattice needs at least 2 cells per axis")

    @property
    def s_lo(self) -> float:
        return self.s_base * self.s_step

    @property
    def s_hi(self) -> float:
        return (self.s_base + self.s_cells) * self.s_step

    @property
    def d_hi(self) -> float:
        return self.d_cells * self.d_step

    def s_centers(self) -> np.ndarray:
        return (self.s_base + np.arange(self.s_cells) + 0.5) * self.s_step

    def d_centers(self) -> np.ndarray:
        return (np.arange(self.d_cells) + 0.5) * self.d_step

    def s_grid(self, values: np.ndarray) -> Grid1D:
        return Grid1D(self.s_lo, self.s_hi, values)

    def d_grid(self, values: np.ndarray) -> Grid1D:
        return Grid1D(0.0, self.d_hi, values)


_EMPTY = np.empty(0)


@dataclass(frozen=True, eq=False)
class JointState:
    """Joint law of (through-flow, downstream maximal drop) at one stage.

    ``pc`` is the 2D density on its occupied band of D rows: row i of
    ``pc`` is lattice row ``pc_r0 + i``, every row spans all s_cells, and
    the rows outside the band hold no mass. ``line`` is the hinge line
    density over the S cells, its mass at D = max(0, slope * S). Each is
    None while it holds no mass. ``slope`` is the drop coefficient
    of the most recently applied segment. ``atom_s``, ``atom_d`` and
    ``atom_mass`` list the exact atoms; d = 0 needs s <= 0, since a
    positive flow through the latest segment makes a positive drop.
    ``lost_mass`` accumulates all logged truncation over the run so far.
    """

    stage: int
    slope: float
    lattice: JointLattice
    pc: np.ndarray | None = None
    pc_r0: int = 0
    line: np.ndarray | None = None
    atom_s: np.ndarray = field(default_factory=lambda: _EMPTY)
    atom_d: np.ndarray = field(default_factory=lambda: _EMPTY)
    atom_mass: np.ndarray = field(default_factory=lambda: _EMPTY)
    lost_mass: float = 0.0

    def __post_init__(self):
        if self.pc is not None:
            if (self.pc.ndim != 2 or self.pc.shape[1] != self.lattice.s_cells
                    or not 0 <= self.pc_r0 < self.pc_r0 + len(self.pc) <= self.lattice.d_cells):
                raise ValueError("pc band does not fit the lattice")
        if self.line is not None and self.line.shape != (self.lattice.s_cells,):
            raise ValueError("line shape does not match the lattice")
        for arr in (self.atom_s, self.atom_d, self.atom_mass):
            if len(arr) != len(self.atom_s):
                raise ValueError("atom arrays must have equal length")

    @classmethod
    def terminal(cls, lattice: JointLattice, stage: int) -> "JointState":
        """Exact double point mass at (S, D) = (0, 0): nothing downstream."""
        return cls(stage=stage, slope=0.0, lattice=lattice, atom_s=np.array([0.0]),
                   atom_d=np.array([0.0]), atom_mass=np.array([1.0]))

    def pc_mass(self) -> float:
        if self.pc is None:
            return 0.0
        return float(self.pc.sum()) * self.lattice.s_step * self.lattice.d_step

    def hinge_sides(self) -> tuple[Grid1D, Grid1D]:
        """The line cut at S = 0: (zero side on D = 0, diagonal on D = slope * S).

        Both span all S cells, with zeros on the other side of the hinge.
        """
        lat = self.lattice
        line = self.line if self.line is not None else np.zeros(lat.s_cells)
        neg = lat.s_centers() < 0.0
        return lat.s_grid(np.where(neg, line, 0.0)), lat.s_grid(np.where(neg, 0.0, line))

    def total_mass(self) -> float:
        zero, diag = self.hinge_sides()
        return self.pc_mass() + zero.mass() + diag.mass() + float(self.atom_mass.sum())

    def validate(self, mass_tol: float = 1e-4) -> None:
        """Check the atoms' support and the mass ledger; raises on violation."""
        if np.any(self.atom_d < 0.0) or np.any((self.atom_d == 0.0) & (self.atom_s > 0.0)):
            raise ValueError("atoms must sit at D > 0, or at D = 0 with S <= 0")
        gap = abs(self.total_mass() + self.lost_mass - 1.0)
        if gap > mass_tol:
            raise ValueError(f"mass ledger off by {gap!r}")


def marginal_drop(state: JointState) -> DropDistribution:
    """Integrate the through-flow out of a stage state.

    The zero side of the line collapses into the atom at D = 0, the
    diagonal side maps cell by cell through D = slope * S (conservative
    rebinning onto the D grid, exact for the piecewise-constant line
    density), and each atom stays an exact atom at its d.
    """
    lat = state.lattice
    vals = np.zeros(lat.d_cells)
    if state.pc is not None:
        vals[state.pc_r0:state.pc_r0 + len(state.pc)] += state.pc.sum(axis=1) * lat.s_step

    zero, diag = state.hinge_sides()
    if diag.values.any():
        src_edges = state.slope * diag.edges()
        cum = np.concatenate(([0.0], np.cumsum(diag.values) * diag.step))
        d_edges = np.arange(lat.d_cells + 1) * lat.d_step
        # clamp into [first, last] source edge; outside mass would have been
        # clipped during the shear already
        new_cum = np.interp(d_edges, src_edges, cum)
        vals += np.diff(new_cum) / lat.d_step
        top = float(cum[-1] - new_cum[-1])
        if top > 0.0:
            vals[-1] += top / lat.d_step  # guard: keep any top remainder

    density = MixedDensity1D(
        grid=lat.d_grid(vals),
        atom_locs=np.concatenate(([0.0], state.atom_d)),
        atom_masses=np.concatenate(([zero.mass()], state.atom_mass)),
        tail_mass=state.lost_mass,
    )
    return DropDistribution(density)


# ---------------------------------------------------------------------------
# final drop law
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DropDistribution:
    """Law of the maximal voltage drop: atom(s) plus a continuous density.

    Queries treat cell mass as uniform within its cell, so the CDF is
    piecewise linear between grid edges with jumps at atoms. With the
    default report-only normalization the total mass may fall short of one
    by the logged truncation; queries work on the raw masses.
    """

    density: MixedDensity1D

    def total_mass(self) -> float:
        return self.density.total_mass()

    def atom_at_zero(self) -> float:
        """Mass of the exact-zero drop (atoms within half a cell of zero)."""
        d = self.density
        tol = 0.5 * d.grid.step if d.grid is not None else 0.0
        if not len(d.atom_locs):
            return 0.0
        return float(d.atom_masses[np.abs(d.atom_locs) <= tol].sum())

    def _grid_cum(self):
        g = self.density.grid
        if g is None:
            return np.array([0.0, 0.0]), np.array([0.0, 0.0])
        return g.edges(), np.concatenate(([0.0], np.cumsum(g.values) * g.step))

    def _cdf(self, x, side: str):
        """Grid CDF plus the atoms at or below x ("right") or below x ("left")."""
        x = np.asarray(x, dtype=float)
        edges, cum = self._grid_cum()
        out = np.interp(x, edges, cum)
        d = self.density
        if len(d.atom_locs):
            idx = np.searchsorted(d.atom_locs, x, side=side)
            out = out + np.concatenate(([0.0], np.cumsum(d.atom_masses)))[idx]
        return out if out.ndim else float(out)

    def cdf(self, x):
        """P(D <= x), right-continuous, vectorized."""
        return self._cdf(x, "right")

    def cdf_left(self, x):
        """P(D < x): the left limit of the CDF."""
        return self._cdf(x, "left")

    def prob_exceed(self, x) -> float:
        """P(D > x) under the raw (possibly sub-unit) mass."""
        return float(self.total_mass() - self.cdf(x))

    def knots(self) -> np.ndarray:
        """Points where the CDF changes character; enough for sup-distance scans."""
        edges, _ = self._grid_cum()
        return np.unique(np.concatenate((edges, self.density.atom_locs)))

    def quantile(self, p: float) -> float:
        """Generalized inverse CDF. p above the total mass clamps to the top."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile level {p!r} outside [0, 1]")
        xs = self.knots()
        f_right = np.asarray(self.cdf(xs))
        f_left = np.asarray(self.cdf_left(xs))
        i = int(np.searchsorted(f_right, p, side="left"))
        if i >= len(xs):
            return float(xs[-1])
        if i == 0:
            return float(xs[0])
        if f_left[i] >= p:
            base = f_right[i - 1]
            span = f_left[i] - base
            if span <= 0.0:
                return float(xs[i - 1])
            frac = (p - base) / span
            return float(xs[i - 1] + frac * (xs[i] - xs[i - 1]))
        return float(xs[i])

    def mean_std(self) -> tuple[float, float]:
        """Mean and std of the raw mass (uniform-within-cell second moment)."""
        d = self.density
        mean = 0.0
        second = 0.0
        if d.grid is not None:
            c = d.grid.centers()
            m = d.grid.values * d.grid.step
            mean += float(np.dot(m, c))
            second += float(np.dot(m, c**2) + m.sum() * d.grid.step**2 / 12.0)
        if len(d.atom_locs):
            mean += float(np.dot(d.atom_masses, d.atom_locs))
            second += float(np.dot(d.atom_masses, d.atom_locs**2))
        return mean, math.sqrt(max(second - mean**2, 0.0))

    def renormalized(self) -> "DropDistribution":
        """Scale the raw masses up to total one (explicit opt-in policy)."""
        total = self.total_mass()
        if total <= 0.0:
            raise ValueError("cannot renormalize an empty distribution")
        d = self.density
        grid = None
        if d.grid is not None:
            grid = Grid1D(d.grid.lo, d.grid.hi, d.grid.values / total)
        return DropDistribution(MixedDensity1D(
            grid=grid,
            atom_locs=d.atom_locs.copy(),
            atom_masses=d.atom_masses / total,
            tail_mass=0.0,
        ))


def write_density_csv(target, obj) -> None:
    """Emit a MixedDensity1D or DropDistribution as x,density,atom_mass rows."""
    density = obj.density if isinstance(obj, DropDistribution) else obj
    own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
    fh = open(target, "w", newline="", encoding="utf-8") if own else target
    try:
        writer = csv.writer(fh)
        writer.writerow(["x", "density", "atom_mass"])
        if density.grid is not None:
            for x, v in zip(density.grid.centers(), density.grid.values):
                writer.writerow([repr(float(x)), repr(float(v)), "0"])
        for x, m in zip(density.atom_locs, density.atom_masses):
            writer.writerow([repr(float(x)), "0", repr(float(m))])
    finally:
        if own:
            fh.close()
