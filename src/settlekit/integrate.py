"""Pathwise fixed-step RK4 integration with settling detection.

One kernel, ``integrate_batch``, integrates every path from t = 0: a Monte
Carlo sweep is a batch of b rows and ``integrate_path`` is a batch of one
that keeps its states, so both entry points share the validation
(``check_run``), the absorption clamp, the blow-up and NaN policy and one
last-exit rule: the last node at which a row lies outside a ball whose
radius is given per node.
The kernel returns a ``BatchResult``, whose ``settle_times`` is the one
conversion from that last exit to a settling time, the first grid time after
which the row stays in the ball (NaN when the row is censored or blows up).
``Trajectory.settled`` and ``Trajectory.blowup`` are read off the times.

The realized disturbance is piecewise constant (zero-order hold on the noise
grid), so one integration step never straddles a noise jump: the step size h
must divide the noise grid step, and the held value for a step is the one in
force at the step's start.  Within each step the vector field is smooth and
classical RK4 applies at full order.  The kernel reads the held values from
an iterable of blocks of consecutive noise cells, taking the next block when
the step loop reaches it: a sweep's blocks are drawn as it advances, and
``integrate_path`` gives its whole sampled path as one block.
``integrate_batch`` alone reads a model's ``hold`` map: it applies it once
to each block as it takes the block, so a per-cell factor of the noise is
formed once per cell and row, not in each RK4 stage of each of the cell's m
steps, and it then hands ``rk4_step`` the model's ``field_fn``, which reads
the held values (``field`` for a model without ``hold``).  ``rk4_step`` is
the classical formula over whatever evaluator it is given.

Near the origin the cube-root gains make explicit schemes chatter with
amplitude about (h/2)^(3/2); once a row enters the absorption ball it is
clamped to exactly 0 and stays there (valid because drift and gain vanish at
the origin).  The config validator keeps the absorption radius above the
chatter floor.  A row whose state holds inf or exceeds the blow-up threshold
is a blow-up; NaN without inf is an evaluator fault and raises.  Absorbed
and blown-up rows leave the active set and are not integrated further.

The kernel marks every node j = 0 ... n_steps of the live rows by one rule,
in this order: the rows' norms; for j > 0, the blow-up and NaN test of the
step that led to the node (node 0 takes none, since no step led to it, so
a start above the threshold is stepped once before it can blow up);
absorption; the rows that left at the node set to 0; the ball exit; the
kept states; and the compaction of the live rows.  Then the kernel stops at
n_steps or once no row is live, or else takes the node's step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from . import defaults
from .errors import EvaluatorError
from .noise import NoisePath
from .systems import ConditionReport, SystemModel


@dataclass(frozen=True)
class IntegratorConfig:
    h: float = defaults.STEP
    horizon: float = defaults.HORIZON
    eps_settle: float = defaults.EPS_SETTLE
    eps_absorb: Optional[float] = None   # None -> max(1e-6, (h/2)^(3/2))
    absorb_at_origin: bool = True

    def __post_init__(self):
        # each test is written so that NaN fails it
        for name, value in (("step h", self.h), ("eps_settle", self.eps_settle)):
            if not value > 0:
                raise ValueError(f"{name} must be positive")
            if not value < np.inf:
                raise ValueError(f"{name} must be finite")
        floor = chatter_floor(self.h)
        if self.eps_absorb is None:
            object.__setattr__(self, "eps_absorb", floor)
        elif not self.eps_absorb >= floor:
            raise ValueError(
                f"eps_absorb={self.eps_absorb:g} sits below the chatter floor "
                f"{floor:g} for h={self.h:g}; absorption would never trigger")
        if not self.eps_absorb < self.eps_settle:
            raise ValueError("eps_absorb must be smaller than eps_settle")


def chatter_floor(h: float) -> float:
    """Smallest safe absorption radius for cube-root drifts at step h."""
    return max(defaults.EPS_ABSORB_MIN, (0.5 * h) ** 1.5)


@dataclass(frozen=True)
class Trajectory:
    """One integrated sample path with settling metadata; node i is at
    time i h."""

    h: float
    states: np.ndarray            # (n_points, n)
    seed: int
    settle_time: Optional[float]  # None when censored or blown up
    blowup_time: Optional[float] = None
    absorb_index: Optional[int] = None

    @property
    def settled(self) -> bool:
        return self.settle_time is not None

    @property
    def blowup(self) -> bool:
        return self.blowup_time is not None

    def times(self) -> np.ndarray:
        return self.h * np.arange(self.states.shape[0])

    @property
    def n(self) -> int:
        return self.states.shape[1]


def rk4_step(field: Callable, x: np.ndarray, t: float, h: float,
             xi: np.ndarray) -> np.ndarray:
    """One classical RK4 step of the evaluator ``field(x, t, xi)`` with the
    value ``xi`` held across the step.

    Broadcasts over leading batch axes of x / xi.
    """
    k1 = field(x, t, xi)
    k2 = field(x + (0.5 * h) * k1, t + 0.5 * h, xi)
    k3 = field(x + (0.5 * h) * k2, t + 0.5 * h, xi)
    k4 = field(x + h * k3, t + h, xi)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def steps_per_cell(h: float, h_noise: float) -> int:
    """Integer ratio h_noise / h; raises if h does not divide h_noise or
    the ratio overflows."""
    m = h_noise / h
    if np.isinf(m):
        raise ValueError(f"noise grid step h_noise={h_noise:g} is inf steps of "
                         f"h={h:g}, more than an array can index")
    m_int = np.rint(m)      # NaN stays NaN and fails the test below
    if not (m_int >= 1 and abs(m - m_int) <= 1e-9 * max(1.0, m)):
        raise ValueError(
            f"integrator step h={h:g} must be an integer divisor of the "
            f"noise grid step h_noise={h_noise:g}")
    return int(m_int)


def check_run(model: SystemModel, x0, dimension: int, h_noise: float,
              cfg: IntegratorConfig):
    """Validate one run's inputs; return (x0 as floats, m, n_steps).

    x0 must have the model's shape, the noise dimension must be the model's
    l, h must divide h_noise (m steps per noise cell) and the horizon must
    be a positive integer multiple n_steps >= 1 of h whose n_steps + 1 nodes
    a numpy array can index.  This is the one check of the run grid.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({model.n},)")
    if dimension != model.l:
        raise ValueError(f"noise dimension {dimension} != model l={model.l}")
    m = steps_per_cell(cfg.h, h_noise)
    horizon, h = cfg.horizon, cfg.h
    multiple = f"horizon = {horizon:g} must be a positive integer multiple of h={h:g}"
    if not horizon > 0:         # also NaN and -inf
        raise ValueError(multiple)
    if not horizon / h < np.iinfo(np.intp).max:      # also inf
        raise ValueError(f"horizon = {horizon:g} is {horizon / h:g} steps of "
                         f"h={h:g}, more than an array can index")
    n_steps = int(round(horizon / h))
    if abs(n_steps * h - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(multiple)
    if n_steps < 1:         # within the tolerance of 0 steps
        raise ValueError(f"integrator.horizon = {horizon:g} is less than one "
                         f"step of h={h:g}; a run takes at least one step")
    return x0, m, n_steps


class BatchResult(NamedTuple):
    """What ``integrate_batch`` found for b rows over n_steps steps.

    ``last_out`` (b,): the last node at which the row lay outside the ball
    (-1 if none; n_steps for a blown row).  ``blow_step`` and
    ``absorb_step`` (b,): the node at which the row blew up or was absorbed
    (-1 if never).  ``n_out`` (n_steps+1,): the rows outside the ball at
    each node.  ``states`` (n_steps+1, b, n): the states when kept, else
    None.
    """

    last_out: np.ndarray
    blow_step: np.ndarray
    absorb_step: np.ndarray
    n_out: np.ndarray
    states: Optional[np.ndarray]

    def settle_times(self, h: float) -> np.ndarray:
        """Per-row time from which the row stays inside the ball: the node
        after its last exit, NaN when it is still outside at the last node
        (censored or blown up)."""
        return np.where(self.last_out < self.n_out.size - 1,
                        (self.last_out + 1) * h, np.nan)

    @classmethod
    def join(cls, parts) -> "BatchResult":
        """The results of batches of consecutive rows as one batch's: the
        rows' arrays joined in order and the counts per node summed; no
        states are kept."""
        last_out, blow_step, absorb_step, n_out, _ = zip(*parts)
        return cls(np.concatenate(last_out), np.concatenate(blow_step),
                   np.concatenate(absorb_step), sum(n_out), None)


# the loop finds inf and NaN itself, so numpy's warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def integrate_batch(model: SystemModel, x0: np.ndarray, blocks: Iterable,
                    n_steps: int, m: int, cfg: IntegratorConfig,
                    radius: Optional[np.ndarray] = None,
                    keep_states: bool = False) -> BatchResult:
    """Integrate b paths from x0 at t = 0 over n_steps steps of h, m to a
    noise cell, under held noise values read from ``blocks``, arrays
    (b, k, l) of the consecutive noise cells 0, 1, ...

    The first block is taken up front and each further one when the step
    loop reaches its first cell, so no block past the last live step is
    drawn.  Each node j = 0 ... n_steps is marked by the one rule of the
    module note: the norms, the blow-up and NaN test (j > 0 only: no step
    led to node 0), absorption, the leaving rows set to 0, the ball exit,
    the kept states and the compaction, before the node's step is taken.
    Only live rows are stepped: a row that enters the absorption
    ball or blows up leaves the active set and is held at exactly 0, and the
    sweep ends once no row is live.  ``radius`` (n_steps+1,) is the ball
    tested at each node, ``eps_settle`` at every node by default; a blown
    row counts as outside it from its blow-up node on.  The states are kept
    when ``keep_states`` is set.  A source that ends before a live step's
    cell, or a block that is not (b, k, l), raises ValueError.
    """
    if radius is None:
        radius = np.broadcast_to(cfg.eps_settle, n_steps + 1)
    blocks = iter(blocks)
    block = _next_block(blocks, model.hold, 0)
    # the held blocks are read by field_fn; field would apply hold again
    field = model.field if model.hold is None else model.field_fn
    b, start = block.shape[0], 0            # start: the block's first cell
    h, eps_absorb = cfg.h, cfg.eps_absorb
    rows, x = np.arange(b), np.tile(x0, (b, 1))
    last_out, blow_step, absorb_step = np.full((3, b), -1)
    n_out = np.zeros(n_steps + 1, dtype=int)
    states = np.zeros((n_steps + 1, b, x0.shape[0])) if keep_states else None
    for j in range(n_steps + 1):
        # node j, at time j h, marked on the live rows' states x
        nrm = np.sqrt(np.add.reduce(x * x, 1))
        gone = None
        # no step led to node 0, so it takes no blow-up test; |x| bounds
        # every component, and NaN or inf anywhere fails the test
        if j and not nrm.max() <= defaults.BLOWUP_THRESHOLD:
            gone = ~(np.abs(x).max(1) <= defaults.BLOWUP_THRESHOLD)
            nan = np.isnan(x).any(1) & ~np.isinf(x).any(1)
            if nan.any():
                r = int(np.argmax(nan))
                raise EvaluatorError(f"evaluator returned NaN at t={t + h:g}",
                                     x=x_prev[r].copy(), t=t)
            blow_step[rows[gone]] = j
        # min() is NaN when a blown row holds NaN; nrm <= eps is exact
        if cfg.absorb_at_origin and not nrm.min() > eps_absorb:
            hit = nrm <= eps_absorb
            absorb_step[rows[hit]] = j
            gone = hit if gone is None else gone | hit
        if gone is not None:
            nrm[gone] = 0.0
            x[gone] = 0.0
        outside = rows[nrm > radius[j]]
        last_out[outside] = j
        n_out[j] = outside.size
        if keep_states:
            states[j, rows] = x
        if gone is not None:
            rows, x = rows[~gone], x[~gone]
        if j == n_steps or not rows.size:
            break
        t = j * h
        if j % m == 0 or xi.shape[0] != rows.size:
            c = j // m - start
            if c == block.shape[1]:
                start, c = start + c, 0
                block = _next_block(blocks, model.hold, start, b)
            xi = block[rows, c]
        x_prev, x = x, rk4_step(field, x, t, h, xi)
    blown = blow_step >= 0
    last_out[blown] = n_steps
    n_out += np.cumsum(np.bincount(blow_step[blown], minlength=n_steps + 1))
    return BatchResult(last_out, blow_step, absorb_step, n_out, states)


def _next_block(blocks, hold: Optional[Callable], cell: int,
                b: Optional[int] = None) -> np.ndarray:
    """The next block of ``blocks``, the one holding noise cell ``cell``
    first, mapped by ``hold`` when given; raise ValueError if the source has
    ended or the block is not a 3-D array with the batch's b rows (any b for
    the first block)."""
    block = next(blocks, None)
    if np.ndim(block) != 3 or b not in (None, block.shape[0]):
        got = "the blocks ended" if block is None else f"got {np.shape(block)}"
        raise ValueError(f"noise cell {cell} needs a (b, k, l) block with the "
                         f"batch's b rows; {got}")
    return block if hold is None else hold(block)


def integrate_path(model: SystemModel, path: NoisePath, x0,
                   cfg: IntegratorConfig) -> Trajectory:
    """Integrate xdot = f + g xi from t = 0 along one realized noise path,
    which must hold every noise cell the run's steps read (else ValueError).

    A batch of one through ``integrate_batch``: the state is clamped to
    exactly 0 once it enters the absorption ball (and then stays 0);
    integration stops with a blow-up marker if any component is inf or
    exceeds the blow-up threshold.  NaN from an evaluator at a finite state
    raises EvaluatorError.
    """
    x0, m, n_steps = check_run(model, x0, path.dimension, path.h, cfg)
    last = (n_steps - 1) // m               # the last cell a step reads
    if path.values.shape[0] <= last:
        raise ValueError(f"noise path has {path.values.shape[0]} points; the "
                         f"run's {n_steps} steps read cells 0..{last}")
    res = integrate_batch(model, x0, [path.values[None]], n_steps, m, cfg,
                          keep_states=True)
    settle = float(res.settle_times(cfg.h)[0])
    blow, absorb = int(res.blow_step[0]), int(res.absorb_step[0])
    return Trajectory(
        h=cfg.h, states=res.states[:blow if blow >= 0 else None, 0],
        seed=path.seed, settle_time=None if np.isnan(settle) else settle,
        # (blow - 1) h + h, not blow h: the bits of the kernel's t + h
        blowup_time=(blow - 1) * cfg.h + cfg.h if blow >= 0 else None,
        absorb_index=absorb if absorb >= 0 else None)


def check_integral_form(traj: Trajectory, model: SystemModel, path: NoisePath,
                        tol: float) -> ConditionReport:
    """Reconstruct x(t) = x(0) + int f + int g xi from the stored states and
    compare at every grid point (up to absorption, which intentionally clamps
    the state off the integral identity).

    The drift integral is scipy's cumulative Simpson across the whole grid;
    the noise integral factors the held value out of each noise cell and
    applies the same rule, restarted in each cell, to the smooth gain factor
    (scipy takes the trapezoid on a 2-node segment).  Pass iff the largest
    residual is at most tol * (1 + max |x|).
    """
    if traj.blowup:
        raise ValueError("cannot check a blown-up trajectory")
    # imported on use: no CLI command needs scipy
    from scipy.integrate import cumulative_simpson
    n_cmp = traj.states.shape[0] if traj.absorb_index is None \
        else max(traj.absorb_index, 1)
    states = traj.states[:n_cmp]
    times = traj.times()[:n_cmp]
    m = steps_per_cell(traj.h, path.h)

    f_vals = np.asarray(model.f(states, times[:, None]))
    drift_part = cumulative_simpson(f_vals, dx=traj.h, axis=0, initial=0.0)

    g_vals = np.asarray(model.g(states, times[:, None]))
    noise_part = np.zeros_like(states)
    acc = np.zeros(model.n)
    for c in range((n_cmp - 2) // m + 1):
        lo = c * m
        hi = min(lo + m, n_cmp - 1)
        iseg = cumulative_simpson(g_vals[lo:hi + 1], dx=traj.h, axis=0,
                                  initial=0.0)
        contrib = np.einsum("kij,j->ki", iseg, path.values[c])
        noise_part[lo:hi + 1] = acc + contrib
        acc = acc + contrib[-1]

    residual = states - (states[0] + drift_part + noise_part)
    max_resid = float(np.max(np.abs(residual)))
    scale = 1.0 + float(np.max(np.abs(states)))
    worst_idx = int(np.argmax(np.max(np.abs(residual), axis=1)))
    margin = tol * scale - max_resid
    return ConditionReport(n_samples=n_cmp, worst_margin=margin,
                           violations=((float(times[worst_idx]), max_resid),),
                           tolerance=0.0)


def uniqueness_probe(model: SystemModel, path: NoisePath, x0, delta0: float,
                     cfg: IntegratorConfig) -> float:
    """Max divergence between trajectories from x0 and x0 + delta0*e1 on the
    same noise path (0 exactly when delta0 = 0, by determinism)."""
    if delta0 < 0:
        raise ValueError("delta0 must be nonnegative")
    x0 = np.asarray(x0, dtype=float)
    xb = x0.copy()
    xb[0] += delta0
    ta = integrate_path(model, path, x0, cfg)
    tb = integrate_path(model, path, xb, cfg)
    n = min(ta.states.shape[0], tb.states.shape[0])
    gap = np.linalg.norm(ta.states[:n] - tb.states[:n], axis=1)
    return float(np.max(gap))
