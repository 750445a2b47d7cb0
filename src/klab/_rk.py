"""Embedded Dormand-Prince 5(4) driver with normwise error control.

Local error per step is controlled against ``abs_tol + rel_tol * |y|`` with
``|y|`` the Euclidean norm of the state, so tracking stays purely relative
while the solution decays through hundreds of decades (the regime every decay
measurement lives in).  A state or batch member whose norm leaves
``[1e-100, 1e100]`` is first scaled by the exact power of two that brings
its peak near 1, so a state below 1e-154 does not square to zero; the
scaling changes no ratio.  A shared clock scales all or none of its members.
By default steps are clipped to land exactly on the requested sample grid,
so sampled values carry full integration accuracy.  With
``land_on_samples=False`` the steps follow the error control alone and the
solve returns the state at every step end instead of samples: the pair's
own continuous extension is a quartic, one order less accurate than the
step, so a caller that needs values between steps builds them from what it
knows of its flow.

The driver steps clocks.  A clock owns rows of the state and keeps their
time, step size, next stop, accept/reject decision, step cap and
``StepStats``; every attempt computes the seven stages and error estimates
of all rows in one set of array operations.

- A state of shape ``(d,)`` is a single system: one clock over one row,
  with exactly the unbatched arithmetic.
- A state of shape ``(B, d)`` is by default a batch of ``B`` independent
  members on one shared clock: one time grid and one step sequence.  Each
  member's error is its own norm over the last axis, measured against
  ``abs_tol + rel_tol * |y_i|``; a step is accepted only when every member's
  ratio is at most 1, and the step-size controller follows the largest
  ratio.  No member's accuracy contract is loosened by its neighbours,
  however far apart their magnitudes are; members merely take the steps the
  most demanding one needs.
- With ``own_clocks=True`` each of the ``B`` members has its own clock and
  takes exactly the steps, and produces exactly the bits, of its solo solve.

Own clocks reproduce a solo solve bit for bit under two rules, which a
right-hand side for them must keep too.  Every per-member scalar (times, step
sizes, ratios and above all every ``**``) is a Python float: numpy's vector
power may use another ``pow`` than the C library's (SIMD math libraries
differ from it in the last bit in a few percent of calls).  And every
per-member dot is the stacked ``(B, 1, d) @ (B, d, 1)`` matmul, which takes
the same BLAS dot as a 1-D state; a plain ``(B, d) @ (d,)`` product sums in
another order in about half the rows.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["BatchStats", "IntegrationError", "StepStats", "solve_to_grid"]

# Attempted steps a clock may take before the solve fails.
_MAX_STEPS = 10_000_000

# A step cap: ``(t, y) -> (cap, y)`` (see ``solve_to_grid``).
_CapFn = Callable[[float, np.ndarray], tuple[float, np.ndarray]]

# Dormand & Prince coefficients (the classic RK45 pair, FSAL form).  The
# stage and error weights only ever multiply arrays, and as 0-d arrays they
# do so about a third faster than as Python floats (numpy need not convert a
# Python scalar), with the same IEEE products.  The nodes ``_C*`` advance
# times, which stay Python floats.
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = np.array(1.0 / 5.0)
_A31, _A32 = map(np.array, (3.0 / 40.0, 9.0 / 40.0))
_A41, _A42, _A43 = map(np.array, (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0))
_A51, _A52, _A53, _A54 = map(np.array, (
    19372.0 / 6561.0,
    -25360.0 / 2187.0,
    64448.0 / 6561.0,
    -212.0 / 729.0,
))
_A61, _A62, _A63, _A64, _A65 = map(np.array, (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
))
_B1, _B3, _B4, _B5, _B6 = map(np.array, (
    35.0 / 384.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
))
# Difference between the 5th- and embedded 4th-order weights.
_E1, _E3, _E4, _E5, _E6, _E7 = map(np.array, (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
))

_MAX_GROWTH = 5.0
_MIN_SHRINK = 0.2
_SAFETY = 0.9
# A state whose norm lies in this window has its error norms taken unscaled
# (see ``_unscaled_ratio``).
_SAFE_NORM_LO = 1e-100
_SAFE_NORM_HI = 1e100


class IntegrationError(RuntimeError):
    """Integration could not continue (step underflow, budget, or nonfinite state).

    ``member`` is the index of the failing member of an own-clock batch, else
    ``None``.
    """

    def __init__(self, message: str, member: int | None = None) -> None:
        super().__init__(message)
        self.member = member


@dataclass(frozen=True)
class StepStats:
    """What one solve did; ``h_min``/``h_max`` range over accepted steps."""

    accepted: int
    rejected: int
    rhs_evals: int
    h_min: float
    h_max: float


@dataclass(frozen=True)
class BatchStats:
    """What an own-clock batch did: each member's ``StepStats`` as its solo
    solve reports them, and the steps summed over the members."""

    members: tuple[StepStats, ...]

    @property
    def accepted(self) -> int:
        return sum(s.accepted for s in self.members)

    @property
    def rejected(self) -> int:
        return sum(s.rejected for s in self.members)


def _norm(x: np.ndarray) -> np.ndarray:
    # Euclidean norm over the last axis.  Each member's norm is the same BLAS
    # dot as the norm of a 1-D state (``norm(x, axis=-1)`` sums in another
    # order), so a batch member reproduces the unbatched run bit for bit.
    if x.ndim == 1:
        return math.sqrt(x @ x)
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def _member_scale(y: np.ndarray) -> np.ndarray:
    # Per member (the one system of a 1-D state), the power of two bringing
    # its largest component near 1.  Scaling by it is exact, so it changes no
    # ratio, but a member far below its neighbours (or below 1e-154) no
    # longer squares to zero or to a subnormal in its norm.
    _, exponent = np.frexp(np.max(np.abs(y), axis=-1, keepdims=True))
    return np.ldexp(1.0, np.clip(-exponent, -1022, 1022))


def _member_ratios(
    err_vec: np.ndarray, y: np.ndarray, y_new: np.ndarray, rel_tol: float, abs_tol: float
) -> np.ndarray:
    """Each member's error over its tolerance, from power-of-two scaled norms."""
    s = _member_scale(y)
    scale = abs_tol * s[..., 0] + rel_tol * np.maximum(_norm(s * y), _norm(s * y_new))
    with np.errstate(divide="ignore", invalid="ignore"):
        return _norm(s * err_vec) / scale


def _unscaled_ratio(y_norm, new_norm, err_norm, rel_tol: float, abs_tol: float):
    """Error over tolerance from unscaled norms (one member's floats or each
    member's arrays), or ``None`` when a ``|y|`` leaves the safe window: inside
    it the squares that decide the norms are normal numbers, where the
    power-of-two scaling of ``_member_ratios`` would change no bit."""
    if isinstance(y_norm, float):
        inside, peak = _SAFE_NORM_LO < y_norm < _SAFE_NORM_HI, max(y_norm, new_norm)
    else:
        inside = _SAFE_NORM_LO < y_norm.min() and y_norm.max() < _SAFE_NORM_HI
        peak = np.maximum(y_norm, new_norm)
    return err_norm / (abs_tol + rel_tol * peak) if inside else None


def _own_ratios(
    err_vec: np.ndarray, y: np.ndarray, y_new: np.ndarray, rel_tol: float, abs_tol: float
) -> list[float]:
    """Each member's ``_error_ratio`` as its single system computes it."""
    members = len(y)
    # squares past the largest double make a norm inf, which leaves the safe
    # window, so the scaled norms decide
    with np.errstate(over="ignore"):
        norms = _norm(np.concatenate((y, y_new, err_vec))).tolist()
    ratios = []
    scaled = None
    for i in range(members):
        new_norm = norms[members + i]
        # a finite norm has finite components; an infinite one may be overflow
        if not math.isfinite(new_norm) and not np.all(np.isfinite(y_new[i])):
            ratios.append(math.inf)
            continue
        ratio = _unscaled_ratio(norms[i], new_norm, norms[2 * members + i], rel_tol, abs_tol)
        if ratio is None:
            if scaled is None:
                scaled = _member_ratios(err_vec, y, y_new, rel_tol, abs_tol).tolist()
            ratio = scaled[i]
        ratios.append(ratio if math.isfinite(ratio) else math.inf)
    return ratios


def _error_ratio(
    err_vec: np.ndarray, y: np.ndarray, y_new: np.ndarray, rel_tol: float, abs_tol: float
) -> float:
    """Largest member error over its tolerance; ``inf`` when not finite, and
    when a member's ``y_new`` has a non-finite component."""
    # squares past the largest double make a norm inf, which leaves the safe
    # window, so the scaled norms decide
    if y.ndim == 1:
        with np.errstate(over="ignore"):
            y_norm, new_norm, err_norm = _norm(y), _norm(y_new), _norm(err_vec)
        if not math.isfinite(new_norm) and not np.all(np.isfinite(y_new)):
            return math.inf
        ratio = _unscaled_ratio(y_norm, new_norm, err_norm, rel_tol, abs_tol)
    else:
        with np.errstate(over="ignore"):
            norms = _norm(np.concatenate((y, y_new, err_vec))).reshape(3, -1)
        # a non-finite component makes its member's norm non-finite too
        if not math.isfinite(norms[1].max()) and not np.all(np.isfinite(y_new)):
            return math.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = _unscaled_ratio(*norms, rel_tol, abs_tol)
        ratio = None if ratio is None else ratio.max()
    if ratio is None:
        ratio = _member_ratios(err_vec, y, y_new, rel_tol, abs_tol).max()
    return float(ratio) if math.isfinite(ratio) else math.inf


class _Clock:
    """One clock's step control: its rows, time, step size, next stop and counts.

    ``member`` is ``i`` for member ``i`` of an own-clock batch and ``None``
    for the one clock of a single system or shared batch; ``row`` indexes the
    clock's rows in the state accordingly (``i`` or ``...``) and ``out`` is
    its sample array, or its list of step-end states when steps do not land
    on samples.  ``h_try``, ``target`` and ``hits`` describe the attempt in
    flight; a clock that has reached its last stop attempts steps of length 0.
    """

    __slots__ = (
        "member", "row", "out", "cap_fn", "t", "h", "j", "accepted", "rejected",
        "replacements", "h_min", "h_max", "just_rejected", "h_try", "target", "hits",
    )

    def __init__(self, member: int | None, out, cap_fn, t: float, h: float) -> None:
        self.member = member
        self.row = ... if member is None else member
        self.out = out
        self.cap_fn = cap_fn
        self.t = t
        self.h = h
        self.j = 1
        self.accepted = 0
        self.rejected = 0
        self.replacements = 0
        self.h_min = math.inf
        self.h_max = 0.0
        self.just_rejected = False
        self.h_try = 0.0
        self.target = t
        self.hits = False

    def stats(self) -> StepStats:
        attempts = self.accepted + self.rejected
        rhs_evals = 1 + 6 * attempts + self.replacements
        return StepStats(self.accepted, self.rejected, rhs_evals, self.h_min, self.h_max)


def solve_to_grid(
    f: Callable[[float, np.ndarray], np.ndarray],
    y0,
    times,
    *,
    rel_tol: float,
    abs_tol: float,
    step_cap_fn: _CapFn | Sequence[_CapFn] | None = None,
    land_on_samples: bool = True,
    own_clocks: bool = False,
) -> tuple[np.ndarray, np.ndarray, StepStats | BatchStats]:
    """Integrate ``y' = f(t, y)`` from ``times[0]`` and sample it on the grid ``times``.

    Returns ``(Y, T, stats)`` where ``Y[i]`` is the state at ``T[i]``: the
    grid ``times`` itself, or with ``land_on_samples=False`` the ends of the
    accepted steps, from ``times[0]`` through ``times[-1]``.

    ``y0`` of shape ``(d,)`` is one system; ``(B, d)`` is a batch of ``B``
    independent members (``Y`` then has shape ``(n, B, d)``), each held to
    its own error norm on one shared clock (see the module docstring).  ``f``
    receives and returns the whole state.

    ``own_clocks=True`` gives each member of a ``(B, d)`` batch its own clock.
    ``f`` then receives the members' times as a list of Python floats, ``Y`` has
    shape ``(B, n, d)`` (member ``i``'s samples are ``Y[i]``), ``stats`` is a
    :class:`BatchStats` and an :class:`IntegrationError` names the failing
    member.  A member that has reached ``times[-1]`` rides along with a step
    of length 0 until the last one has.

    ``step_cap_fn(t, y)`` returns ``(cap, y)``: a state-dependent step
    ceiling (used to resolve the fastest oscillation of hyperbolic runs) and
    the state to continue from.  That is ``y`` itself, or a replacement the
    caller's flow treats as the same solution (the hyperbolic flow zeroes
    modes that no longer carry energy); the driver then evaluates ``f``
    afresh there, one more call counted in ``rhs_evals``.  With own clocks it
    is a sequence of one such function per member, each called with its
    member's time and row.

    ``land_on_samples`` (the default) clips every step to the next grid
    time; ``False`` lets the error control alone set the steps, clips only
    the last one to ``times[-1]`` and returns every step end (see the module
    docstring).  It takes a single system or a shared batch, not own clocks.
    """
    grid = np.asarray(times, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("times must contain at least two points")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("times must be strictly increasing")

    y = np.array(y0, dtype=float)
    if y.ndim not in (1, 2) or y.size == 0:
        raise ValueError("initial state must have shape (d,) or (B, d)")
    if own_clocks and y.ndim != 2:
        raise ValueError("own clocks need a (B, d) batch")
    if own_clocks and not land_on_samples:
        raise ValueError("own clocks land on the samples")
    if not np.all(np.isfinite(y)):
        raise ValueError("initial state must be finite")
    # the times a clock must land on: every sample, or the span's two ends
    stops = grid if land_on_samples else grid[[0, -1]]
    n = stops.size
    t0 = float(grid[0])
    max_steps = _MAX_STEPS
    if own_clocks:
        members = y.shape[0]
        cap_fns = [None] * members if step_cap_fn is None else list(step_cap_fn)
        if len(cap_fns) != members:
            raise ValueError("own clocks need one step cap function per member")
        out = np.empty((members, n, y.shape[1]))
        out[:, 0] = y
        t_now = [t0] * members
    elif land_on_samples:
        out = np.empty((n,) + y.shape)
        out[0] = y
        t_now = t0
    else:
        out, step_ends = [y], [t0]
        t_now = t0

    k1 = np.asarray(f(t_now, y), dtype=float)
    finite = np.isfinite(k1).all(axis=-1)
    if not np.all(finite):
        member = int(np.argmin(finite)) if own_clocks else None
        raise IntegrationError(f"right-hand side not finite at t={t0:.6g}", member)

    # First trial step: crude but safe; the controller takes over immediately.
    # A shared clock starts from its most cautious member.
    unit = _member_scale(y)
    y_norm = _norm(unit * y)
    f_norm = _norm(unit * k1)
    moving = (y_norm > 0.0) & (f_norm > 0.0)
    trial = np.where(
        moving, 0.01 * y_norm / np.where(moving, f_norm, 1.0), 1e-6 * (grid[-1] - grid[0])
    )
    first = [min(float(h), float(stops[1] - grid[0])) for h in np.ravel(trial)]
    if own_clocks:
        clocks = [_Clock(i, out[i], cap_fns[i], t0, first[i]) for i in range(members)]
    else:
        clocks = [_Clock(None, out, step_cap_fn, t0, min(first))]

    live = clocks
    while live:
        replaced = []
        for c in live:
            if c.accepted + c.rejected >= max_steps:
                raise IntegrationError(
                    f"step budget {max_steps} exceeded at t={c.t:.6g} (h={c.h:.3g})", c.member
                )
            cap = math.inf
            if c.cap_fn is not None:
                state = y[c.row]
                cap, y_cap = c.cap_fn(c.t, state)
                if y_cap is not state:
                    replaced.append((c, y_cap))
            target = float(stops[c.j])
            remaining = target - c.t
            h_try = min(c.h, cap, remaining)
            c.hits = h_try >= remaining * (1.0 - 1e-12)
            if c.hits:
                h_try = remaining
            if h_try < 1e-14 * max(1.0, abs(c.t)):
                raise IntegrationError(
                    f"step size underflow at t={c.t:.6g} (h={h_try:.3g}): "
                    "problem too stiff for the explicit step budget",
                    c.member,
                )
            c.target = target
            c.h_try = h_try

        # the stage times, per member in Python floats
        if own_clocks:
            t = [c.t for c in clocks]
            steps = [c.h_try for c in clocks]
            t2, t3, t4, t5 = ([s + a * dh for s, dh in zip(t, steps)] for a in (_C2, _C3, _C4, _C5))
            t6 = [s + dh for s, dh in zip(t, steps)]
            h = np.empty(y.shape)  # full rows multiply faster than a broadcast column
            h[...] = np.array(steps)[:, None]
        else:
            t = clocks[0].t
            h = clocks[0].h_try
            t2, t3, t4, t5, t6 = t + _C2 * h, t + _C3 * h, t + _C4 * h, t + _C5 * h, t + h
        if replaced:
            y = y.copy()
            for c, y_cap in replaced:
                y[c.row] = y_cap
            fresh = np.asarray(f(t, y), dtype=float)
            k1 = k1.copy()
            for c, _ in replaced:
                k1[c.row] = fresh[c.row]
                c.replacements += 1

        k2 = f(t2, y + h * (_A21 * k1))
        k3 = f(t3, y + h * (_A31 * k1 + _A32 * k2))
        k4 = f(t4, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = f(t5, y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
        k6 = f(t6, y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
        y_new = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        k7 = f(t6, y_new)

        err_vec = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
        if own_clocks:
            ratios = _own_ratios(err_vec, y, y_new, rel_tol, abs_tol)
        else:
            ratios = [_error_ratio(err_vec, y, y_new, rel_tol, abs_tol)]

        accepted = []
        for c in live:
            ratio = ratios[c.member or 0]
            if ratio <= 1.0:
                accepted.append(c)
                h_try = c.h_try
                c.accepted += 1
                c.h_min = min(c.h_min, h_try)
                c.h_max = max(c.h_max, h_try)
                c.t = c.target if c.hits else c.t + h_try
                if not land_on_samples:
                    c.out.append(y_new)
                    step_ends.append(c.t)
                elif c.hits:
                    c.out[c.j] = y_new[c.row]
                if c.hits:
                    c.j += 1
                factor = _MAX_GROWTH if ratio == 0.0 else _SAFETY * ratio ** (-0.2)
                if c.just_rejected:
                    factor = min(factor, 1.0)
                c.just_rejected = False
                c.h = h_try * min(_MAX_GROWTH, max(_MIN_SHRINK, factor))
            else:
                c.rejected += 1
                c.just_rejected = True
                if ratio == math.inf:
                    factor = _MIN_SHRINK
                else:
                    factor = max(_MIN_SHRINK, min(1.0, _SAFETY * ratio ** (-0.2)))
                c.h = c.h_try * factor

        if len(accepted) == len(live):
            # finished clocks took steps of length 0, and their samples are out
            y, k1 = y_new, k7
        elif accepted:
            rows = [c.row for c in accepted]
            y = y.copy()
            y[rows] = y_new[rows]
            k1 = k1.copy()
            k1[rows] = k7[rows]
        done = [c for c in live if c.j >= n]
        if done:
            for c in done:
                c.h_try = 0.0
            live = [c for c in live if c.j < n]

    if own_clocks:
        return out, grid, BatchStats(tuple(c.stats() for c in clocks))
    if land_on_samples:
        return out, grid, clocks[0].stats()
    return np.array(out), np.array(step_ends), clocks[0].stats()
