"""Embedded Dormand-Prince 5(4) driver with normwise error control.

Local error per step is controlled against ``abs_tol + rel_tol * |y|`` with
``|y|`` the Euclidean norm of the state, so tracking stays purely relative
while the solution decays through hundreds of decades (the regime every decay
measurement lives in).  A state or batch member whose norm leaves
``[1e-100, 1e100]`` is first scaled by the exact power of two that brings
its peak near 1, so a state below 1e-154 does not square to zero; the
scaling changes no ratio.  Steps are clipped to land exactly on the
requested sample grid, so sampled values carry full integration accuracy.

The state has shape ``(B, d)``: a batch of ``B`` independent members, each
on its own clock, which takes exactly the steps, and produces exactly the
bits, of its member's solve as a batch of one; a single system is a batch
of one.  A clock owns its member's row of the state and keeps its time,
step size, next stop, accept/reject decision, step cap and ``StepStats``;
every attempt computes the seven stages and error estimates of all rows in
one set of array operations, and one routine, ``_error_ratios``, takes each
row's error over its tolerance.

A member reproduces its solve as a batch of one bit for bit under two
rules, which a right-hand side must keep too.  Every per-member scalar
(times, step sizes, ratios and above all every ``**``) is a Python float:
numpy's vector power may use another ``pow`` than the C library's (SIMD
math libraries differ from it in the last bit in a few percent of calls).
And every per-member dot is the stacked ``(B, 1, d) @ (B, d, 1)`` matmul,
which takes the same BLAS dot as a 1-D ``x @ x``; a plain
``(B, d) @ (d,)`` product sums in another order in about half the rows.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["BatchStats", "IntegrationError", "StepStats", "solve_to_grid"]

# Attempted steps a clock may take before the solve fails.
_MAX_STEPS = 10_000_000
# A step shorter than ``_MIN_STEP * max(1, |t|)`` fails the solve as an underflow.
_MIN_STEP = 1e-14

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
# (see ``_error_ratios``).
_SAFE_NORM_LO = 1e-100
_SAFE_NORM_HI = 1e100


class IntegrationError(RuntimeError):
    """Integration could not continue (step underflow, budget, or nonfinite state).

    ``member`` is the index of the failing member of the driver's batch, and
    ``None`` for an error raised outside the driver.
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
    """What a batch did: each member's ``StepStats`` as its solve as a batch
    of one reports them, and the steps summed over the members."""

    members: tuple[StepStats, ...]

    @property
    def accepted(self) -> int:
        return sum(s.accepted for s in self.members)

    @property
    def rejected(self) -> int:
        return sum(s.rejected for s in self.members)


def _norm(x: np.ndarray) -> np.ndarray:
    # Euclidean norm of each row of ``(B, d)``.  Each is the BLAS dot of a
    # 1-D ``x @ x`` (``norm(x, axis=-1)`` sums in another order), so a row's
    # norm does not depend on the rows beside it.
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def _member_scale(y: np.ndarray) -> np.ndarray:
    # Per row (a 1-D ``y`` is one row), the power of two bringing its
    # largest component near 1.  Scaling by it is exact, so it changes no
    # ratio, but a member far below its neighbours (or below 1e-154) no
    # longer squares to zero or to a subnormal in its norm.
    _, exponent = np.frexp(np.max(np.abs(y), axis=-1, keepdims=True))
    return np.ldexp(1.0, np.clip(-exponent, -1022, 1022))


def _member_ratios(
    err_vec: np.ndarray, y: np.ndarray, y_new: np.ndarray, rel_tol: float, abs_tol: float
) -> np.ndarray:
    """Each row's error over its tolerance, from power-of-two scaled norms."""
    s = _member_scale(y)
    scale = abs_tol * s[..., 0] + rel_tol * np.maximum(_norm(s * y), _norm(s * y_new))
    with np.errstate(divide="ignore", invalid="ignore"):
        return _norm(s * err_vec) / scale


def _error_ratios(
    err_vec: np.ndarray, y: np.ndarray, y_new: np.ndarray, rel_tol: float, abs_tol: float
) -> list[float]:
    """Each row's error over its tolerance, ``inf`` when not finite and when
    its ``y_new`` has a non-finite component.  The rows are a batch's
    ``(B, d)`` members; no row's ratio depends on another's."""
    members = len(y)
    # squares past the largest double make a norm inf, which leaves the safe
    # window, so the scaled norms decide
    with np.errstate(over="ignore"):
        norms = _norm(np.concatenate((y, y_new, err_vec))).tolist()
    ratios = []
    scaled = None
    for i in range(members):
        y_norm, new_norm = norms[i], norms[members + i]
        # a finite norm has finite components; an infinite one may be overflow
        if not math.isfinite(new_norm) and not np.all(np.isfinite(y_new[i])):
            ratio = math.inf
        elif _SAFE_NORM_LO < y_norm < _SAFE_NORM_HI:
            # the squares that decide these norms are normal numbers, where
            # the power-of-two scaling of ``_member_ratios`` changes no bit
            ratio = norms[2 * members + i] / (abs_tol + rel_tol * max(y_norm, new_norm))
        else:
            if scaled is None:
                scaled = _member_ratios(err_vec, y, y_new, rel_tol, abs_tol).tolist()
            ratio = scaled[i]
        ratios.append(ratio if math.isfinite(ratio) else math.inf)
    return ratios


class _Clock:
    """One clock's step control: its row, time, step size, next stop and counts.

    ``member`` indexes the clock's row of the state, and ``out`` is its
    ``(n, d)`` slice of the ``(members, n, d)`` samples.  ``h_try``,
    ``target`` and ``hits`` describe the attempt in flight; a clock that has
    reached its last stop attempts steps of length 0.
    """

    __slots__ = (
        "member", "out", "cap_fn", "t", "h", "j", "accepted", "rejected",
        "replacements", "h_min", "h_max", "just_rejected", "h_try", "target", "hits",
    )

    def __init__(self, member: int, out, cap_fn, t: float, h: float) -> None:
        self.member = member
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

    def stats(self) -> StepStats:
        attempts = self.accepted + self.rejected
        rhs_evals = 1 + 6 * attempts + self.replacements
        return StepStats(self.accepted, self.rejected, rhs_evals, self.h_min, self.h_max)


def solve_to_grid(
    f: Callable[[Sequence[float], np.ndarray], np.ndarray],
    y0,
    times,
    *,
    rel_tol: float,
    abs_tol: float,
    step_cap_fn: Sequence[Callable[[float, np.ndarray], tuple[float, np.ndarray]]] | None = None,
) -> tuple[np.ndarray, np.ndarray, BatchStats]:
    """Integrate ``y' = f(t, y)`` from ``times[0]`` and sample it on the grid ``times``.

    ``y0`` of shape ``(B, d)`` is a batch of ``B`` independent members, each
    on its own clock and held to one error norm over its ``d`` components
    (see the module docstring); one system is a batch of one.  ``f``
    receives the members' times as a sequence of Python floats and the whole
    state, and returns the whole state's derivative.

    Returns ``(Y, times, stats)``: ``Y`` has shape ``(B, n, d)``, and
    ``Y[i, j]`` is member ``i`` at ``times[j]``; ``stats`` is a
    :class:`BatchStats`, and an :class:`IntegrationError` names the failing
    member.  A member that has reached ``times[-1]`` rides along with a step
    of length 0 until the last one has.

    ``step_cap_fn(t, y)`` returns ``(cap, y)``: a state-dependent step
    ceiling (used to resolve the fastest oscillation of hyperbolic runs) and
    the state to continue from.  That is ``y`` itself, or a replacement the
    caller's flow treats as the same solution (the hyperbolic flow zeroes
    modes that no longer carry energy); the driver then evaluates ``f``
    afresh there, one more call counted in ``rhs_evals``.  It is a sequence
    of one such function per member, each called with its member's time
    and row.
    """
    grid = np.asarray(times, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("times must contain at least two points")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("times must be strictly increasing")

    y = np.array(y0, dtype=float)
    if y.ndim != 2 or y.size == 0:
        raise ValueError("initial state must have shape (B, d)")
    if not np.all(np.isfinite(y)):
        raise ValueError("initial state must be finite")
    n = grid.size
    t0 = float(grid[0])
    members = len(y)
    cap_fns = [None] * members if step_cap_fn is None else list(step_cap_fn)
    if len(cap_fns) != members:
        raise ValueError("a batch needs one step cap function per member")
    out = np.empty((members, n, y.shape[1]))
    out[:, 0] = y

    k1 = np.asarray(f([t0] * members, y), dtype=float)
    finite = np.isfinite(k1).all(axis=-1)
    if not np.all(finite):
        raise IntegrationError(f"right-hand side not finite at t={t0:.6g}", int(np.argmin(finite)))

    # First trial step: crude but safe; the controller takes over immediately.
    unit = _member_scale(y)
    y_norm = _norm(unit * y)
    f_norm = _norm(unit * k1)
    moving = (y_norm > 0.0) & (f_norm > 0.0)
    rest = max(1e-6 * (grid[-1] - grid[0]), _MIN_STEP * max(1.0, abs(t0)))
    trial = np.where(moving, 0.01 * y_norm / np.where(moving, f_norm, 1.0), rest)
    first = [min(float(h), float(grid[1] - grid[0])) for h in trial]
    clocks = [_Clock(i, out[i], cap_fns[i], t0, first[i]) for i in range(members)]

    live = clocks
    while live:
        replaced = []
        for c in live:
            if c.accepted + c.rejected >= _MAX_STEPS:
                raise IntegrationError(
                    f"step budget {_MAX_STEPS} exceeded at t={c.t:.6g} (h={c.h:.3g})", c.member
                )
            cap = math.inf
            if c.cap_fn is not None:
                state = y[c.member]
                cap, y_cap = c.cap_fn(c.t, state)
                if y_cap is not state:
                    replaced.append((c, y_cap))
            target = float(grid[c.j])
            remaining = target - c.t
            h_try = min(c.h, cap, remaining)
            shortest = _MIN_STEP * max(1.0, abs(c.t))
            # a step that would leave less than the shortest step takes the rest whole
            c.hits = h_try >= remaining * (1.0 - 1e-12) or remaining - h_try < shortest
            if c.hits:
                h_try = remaining
            if h_try < shortest:
                raise IntegrationError(
                    f"step size underflow at t={c.t:.6g} (h={h_try:.3g}): "
                    "problem too stiff for the explicit step budget",
                    c.member,
                )
            c.target = target
            c.h_try = h_try

        # the stage times, per member in Python floats
        t = [c.t for c in clocks]
        steps = [c.h_try for c in clocks]
        t2, t3, t4, t5, t6 = zip(*[
            (s + _C2 * dh, s + _C3 * dh, s + _C4 * dh, s + _C5 * dh, s + dh)
            for s, dh in zip(t, steps)
        ])
        h = np.empty(y.shape)  # full rows multiply faster than a broadcast column
        h[...] = np.array(steps)[:, None]
        if replaced:
            y = y.copy()
            for c, y_cap in replaced:
                y[c.member] = y_cap
            fresh = np.asarray(f(t, y), dtype=float)
            k1 = k1.copy()
            for c, _ in replaced:
                k1[c.member] = fresh[c.member]
                c.replacements += 1

        k2 = f(t2, y + h * (_A21 * k1))
        k3 = f(t3, y + h * (_A31 * k1 + _A32 * k2))
        k4 = f(t4, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = f(t5, y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
        k6 = f(t6, y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
        y_new = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        k7 = f(t6, y_new)

        err_vec = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
        ratios = _error_ratios(err_vec, y, y_new, rel_tol, abs_tol)

        accepted = []
        for c in live:
            ratio = ratios[c.member]
            if ratio <= 1.0:
                accepted.append(c)
                h_try = c.h_try
                c.accepted += 1
                c.h_min = min(c.h_min, h_try)
                c.h_max = max(c.h_max, h_try)
                c.t = c.target if c.hits else c.t + h_try
                if c.hits:
                    c.out[c.j] = y_new[c.member]
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
            rows = [c.member for c in accepted]
            y = y.copy()
            y[rows] = y_new[rows]
            k1 = k1.copy()
            k1[rows] = k7[rows]
        done = [c for c in live if c.j >= n]
        if done:
            for c in done:
                c.h_try = 0.0
            live = [c for c in live if c.j < n]

    return out, grid, BatchStats(tuple(c.stats() for c in clocks))
