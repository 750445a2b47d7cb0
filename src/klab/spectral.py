"""Finite diagonal model of a coercive operator and the scalar nonlinearity.

Everything downstream works in the eigenbasis of a positive self-adjoint
operator ``A`` truncated to its first ``K`` modes, so ``A`` is represented by
its eigenvalue list and vectors by their coordinate arrays.  Fractional powers
and Sobolev-type norms are then componentwise exact, and the nonlinear
coupling enters only through the scalar ``|A^{1/2} u|^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralOperator",
    "MassFunction",
    "power_spectrum",
    "arithmetic_spectrum",
    "uniform_spectrum",
    "as_vector",
    "as_states",
    "sobolev_norm_sq",
    "apply_power",
    "m_eval",
    "m_prime",
    "mass_inf",
]


@dataclass(frozen=True)
class SpectralOperator:
    """Diagonal restriction of a coercive operator to finitely many modes.

    Parameters
    ----------
    eigenvalues:
        The eigenvalues ``lambda_1 <= ... <= lambda_K``, all positive.
    nu:
        Coercivity constant: every eigenvalue satisfies ``lambda_k >= nu > 0``.
    """

    eigenvalues: np.ndarray
    nu: float

    def __post_init__(self) -> None:
        lam = np.array(self.eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues must all be finite")
        if np.any(np.diff(lam) < 0.0):
            raise ValueError("eigenvalues must be sorted ascending")
        nu = float(self.nu)
        if not (math.isfinite(nu) and nu > 0.0):
            raise ValueError("nu must be a positive finite real")
        if lam[0] < nu:
            raise ValueError(
                f"coercivity violated: smallest eigenvalue {lam[0]} < nu {nu}"
            )
        lam.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "nu", nu)

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def power_spectrum(nu: float, modes: int, exponent: float) -> SpectralOperator:
    """Spectrum ``lambda_k = nu * k**exponent`` for ``k = 1..modes`` (exponent >= 0)."""
    if exponent < 0:
        raise ValueError("exponent must be >= 0 to keep the spectrum ascending")
    k = np.arange(1, int(modes) + 1, dtype=float)
    return SpectralOperator(nu * k**exponent, nu)


def arithmetic_spectrum(nu: float, modes: int, gap: float) -> SpectralOperator:
    """Spectrum ``lambda_k = nu + (k-1)*gap`` for ``k = 1..modes`` (gap >= 0)."""
    if gap < 0:
        raise ValueError("gap must be >= 0 to keep the spectrum ascending")
    k = np.arange(int(modes), dtype=float)
    return SpectralOperator(nu + k * gap, nu)


def uniform_spectrum(nu: float, modes: int) -> SpectralOperator:
    """All ``modes`` eigenvalues equal to ``nu``."""
    return SpectralOperator(np.full(int(modes), float(nu)), nu)


def as_states(coeffs, op: SpectralOperator | None = None) -> np.ndarray:
    """Coerce ``coeffs`` to a finite ``(K,)`` vector or ``(n, K)`` stack of state rows.

    The mode count (the last axis) is checked against ``op`` when given.
    """
    v = np.asarray(coeffs, dtype=float)
    if v.ndim not in (1, 2):
        raise ValueError("spectral states must be a vector or a (samples, modes) array")
    if not np.all(np.isfinite(v)):
        raise ValueError("spectral vector entries must be finite")
    if op is not None and v.shape[-1] != op.dim:
        raise ValueError(
            f"dimension mismatch: vector has {v.shape[-1]} entries, operator has {op.dim} modes"
        )
    return v


def as_vector(coeffs, op: SpectralOperator | None = None) -> np.ndarray:
    """Coerce ``coeffs`` to a finite 1-d float array, checking the dimension against ``op``."""
    v = as_states(coeffs, op)
    if v.ndim != 1:
        raise ValueError("a spectral vector must be one-dimensional")
    return v


def sobolev_norm_sq(op: SpectralOperator, v, s: float):
    """``|A^s v|^2 = sum_k lambda_k^(2s) v_k^2``; ``s = 0`` gives the plain ``|v|^2``.

    A ``(K,)`` vector gives a float, an ``(n, K)`` stack one value per row.
    """
    v = as_states(v, op)
    if s < 0:
        raise ValueError("power s must be >= 0")
    sq = v * v
    norm = sq.sum(axis=-1) if s == 0 else sq @ op.eigenvalues ** (2.0 * s)
    return float(norm) if v.ndim == 1 else norm


def apply_power(op: SpectralOperator, v, s: float) -> np.ndarray:
    """``(A^s v)_k = lambda_k^s v_k``; ``s = 0`` is the identity."""
    v = as_vector(v, op)
    if s < 0:
        raise ValueError("power s must be >= 0")
    if s == 0:
        return v.copy()
    return op.eigenvalues**s * v


@dataclass(frozen=True)
class MassFunction:
    """Scalar nonlinearity ``m(sigma)`` with an analytic derivative and infimum.

    Three closed-form variants are supported:

    - ``constant``: ``m(sigma) = base``
    - ``affine``:   ``m(sigma) = base + coeff * sigma``
    - ``rational``: ``m(sigma) = base + coeff / (1 + sigma)``

    ``base`` must be positive and ``coeff`` nonnegative, which keeps
    ``m(sigma) >= inf m = base`` (the constant variant's infimum is ``base``
    as well) strictly positive on ``sigma >= 0``.
    """

    variant: str
    base: float
    coeff: float = 0.0

    _VARIANTS = ("constant", "affine", "rational")

    def __post_init__(self) -> None:
        if self.variant not in self._VARIANTS:
            raise ValueError(f"unknown mass-function variant {self.variant!r}")
        if not (math.isfinite(self.base) and self.base > 0.0):
            raise ValueError("base must be a positive finite real")
        if not (math.isfinite(self.coeff) and self.coeff >= 0.0):
            raise ValueError("coeff must be a nonnegative finite real")

    @classmethod
    def constant(cls, value: float) -> "MassFunction":
        return cls("constant", value)

    @classmethod
    def affine(cls, base: float, slope: float) -> "MassFunction":
        return cls("affine", base, slope)

    @classmethod
    def rational(cls, base: float, coeff: float) -> "MassFunction":
        return cls("rational", base, coeff)

    @property
    def is_constant(self) -> bool:
        return self.variant == "constant" or self.coeff == 0.0


def m_eval(m: MassFunction, sigma: float) -> float:
    """Evaluate ``m(sigma)`` for ``sigma >= 0``."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if m.variant == "constant":
        return m.base
    if m.variant == "affine":
        return m.base + m.coeff * sigma
    return m.base + m.coeff / (1.0 + sigma)


def m_prime(m: MassFunction, sigma: float) -> float:
    """Closed-form derivative ``m'(sigma)`` for ``sigma >= 0``."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if m.variant == "constant":
        return 0.0
    if m.variant == "affine":
        return m.coeff
    return -m.coeff / (1.0 + sigma) ** 2


def mass_inf(m: MassFunction) -> float:
    """Analytic infimum of ``m`` over ``sigma >= 0`` (never estimated numerically).

    Equals ``base`` for every variant: the affine and rational parts are
    nonnegative and vanish in the limit ``sigma -> 0`` resp. ``sigma -> inf``.
    """
    return m.base
