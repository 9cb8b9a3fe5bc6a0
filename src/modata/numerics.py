"""Tolerance policy and complex-scalar utilities.

The TolerancePolicy every check reads its eq_tol and int_tol from; phases
from turn fractions and root-of-unity detection back to them; and the
principal square and n-th roots.  ``principal_sqrt`` is the one square-root
branch: it labels the +/- eigenvalue multiplicities and the R-blocks, and
takes a scalar or a whole array of phases.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "TolerancePolicy",
    "DEFAULT_POLICY",
    "principal_sqrt",
    "principal_root",
    "phase_from_turns",
    "turns_fraction",
]


@dataclass(frozen=True)
class TolerancePolicy:
    """Numerical tolerances used by every check in the package.

    eq_tol bounds complex equality ``|x - y| <= eq_tol``; int_tol bounds
    integer detection ``|x - round(x)| <= int_tol``.
    """

    eq_tol: float = 1e-9
    int_tol: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.eq_tol <= self.int_tol < 0.5):
            raise ValueError(
                f"require 0 < eq_tol <= int_tol < 0.5, got "
                f"eq_tol={self.eq_tol}, int_tol={self.int_tol}"
            )


DEFAULT_POLICY = TolerancePolicy()


def _principal_arg(w: complex) -> float:
    """arg(w) normalized to (-pi, pi]; cmath.phase returns -pi for -1-0j."""
    phi = cmath.phase(w)
    if phi == -math.pi:
        phi = math.pi
    return phi


def _modulus(z):
    """|z| of one complex or entrywise, as np.hypot: on an array it gives the
    bits of abs() on each complex, which np.abs's complex loop need not."""
    return np.hypot(z.real, z.imag)


def _phase(u):
    """u/|u|, of one complex or entrywise: validation lets |w_i| - 1 reach
    about 2 eq_tol, and a positive scale never moves u across a branch cut."""
    return u / _modulus(u)


def principal_sqrt(w, pol: TolerancePolicy = DEFAULT_POLICY):
    """Square root e^{i arg(w)/2} of a phase, arg taken in (-pi, pi].

    ``w`` is one phase, which gives a complex, or an array of them, which
    gives the array of roots, each with the bits of its scalar call.  arg
    comes from ``np.arctan2``, whose -pi on the negative real axis (as for
    -1 - 0j, or -1 - 1e-16j, which it rounds there) becomes +pi.  Raises
    ValueError for non-unimodular input.  The other square root is the
    negation.
    """
    z = np.asarray(w, dtype=complex)
    off = np.abs(np.abs(z) - 1.0)
    if off.max(initial=0.0) > pol.eq_tol:
        bad = complex(z[off > pol.eq_tol][0])
        raise ValueError(f"not a phase: |{bad!r}| = {abs(bad)!r}")
    phi = np.arctan2(z.imag, z.real)
    root = np.exp(0.5j * np.where(phi == -math.pi, math.pi, phi))
    return complex(root) if root.ndim == 0 else root


def principal_root(w: complex, n: int, pol: TolerancePolicy = DEFAULT_POLICY) -> complex:
    """n-th root e^{i arg(w)/n} of a phase, same branch convention."""
    z = complex(w)
    if abs(abs(z) - 1.0) > pol.eq_tol:
        raise ValueError(f"not a phase: |{z!r}| = {abs(z)!r}")
    return cmath.exp(1j * _principal_arg(z) / n)


def phase_from_turns(turns: Fraction | float) -> complex:
    """e^{2 pi i turns}. Fractions keep catalog phases exact in double precision.

    Fractions are reduced mod 1 first so equivalent representatives (-7/60
    and 53/60, say) produce bit-identical doubles.
    """
    if type(turns) is not float and isinstance(turns, Fraction):
        turns = turns % 1
    return cmath.exp(2j * math.pi * float(turns))


def _near_convergent(t: float, max_denominator: int) -> tuple[int, int] | None:
    """(p, q) of the fraction p/q, q <= max_denominator, within 1/(3 max_denominator^2)
    of t, reduced mod 1; None when the float continued fraction of t finds none.

    Any fraction that close is a convergent of t (Legendre: |t - p/q| <
    1/(2 q^2) makes p/q a convergent), so walking the convergents in order of
    their denominators finds it.  Rounding in the walk can only miss it,
    never accept another: acceptance is the final distance test alone.
    """
    h0, h1, k0, k1 = 0, 1, 1, 0
    x = t
    while True:
        a = math.floor(x)
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        if k1 > max_denominator:
            return None
        if 3.0 * max_denominator * max_denominator * abs(t - h1 / k1) <= 1.0:
            return h1 % k1, k1
        x -= a
        if x == 0.0:
            return None
        x = 1.0 / x


def turns_fraction(
    z: complex,
    max_denominator: int = 240,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> Fraction | None:
    """Detect z as a root of unity: the fraction of a turn p/q, q bounded.

    Returns the reduced fraction in [0, 1) when z is unimodular and within
    int_tol of e^{2 pi i p/q}; otherwise None.

    The candidate p/q is ``Fraction(t).limit_denominator(max_denominator)``
    for t = arg(z)/(2 pi), the nearest fraction to t with q <= D =
    max_denominator.  A fraction within 1/(3 D^2) of t is found first from
    the convergents of t (``_near_convergent``), and it is that same nearest
    fraction: two distinct fractions with denominators <= D differ by at least
    1/D^2, so every other one lies at least 2/(3 D^2) from t.  Only when no
    fraction is that close, as under a loose int_tol, does ``limit_denominator``
    run.  The same int_tol test decides either way.
    """
    z = complex(z)
    if abs(abs(z) - 1.0) > pol.int_tol:
        return None
    turns = _principal_arg(z) / (2.0 * math.pi)
    pq = _near_convergent(turns, max_denominator)
    if pq is None:
        frac = Fraction(turns).limit_denominator(max_denominator) % 1
        pq = frac.numerator, frac.denominator
    p, q = pq
    # float(p/q) is correctly rounded, as float(Fraction(p, q)) is
    if abs(z - phase_from_turns(p / q)) > pol.int_tol:
        return None
    return Fraction(p, q)
