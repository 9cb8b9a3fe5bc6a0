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


def turns_fraction(
    z: complex,
    max_denominator: int = 240,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> Fraction | None:
    """Detect z as a root of unity: the fraction of a turn p/q, q bounded.

    Returns the reduced fraction in [0, 1) when z is unimodular and within
    int_tol of e^{2 pi i p/q}; otherwise None.

    The candidate p/q is the nearest fraction to t = arg(z)/(2 pi) with
    q <= D = max_denominator, found in integers on t's exact ratio as the
    standard library's Fraction finds its best approximation: walk the
    convergents of t while their denominators stay <= D, then keep the last
    convergent or the last semiconvergent, whichever lies nearer to t (the
    convergent on a tie).
    """
    z = complex(z)
    if abs(abs(z) - 1.0) > pol.int_tol:
        return None
    if max_denominator < 1:
        raise ValueError("max_denominator should be at least 1")
    p, q = (_principal_arg(z) / (2.0 * math.pi)).as_integer_ratio()
    if q > max_denominator:
        n, d, den = p, q, q
        p0, q0, p1, q1 = 0, 1, 1, 0
        while True:
            a = n // d
            q2 = q0 + a * q1
            if q2 > max_denominator:
                break
            p0, p1 = p1, p0 + a * p1
            q0, q1 = q1, q2
            n, d = d, n - a * d
        # t lies d/(q1 den) from the convergent p1/q1, and the semiconvergent
        # on its other side lies 1/(q1 qs) from p1/q1
        k = (max_denominator - q0) // q1
        qs = q0 + k * q1
        p, q = (p1, q1) if 2 * d * qs <= den else (p0 + k * p1, qs)
    p %= q
    # float(p/q) is correctly rounded, as float(Fraction(p, q)) is
    if abs(z - phase_from_turns(p / q)) > pol.int_tol:
        return None
    return Fraction(p, q)
