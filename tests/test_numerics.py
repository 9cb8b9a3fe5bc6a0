import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from modata.numerics import (
    DEFAULT_POLICY,
    TolerancePolicy,
    _principal_arg,
    phase_from_turns,
    principal_root,
    principal_sqrt,
    turns_fraction,
)


class TestPolicy:
    def test_defaults(self):
        assert DEFAULT_POLICY.eq_tol == 1e-9
        assert DEFAULT_POLICY.int_tol == 1e-6

    @pytest.mark.parametrize("eq,it", [(0.0, 1e-6), (1e-3, 1e-6), (1e-9, 0.7), (-1e-9, 1e-6)])
    def test_rejects_bad_ordering(self, eq, it):
        with pytest.raises(ValueError):
            TolerancePolicy(eq_tol=eq, int_tol=it)


class TestPrincipalSqrt:
    def test_one(self):
        assert abs(principal_sqrt(1) - 1) < 1e-15

    def test_minus_one_gives_i(self):
        # arg(-1) = pi on the principal branch, halving to pi/2
        assert abs(principal_sqrt(-1) - 1j) < 1e-15

    def test_minus_one_negative_zero_imag(self):
        assert abs(principal_sqrt(complex(-1.0, -0.0)) - 1j) < 1e-15

    def test_eighth_turn(self):
        w = cmath.exp(1j * math.pi / 4)
        assert abs(principal_sqrt(w) - cmath.exp(1j * math.pi / 8)) < 1e-15

    def test_rejects_non_phase(self):
        with pytest.raises(ValueError, match="not a phase"):
            principal_sqrt(2.0)

    @given(st.floats(min_value=-math.pi + 1e-9, max_value=math.pi))
    def test_square_recovers_phase(self, phi):
        w = cmath.exp(1j * phi)
        assert abs(principal_sqrt(w) ** 2 - w) <= 1e-9

    def test_thousand_random_phases(self):
        import random

        rng = random.Random(20240817)
        for _ in range(1000):
            w = cmath.exp(2j * math.pi * rng.random())
            s = principal_sqrt(w)
            assert abs(s * s - w) <= DEFAULT_POLICY.eq_tol
            assert abs(abs(s) - 1.0) <= 1e-12

    @pytest.mark.parametrize("w", [complex(-1.0, 0.0), complex(-1.0, -0.0),
                                   complex(-1.0, -1.1e-16), complex(-1.0, 1.1e-16)],
                             ids=["plus-zero", "minus-zero", "below", "above"])
    def test_array_form_on_the_cut(self, w):
        # Ising's derived w_psi is -1 - 1.1e-16j: its arg rounds to -pi,
        # which both forms take as +pi, so the root is +i, never -i
        got = principal_sqrt(np.array([w, w, 1.0]))
        want = principal_sqrt(w)
        assert got.shape == (3,)
        assert got[:2].tobytes() == np.array([want, want]).tobytes()
        assert abs(want - 1j) < 1e-15

    def test_array_form_equals_scalar_form(self):
        rng = np.random.default_rng(20261018)
        w = np.exp(2j * math.pi * rng.random(10_000))
        got = principal_sqrt(w.reshape(100, 100))
        assert got.shape == (100, 100)
        want = np.array([principal_sqrt(z) for z in w.tolist()])
        assert got.ravel().tobytes() == want.tobytes()

    def test_array_form_rejects_non_phase(self):
        with pytest.raises(ValueError, match="not a phase"):
            principal_sqrt(np.array([1.0, 2.0]))


class TestPrincipalRoot:
    def test_cube_root_branch(self):
        lam = cmath.exp(2j * math.pi * 0.25)
        r = principal_root(lam, 3)
        assert abs(r ** 3 - lam) < 1e-12
        assert abs(r - cmath.exp(2j * math.pi * 0.25 / 3)) < 1e-12

    def test_rejects_non_phase(self):
        with pytest.raises(ValueError, match=r"not a phase: \|\(2\+0j\)\| = 2.0"):
            principal_root(2.0, 3)


class TestTurns:
    def test_phase_from_turns_exact(self):
        assert abs(phase_from_turns(Fraction(1, 4)) - 1j) < 1e-15

    @pytest.mark.parametrize("p,q", [(0, 1), (1, 2), (1, 3), (3, 16), (7, 60), (239, 240)])
    def test_roundtrip(self, p, q):
        z = phase_from_turns(Fraction(p, q))
        assert turns_fraction(z) == Fraction(p, q)

    def test_non_phase_is_none(self):
        assert turns_fraction(0.5 + 0j) is None

    def test_irrational_phase_is_none(self):
        assert turns_fraction(cmath.exp(1j)) is None

    def test_denominator_bound_below_one_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            turns_fraction(1j, 0)


LOOSE = TolerancePolicy(eq_tol=1e-3, int_tol=1e-2)


def reference_turns_fraction(z, max_denominator=240, pol=DEFAULT_POLICY):
    """turns_fraction as ``Fraction.limit_denominator`` alone decides it."""
    z = complex(z)
    if abs(abs(z) - 1.0) > pol.int_tol:
        return None
    frac = Fraction(_principal_arg(z) / (2.0 * math.pi)).limit_denominator(max_denominator) % 1
    if abs(z - phase_from_turns(frac)) > pol.int_tol:
        return None
    return frac


class TestTurnsFractionFastPath:
    """The integer convergent walk returns what limit_denominator returns."""

    def test_every_fraction_up_to_240(self):
        far_hits = 0
        for q in range(1, 241):
            for p in range(q):
                if math.gcd(p, q) != 1:
                    continue
                sign = 1 if p % 2 else -1
                for eps in (0.0, 1e-9, 3e-7, 1e-4):
                    turns = p / q + sign * eps
                    z = cmath.exp(2j * math.pi * turns)
                    for pol in (DEFAULT_POLICY, LOOSE):
                        got = turns_fraction(z, pol=pol)
                        assert got == reference_turns_fraction(z, pol=pol), (p, q, eps, pol)
                    if eps == 0.0:
                        assert got == Fraction(p, q)
                    # accepted under LOOSE though farther than 1/(3 D^2) from
                    # t: no closeness bound alone singles the fraction out
                    t = Fraction(_principal_arg(z) / (2.0 * math.pi))
                    if got is not None and abs((t - got + Fraction(1, 2)) % 1 - Fraction(1, 2)) \
                            > Fraction(1, 3 * 240 ** 2):
                        far_hits += 1
        assert far_hits > 10_000

    @given(st.floats(min_value=-0.5, max_value=0.5),
           st.sampled_from([1, 2, 7, 60, 240, 1000]),
           st.sampled_from([DEFAULT_POLICY, LOOSE]))
    def test_random_phases(self, turns, max_denominator, pol):
        z = cmath.exp(2j * math.pi * turns)
        assert (turns_fraction(z, max_denominator, pol)
                == reference_turns_fraction(z, max_denominator, pol))
