import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from modata import (
    ModularData,
    RealizabilityError,
    brute_trace,
    derive,
    eigen_multiplicities,
    fs_indicators,
    get_model,
    load_modular_data,
    realizability_report,
    trace_table,
    validate,
)
from modata.bantay import TraceTable, _cauchy_diagnostics
from modata.modular_data import DerivedData, _casimir_det
from modata.numerics import DEFAULT_POLICY, phase_from_turns

TRIVIAL = ModularData.from_matrices([[1.0]], [1.0])


def tables(name):
    md = get_model(name).modular_data
    dd = derive(md)
    tt = trace_table(md, dd)
    return md, dd, tt


def turn(p, q):
    return phase_from_turns(Fraction(p, q))


class TestTraceTable:
    def test_trivial_unit_braiding(self):
        md = TRIVIAL
        tt = trace_table(md, derive(md))
        assert abs(tt.tau[0, 0] - 1.0) < 1e-15

    def test_ising_values(self):
        _, _, tt = tables("ising")
        # frozen from the explicit Ising model (see the oracle tests); the
        # formula must reproduce e^{-i pi/8}, e^{3 i pi/8}, 0 and -1
        assert abs(tt.tau[0, 1] - turn(-1, 16)) < 1e-12
        assert abs(tt.tau[2, 1] - turn(3, 16)) < 1e-12
        assert tt.tau[1, 1] == 0
        assert abs(tt.tau[0, 2] + 1.0) < 1e-12

    def test_fibonacci_values(self):
        _, _, tt = tables("fibonacci")
        assert abs(tt.tau[0, 1] - turn(-2, 5)) < 1e-12
        assert abs(tt.tau[1, 1] - turn(3, 10)) < 1e-12

    def test_zero_channels_clamped_exactly(self, entries):
        for e in entries:
            dd = derive(e.md)
            tt = trace_table(e.md, dd)
            for k in range(e.md.rank):
                for i in range(e.md.rank):
                    if dd.fusion[i, i, k] == 0:
                        assert tt.tau[k, i] == 0, (e.name, k, i)

    def test_magnitude_bounded_by_multiplicity(self, entries):
        for e in entries:
            dd = derive(e.md)
            tt = trace_table(e.md, dd)
            for k in range(e.md.rank):
                for i in range(e.md.rank):
                    assert abs(tt.tau[k, i]) <= dd.fusion[i, i, k] + 1e-9

    def test_conjugation_symmetry(self, entries):
        # tau[k][i] == tau[kbar][ibar], including the entries with
        # nontrivial duality (z3) and toric code
        for e in entries:
            dd = derive(e.md)
            tt = trace_table(e.md, dd)
            conj = dd.conj
            assert np.max(np.abs(tt.tau - tt.tau[np.ix_(conj, conj)])) <= 1e-9, e.name

    def test_oracle_equivalence(self, models):
        for m in models:
            dd = derive(m.modular_data)
            tt = trace_table(m.modular_data, dd)
            for i in range(m.rank):
                for k in range(m.rank):
                    assert abs(tt.tau[k, i] - brute_trace(m, i, k)) <= 1e-9, (m.name, i, k)


class TestFsIndicators:
    def test_trivial(self):
        md = TRIVIAL
        dd = derive(md)
        assert fs_indicators(md, dd, trace_table(md, dd)).nu.tolist() == [1]

    @pytest.mark.parametrize("name,expected", [
        ("ising", [1, 1, 1]),
        ("su2_2", [1, -1, 1]),
        ("fibonacci", [1, 1]),
        ("semion", [1, -1]),
        ("z3", [1, 0, 0]),
    ])
    def test_catalog_fixtures(self, name, expected):
        md, dd, tt = tables(name)
        assert fs_indicators(md, dd, tt).nu.tolist() == expected

    def test_hand_summed_ising_family(self):
        # independent route: sum S_{r,0} S_{s,0} N^i_{r,s} w_r^2/w_s^2 over
        # the four channels of sigma x sigma by hand, without trace_table
        s_col = [0.5, math.sqrt(2) / 2, 0.5]
        for w_sigma, expected in [(turn(1, 16), 1.0), (turn(3, 16), -1.0)]:
            w = [1.0, w_sigma, -1.0]
            channels = [(0, 1), (1, 0), (1, 2), (2, 1)]  # N^sigma_{r,s} = 1
            nu = sum(s_col[r] * s_col[s] * w[r] ** 2 / w[s] ** 2 for r, s in channels)
            assert abs(nu - expected) < 1e-12

    def test_hand_summed_semion(self):
        w_s = 1j
        nu = 0.5 * (w_s ** -2 + w_s ** 2)  # channels (0,s),(s,0), S column 1/sqrt2
        assert abs(nu - (-1.0)) < 1e-12

    def test_both_routes_agree_on_catalog(self, entries):
        from modata.bantay import _fs_sums

        for e in entries:
            dd = derive(e.md)
            tt = trace_table(e.md, dd)
            direct = _fs_sums(e.md.S[:, 0], dd.fusion, dd.twists)
            via_trace = dd.twists * tt.tau[0, :]
            assert np.max(np.abs(direct - via_trace)) <= 1e-9, e.name

    def test_stacked_sums_match_one_row_sums(self, entries):
        # _fs_sums over a stack of twist rows equals, bit for bit, the one-row
        # call of the report and the literal sum over each (r, s) plane
        from modata.bantay import _fs_sums

        data = [e.md for e in entries] + [
            ModularData.from_matrices(np.kron(a.md.S, b.md.S), np.kron(a.md.T, b.md.T))
            for a, b in itertools.combinations_with_replacement(entries, 2)]
        assert len(data) == 9 + 45
        rng = np.random.default_rng(1606)
        for md in data:
            dd = derive(md)
            W = np.array([dd.twists, np.conj(dd.twists)]
                         + [dd.twists * np.exp(2j * math.pi * rng.random(md.rank))
                            for _ in range(4)])
            W[:, 0] = 1.0
            stacked = _fs_sums(md.S[:, 0], dd.fusion, W)
            assert stacked.shape == W.shape
            for w, row in zip(W, stacked):
                assert np.array_equal(_fs_sums(md.S[:, 0], dd.fusion, w), row)
                pref = np.outer(md.S[:, 0] * w ** 2, md.S[:, 0] / w ** 2)
                literal = [np.sum(dd.fusion[:, :, i] * pref) for i in range(md.rank)]
                assert np.array_equal(literal, row)

    def test_vacuum_indicator_is_one(self, entries):
        for e in entries:
            dd = derive(e.md)
            tt = trace_table(e.md, dd)
            assert fs_indicators(e.md, dd, tt).nu[0] == 1

    def test_violation_raises(self):
        md, dd, tt = tables("ising")
        fudged = TraceTable(tau=tt.tau * cmath.exp(0.3j))
        with pytest.raises(RealizabilityError):
            fs_indicators(md, dd, fudged)


class TestEigenMultiplicities:
    def test_ising_sigma_vacuum_channel(self):
        md, dd, tt = tables("ising")
        mt = eigen_multiplicities(md, dd, tt)
        # t = w_sigma * 1 * e^{-i pi/8} = 1 -> m+ = 1, m- = 0
        assert mt.m_plus[0, 1] == 1 and mt.m_minus[0, 1] == 0

    def test_ising_full_tables(self):
        md, dd, tt = tables("ising")
        mt = eigen_multiplicities(md, dd, tt)
        assert mt.m_plus.tolist() == [[1, 1, 1], [0, 0, 0], [0, 1, 0]]
        assert mt.m_minus.tolist() == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]

    def test_fibonacci_tau_tau_channel(self):
        md, dd, tt = tables("fibonacci")
        mt = eigen_multiplicities(md, dd, tt)
        # t = w_tau * w_tau^{-1/2} * e^{3 pi i/5} = -1 -> m+ = 0, m- = 1
        assert mt.m_plus[1, 1] == 0 and mt.m_minus[1, 1] == 1

    def test_zero_channels_stay_zero(self, entries):
        for e in entries:
            dd = derive(e.md)
            tt = trace_table(e.md, dd)
            mt = eigen_multiplicities(e.md, dd, tt)
            mask = np.array([[dd.fusion[i, i, k] for i in range(e.md.rank)]
                             for k in range(e.md.rank)])
            assert np.all((mt.m_plus + mt.m_minus) == mask), e.name

    def test_branch_swap_swaps_tables(self, entries, other_branch):
        for e in entries:
            dd = derive(e.md)
            tt = trace_table(e.md, dd)
            a = eigen_multiplicities(e.md, dd, tt)
            with other_branch():
                b = eigen_multiplicities(e.md, dd, tt)
            assert np.array_equal(a.m_plus, b.m_minus), e.name
            assert np.array_equal(a.m_minus, b.m_plus), e.name

    def test_non_integral_raises(self, bad_ising_file):
        from modata.bantay import _trace_diagnostics
        from modata.numerics import DEFAULT_POLICY

        md = load_modular_data(bad_ising_file)
        dd = derive(md)
        tau, _ = _trace_diagnostics(md, dd, DEFAULT_POLICY)
        with pytest.raises(RealizabilityError, match="realizability violation"):
            eigen_multiplicities(md, dd, TraceTable(tau=tau))


class TestRealizabilityReport:
    def test_catalog_passes(self, entries):
        for e in entries:
            report = realizability_report(e.md)
            assert report.verdict == "pass", (e.name, [d.message for d in report.errors()])

    def test_trivial_passes(self):
        assert realizability_report(TRIVIAL).verdict == "pass"

    def test_negative_control(self, bad_ising_file):
        report = realizability_report(load_modular_data(bad_ising_file))
        assert report.verdict == "fail"
        ids = {d.check_id for d in report.errors()}
        assert "st_cubed" in ids
        assert "mult_integer" in ids  # fails even with the axiom checks ignored

    def test_branch_swap_keeps_verdicts(self, entries, bad_ising_file, other_branch):
        bad = load_modular_data(bad_ising_file)
        with other_branch():
            for e in entries:
                assert realizability_report(e.md).verdict == "pass", e.name
            assert realizability_report(bad).verdict == "fail"

    def test_twist_trace_identity_on_oracle_models(self, models):
        # ribbon identity: sum_k d_k tau[k][i] = d_i w_i; confirmed on the
        # explicit models before being shipped as a warning-level check
        for m in models:
            dd = derive(m.modular_data)
            tt = trace_table(m.modular_data, dd)
            lhs = dd.dims @ tt.tau
            rhs = dd.dims * dd.twists
            assert np.max(np.abs(lhs - rhs)) <= 1e-9, m.name

    def test_twist_trace_never_fails_verdict(self, entries):
        for e in entries:
            report = realizability_report(e.md)
            warnings = [d for d in report.diagnostics if d.severity == "warning"]
            assert all(d.check_id == "twist_trace" for d in warnings)
            assert report.verdict == "pass"

    def test_channel_diagnostics_in_row_major_order(self):
        # Ising with w_psi turned by 1/3 fails on three forbidden channels
        # and three allowed ones; both lists come out in (k, i) row-major order
        ising = get_model("ising").modular_data
        T = ising.T * np.array([1.0, 1.0, turn(1, 3)])
        report = realizability_report(ModularData.from_matrices(ising.S, T, ising.labels))

        def channels(prefix):
            return [d.indices[0] for d in report.errors() if d.check_id.startswith(prefix)]

        assert channels("trace_zero_channel") == [(1, 1), (1, 2), (2, 2)]
        assert channels("mult_") == [(0, 1), (0, 2), (2, 1)]
        assert [d.check_id for d in report.errors() if d.check_id.startswith("mult_")] == [
            "mult_integer", "mult_integer", "mult_real"]

    @pytest.mark.parametrize("check_id", ["trace_conjugation", "derivation",
                                          "fs_route_agreement"])
    def test_check_can_fail_alone(self, single_failure_data, check_id):
        # in exact arithmetic each of these follows from checks that pass
        # here; under the tolerances it does not, so none of them is redundant
        md = single_failure_data[check_id]
        assert validate(md).passed
        report = realizability_report(md)
        assert [d.check_id for d in report.errors()] == [check_id]


class TestCauchyCheck:
    """primes(det K) = primes(ord T), K = sum_i N_i N_ibar (Bruillard-Ng-Rowell-Wang)."""

    @staticmethod
    def cauchy(report):
        return [(d.severity, d.measured) for d in report.diagnostics if d.check_id == "cauchy"]

    def test_holds_on_catalog_and_products(self, entries):
        data = [e.md for e in entries] + [
            ModularData.from_matrices(np.kron(a.md.S, b.md.S), np.kron(a.md.T, b.md.T))
            for a, b in itertools.combinations_with_replacement(entries, 2)]
        assert len(data) == 9 + 45
        for md in data:
            report = realizability_report(md)
            assert report.measurements["cauchy"] == 0.0
            assert self.cauchy(report) == []

    @pytest.mark.parametrize("name, twists, message", [
        # det K = 32 and w_sigma of order 48: 3 divides ord T but not det K
        ("ising", [1.0, turn(1, 48), -1.0], "only in ord T: [3], only in det K: []"),
        # det K = 5 and trivial twists: 5 divides det K but not ord T = 1
        ("fibonacci", [1.0, 1.0], "only in ord T: [], only in det K: [5]"),
    ])
    def test_prime_on_one_side_only_is_an_error(self, name, twists, message):
        md = ModularData.from_matrices(get_model(name).modular_data.S, twists)
        report = realizability_report(md)
        assert self.cauchy(report) == [("error", 1.0)]
        assert report.measurements["cauchy"] == 1.0
        assert any(message in d.message for d in report.errors())

    def test_twist_order_beyond_the_bound_warns(self):
        # order 241 is past the 240 bound of turns_fraction, so ord T is unknown
        ising = get_model("ising").modular_data
        report = realizability_report(ModularData.from_matrices(
            ising.S, [1.0, turn(1, 241), -1.0]))
        assert self.cauchy(report) == [("warning", 0.0)]
        assert report.measurements["cauchy"] == 0.0

    def test_vanishing_casimir_is_an_error(self):
        # every prime divides det K = 0; dividing them out must still stop
        dd = DerivedData(dims=np.ones(2), twists=np.array([1.0, -1.0]),
                         conj=np.arange(2), fusion=np.zeros((2, 2, 2), dtype=int),
                         total_dim=1.0)
        measured, diags = _cauchy_diagnostics(dd, _casimir_det(dd.fusion), DEFAULT_POLICY)
        assert measured == 1.0
        assert [(d.check_id, d.severity) for d in diags] == [("cauchy", "error")]
