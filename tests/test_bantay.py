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
    deligne,
    derive,
    eigen_multiplicities,
    fs_indicators,
    get_model,
    load_modular_data,
    realizability_report,
    trace_table,
    validate,
)
from modata.axioms import _CONJUGATE_NOTE, CHECKS, AxiomReport, Diagnostic, _validate_rows
from modata.bantay import _cauchy_diagnostics, _realizability_pass
from modata.modular_data import (DerivedData, InvalidModularData, _casimir_det, _prime_support,
                                 _s_facts)
from modata.numerics import DEFAULT_POLICY, phase_from_turns, principal_sqrt, turns_fraction
from modata.search import candidate_s, enumerate_t
from test_search import pointed_ring, ring_of, s_datum, su2_ring

TRIVIAL = ModularData.from_matrices([[1.0]], [1.0])


def reference_validate(md, pol=DEFAULT_POLICY):
    """The per-datum ``validate``: the T checks of one datum and the S checks
    from the map of its S cache, placed in ``CHECKS`` order.  The stacked
    ``_validate_rows`` must match it."""
    T, n = md.T, md.rank
    s = _s_facts(md, pol)
    found = {c: (m, None if f is None else Diagnostic(c, "error", *f))
             for c, (m, f) in s.checks.items()}

    def check(check_id, dev, indices, message):
        diag = None
        if dev > pol.eq_tol:
            diag = Diagnostic(check_id, "error", tuple(indices), dev, message)
        found[check_id] = dev, diag

    dev_t = np.abs(np.abs(T) - 1.0)
    i = int(np.argmax(dev_t))
    check("t_unimodular", float(np.max(dev_t)), [(i,)], f"|T_{i}| = {abs(T[i]):.12g} is not 1")
    M = md.S * md.T
    M3 = M @ M @ M
    dev_e = np.abs(M3 - md.S2)
    m = float(np.max(dev_e))
    i, j = np.unravel_index(int(np.argmax(dev_e)), dev_e.shape)
    check("st_cubed", m, [(int(i), int(j))],
          f"(S T)^3 differs from S^2 by {m:.3e} at ({i},{j})")
    if s.conj is not None:
        gap_w = np.zeros(n)
        if abs(T[0]) > pol.eq_tol:
            w = T / T[0]
            w[0] = 1.0
            gap_w = np.abs(w[s.conj] - w)
        check("conjugate_symmetry", max(float(np.max(gap_w)), float(np.max(s.dims_gap))),
              [(i,) for i in range(n) if gap_w[i] > pol.eq_tol or s.dims_gap[i] > pol.eq_tol],
              "twists/dims differ between conjugate sectors")
    order = [c for c in CHECKS if c in found]
    # the note of data in the conjugate presentation, (S T)^3 = 1
    note = None
    if m > pol.eq_tol and np.abs(M3 - np.eye(n)).max() <= pol.eq_tol:
        note = _CONJUGATE_NOTE
    return AxiomReport([found[c][1] for c in order if found[c][1] is not None],
                       convention_note=note, measurements={c: found[c][0] for c in order})


def assert_registry_order(report):
    """The S and T diagnostics come first and in ``CHECKS`` order, and so do
    the measurements of those checks."""
    rank = {c: k for k, c in enumerate(CHECKS)}
    row_stages = ("S", "T")
    ids = [d.check_id for d in report.diagnostics]
    head = [c for c in ids if CHECKS[c] in row_stages]
    assert ids[:len(head)] == head, ids
    assert [rank[c] for c in head] == sorted(rank[c] for c in head), ids
    keys = [c for c in report.measurements if c in CHECKS and CHECKS[c] in row_stages]
    assert list(report.measurements)[:len(keys)] == keys, list(report.measurements)
    assert [rank[c] for c in keys] == sorted(rank[c] for c in keys), keys


def reference_realizability_report(md, pol=DEFAULT_POLICY):
    """The per-datum realizability pass: ``reference_validate``, then each
    trace constraint with its own loop over the channels or sectors of one
    datum.  Returns (report, (nu, m_plus, m_minus) when it passes, else None,
    the FS values w_i tau[0][i], or None when derive fails); each row of the
    stacked ``_realizability_pass`` must match it."""
    base = reference_validate(md, pol)
    diags, meas = list(base.diagnostics), dict(base.measurements)
    try:
        dd = derive(md, pol)
    except InvalidModularData as exc:
        if base.passed:
            diags.append(Diagnostic("derivation", "error", (), 0.0, str(exc)))
        return AxiomReport(diags, base.convention_note, meas), None, None
    S, w, N, n = md.S, dd.twists, dd.fusion, md.rank

    # Cauchy: the primes of det K against those of ord T
    det, cauchy = _casimir_det(N), []
    fracs = [turns_fraction(x, pol=pol) for x in w]
    meas["cauchy"] = 0.0
    if any(f is None for f in fracs):
        cauchy = [Diagnostic("cauchy", "warning", tuple((i,) for i, f in enumerate(fracs)
                                                        if f is None), 0.0, "unknown")]
    elif det == 0:
        meas["cauchy"] = 1.0
        cauchy = [Diagnostic("cauchy", "error", (), 1.0, "det K = 0")]
    else:
        primes = set().union(*(_prime_support(f.denominator) for f in fracs))
        cofactor = abs(det)
        for p in primes:
            while cofactor % p == 0:
                cofactor //= p
        meas["cauchy"] = float(len([p for p in primes if det % p])
                               + len(_prime_support(cofactor)))
        if meas["cauchy"]:
            cauchy = [Diagnostic("cauchy", "error", (), meas["cauchy"], "primes")]
    diags.extend(cauchy)

    # the trace table, one column at a time, then the forbidden channels
    w2 = w * w
    pref = (1.0 / w2)[:, None] * (S[:, 0] * w2)[None, :]
    tau = np.empty((n, n), dtype=complex)
    for i in range(n):
        tau[:, i] = (np.conj(S).T @ (N[:, :, i] * pref).sum(axis=1)) / w[i]
    found = []
    for k in range(n):
        for i in range(n):
            if N[i, i, k] == 0:
                if abs(tau[k, i]) > pol.eq_tol:
                    found.append(Diagnostic("trace_zero_channel", "error", ((k, i),),
                                            float(abs(tau[k, i])), "residue"))
                tau[k, i] = 0.0
    diags.extend(found)
    meas["trace_zero_channel"] = max((d.measured for d in found), default=0.0)

    # FS indicators, sector by sector
    via_sum = [np.sum(N[:, :, i] * np.outer(S[:, 0] * w2, S[:, 0] / w2)) for i in range(n)]
    via_trace = w * tau[0]
    nu, found = np.zeros(n, dtype=int), []
    for i in range(n):
        val = via_trace[i]
        if abs(val - via_sum[i]) > pol.eq_tol:
            found.append(Diagnostic("fs_route_agreement", "error", ((i,),),
                                    float(abs(val - via_sum[i])), "routes"))
        if dd.conj[i] != i:
            continue
        dev = min(abs(val - 1.0), abs(val + 1.0))
        if dev > pol.int_tol:
            found.append(Diagnostic("fs_value", "error", ((i,),), float(dev), "value"))
            continue
        nu[i] = 1 if abs(val - 1.0) <= abs(val + 1.0) else -1
    diags.extend(found)
    meas["fs_indicator"] = max((d.measured for d in found), default=0.0)

    # multiplicities, channel by channel
    m_plus, m_minus = np.zeros((n, n), dtype=int), np.zeros((n, n), dtype=int)
    sqrt_w = [principal_sqrt(wk / abs(wk)) for wk in w]
    found = []
    for k in range(n):
        for i in range(n):
            m = int(N[i, i, k])
            if m == 0:
                continue
            t = w[i] / sqrt_w[k] * tau[k, i]
            ti = round(t.real) if abs(t.imag) <= pol.int_tol else None
            if ti is None:
                check_id, dev = "mult_real", abs(t.imag)
            elif abs(t.real - ti) > pol.int_tol:
                check_id, dev = "mult_integer", abs(t.real - ti)
            elif abs(ti) > m:
                check_id, dev = "mult_range", float(abs(ti) - m)
            elif (ti - m) % 2:
                check_id, dev = "mult_parity", 1.0
            else:
                m_plus[k, i], m_minus[k, i] = (m + ti) // 2, (m - ti) // 2
                continue
            found.append(Diagnostic(check_id, "error", ((k, i),), float(dev), "channel"))
    diags.extend(found)
    meas["multiplicities"] = max((d.measured for d in found), default=0.0)

    sym_dev = np.abs(tau - tau[np.ix_(dd.conj, dd.conj)])
    meas["trace_conjugation"] = float(np.max(sym_dev))
    if meas["trace_conjugation"] > pol.eq_tol:
        bad = np.argwhere(sym_dev > pol.eq_tol)[:8]
        diags.append(Diagnostic("trace_conjugation", "error",
                                tuple(tuple(int(x) for x in t) for t in bad),
                                meas["trace_conjugation"], "conjugation"))
    ribbon = np.abs(dd.dims @ tau - dd.dims * w)
    meas["twist_trace"] = float(np.max(ribbon))
    if meas["twist_trace"] > pol.eq_tol:
        diags.append(Diagnostic("twist_trace", "warning",
                                tuple((int(i),) for i in np.flatnonzero(ribbon > pol.eq_tol)),
                                meas["twist_trace"], "ribbon"))
    report = AxiomReport(diags, base.convention_note, meas)
    return report, ((nu, m_plus, m_minus) if report.passed else None), via_trace


def assert_rows_match_reference(md, T, pol=DEFAULT_POLICY):
    """One stacked pass over the rows T with the S of md against the
    per-datum reference on each row; returns the check_ids the rows fired
    and the number of non-self-dual sectors whose FS value was checked.

    On a row whose report has no ``vacuum_fusion`` error, w_i tau[0][i] is
    exactly 0 on every non-self-dual sector i: there N^0_ii = 0 and the
    forbidden-channel clamp decides it, so the report needs no check of it."""
    bases = [AxiomReport(*row) for row in _validate_rows(md, T, pol).rows]
    reports, tables = _realizability_pass(md, T, pol)
    assert len(bases) == len(reports) == len(tables) == len(T)
    conj = _s_facts(md, pol).conj
    other = np.flatnonzero(conj != np.arange(len(conj))) if conj is not None else []
    fired, clamped = set(), 0
    for r, t in enumerate(T):
        row = ModularData.from_matrices(md.S, t)  # a fresh S cache per row
        want, want_tables, via_trace = reference_realizability_report(row, pol)
        got, base = reports[r], bases[r]
        if via_trace is not None and len(other) and not any(
                d.check_id == "vacuum_fusion" for d in got.diagnostics):
            assert (via_trace[other] == 0).all(), (r, via_trace[other])
            clamped += len(other)

        def listing(report):
            return [(d.check_id, d.severity, d.indices) for d in report.diagnostics]

        assert listing(base) == listing(reference_validate(row, pol)), r
        assert_registry_order(base)
        assert_registry_order(got)
        assert set(base.measurements) <= set(CHECKS), r
        assert got.verdict == want.verdict, r
        assert listing(got) == listing(want), r
        assert got.convention_note == want.convention_note, r
        assert list(got.measurements) == list(want.measurements), r
        for key, value in want.measurements.items():
            assert abs(got.measurements[key] - value) <= 1e-12, (r, key)
        assert (tables[r] is None) == (want_tables is None), r
        if tables[r] is not None:
            tau, nu, m_plus, m_minus = tables[r]
            assert (derive(row, pol).twists[other] * tau[0, other] == 0).all(), r
            for a, b in zip((nu, m_plus, m_minus), want_tables):
                assert np.array_equal(a, b), r
        fired.update(d.check_id for d in got.diagnostics)
    return fired, clamped


def tables(name):
    md = get_model(name).modular_data
    dd = derive(md)
    return md, dd, trace_table(md, dd)


def turn(p, q):
    return phase_from_turns(Fraction(p, q))


class TestTraceTable:
    def test_trivial_unit_braiding(self):
        md = TRIVIAL
        tau = trace_table(md, derive(md))
        assert abs(tau[0, 0] - 1.0) < 1e-15

    def test_forbidden_channel_residue_raises(self):
        # the semion S with w_s rotated off i: tau[s][s] is far from 0 on the
        # channel s x s -> s, which N^s_{s,s} = 0 forbids
        semion = get_model("semion").modular_data
        md = ModularData.from_matrices(semion.S, [1.0, 1j * cmath.exp(0.3j)])
        with pytest.raises(RealizabilityError, match=r"internal inconsistency: tau\[1\]\[1\]"
                           r" = .* but N\^1_\{1,1\} = 0") as exc:
            trace_table(md, derive(md))
        assert [d.check_id for d in exc.value.diagnostics] == ["trace_zero_channel"]

    def test_ising_values(self):
        _, _, tau = tables("ising")
        # frozen from the explicit Ising model (see the oracle tests); the
        # formula must reproduce e^{-i pi/8}, e^{3 i pi/8}, 0 and -1
        assert abs(tau[0, 1] - turn(-1, 16)) < 1e-12
        assert abs(tau[2, 1] - turn(3, 16)) < 1e-12
        assert tau[1, 1] == 0
        assert abs(tau[0, 2] + 1.0) < 1e-12

    def test_fibonacci_values(self):
        _, _, tau = tables("fibonacci")
        assert abs(tau[0, 1] - turn(-2, 5)) < 1e-12
        assert abs(tau[1, 1] - turn(3, 10)) < 1e-12

    def test_zero_channels_clamped_exactly(self, entries):
        for e in entries:
            dd = derive(e.modular_data)
            tau = trace_table(e.modular_data, dd)
            for k in range(e.modular_data.rank):
                for i in range(e.modular_data.rank):
                    if dd.fusion[i, i, k] == 0:
                        assert tau[k, i] == 0, (e.name, k, i)

    def test_magnitude_bounded_by_multiplicity(self, entries):
        for e in entries:
            dd = derive(e.modular_data)
            tau = trace_table(e.modular_data, dd)
            for k in range(e.modular_data.rank):
                for i in range(e.modular_data.rank):
                    assert abs(tau[k, i]) <= dd.fusion[i, i, k] + 1e-9

    def test_conjugation_symmetry(self, entries):
        # tau[k][i] == tau[kbar][ibar], including the entries with
        # nontrivial duality (z3) and toric code
        for e in entries:
            dd = derive(e.modular_data)
            tau = trace_table(e.modular_data, dd)
            conj = dd.conj
            assert np.max(np.abs(tau - tau[np.ix_(conj, conj)])) <= 1e-9, e.name

    def test_oracle_equivalence(self, models):
        for m in models:
            dd = derive(m.modular_data)
            tau = trace_table(m.modular_data, dd)
            for i in range(m.rank):
                for k in range(m.rank):
                    assert abs(tau[k, i] - brute_trace(m, i, k)) <= 1e-9, (m.name, i, k)


class TestFsIndicators:
    def test_trivial(self):
        md = TRIVIAL
        dd = derive(md)
        assert fs_indicators(md, dd, trace_table(md, dd)).tolist() == [1]

    @pytest.mark.parametrize("name,expected", [
        ("ising", [1, 1, 1]),
        ("su2_2", [1, -1, 1]),
        ("fibonacci", [1, 1]),
        ("semion", [1, -1]),
        ("z3", [1, 0, 0]),
    ])
    def test_catalog_fixtures(self, name, expected):
        md, dd, tau = tables(name)
        assert fs_indicators(md, dd, tau).tolist() == expected

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
            dd = derive(e.modular_data)
            tau = trace_table(e.modular_data, dd)
            direct = _fs_sums(e.modular_data.S[:, 0], dd.fusion, dd.twists)
            via_trace = dd.twists * tau[0, :]
            assert np.max(np.abs(direct - via_trace)) <= 1e-9, e.name

    def test_stacked_sums_match_one_row_sums(self, entries):
        # _fs_sums over a stack of twist rows equals, bit for bit, the one-row
        # call of the report and the literal sum over each (r, s) plane
        from modata.bantay import _fs_sums

        mds = [e.modular_data for e in entries]
        data = mds + [deligne(a, b) for a, b in itertools.combinations_with_replacement(mds, 2)]
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
            dd = derive(e.modular_data)
            tau = trace_table(e.modular_data, dd)
            assert fs_indicators(e.modular_data, dd, tau)[0] == 1

    def test_violation_raises(self):
        md, dd, tau = tables("ising")
        with pytest.raises(RealizabilityError):
            fs_indicators(md, dd, tau * cmath.exp(0.3j))


class TestEigenMultiplicities:
    def test_ising_sigma_vacuum_channel(self):
        md, dd, tau = tables("ising")
        m_plus, m_minus = eigen_multiplicities(dd, tau)
        # t = w_sigma * 1 * e^{-i pi/8} = 1 -> m+ = 1, m- = 0
        assert m_plus[0, 1] == 1 and m_minus[0, 1] == 0

    def test_ising_full_tables(self):
        md, dd, tau = tables("ising")
        m_plus, m_minus = eigen_multiplicities(dd, tau)
        assert m_plus.tolist() == [[1, 1, 1], [0, 0, 0], [0, 1, 0]]
        assert m_minus.tolist() == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]

    def test_fibonacci_tau_tau_channel(self):
        md, dd, tau = tables("fibonacci")
        m_plus, m_minus = eigen_multiplicities(dd, tau)
        # t = w_tau * w_tau^{-1/2} * e^{3 pi i/5} = -1 -> m+ = 0, m- = 1
        assert m_plus[1, 1] == 0 and m_minus[1, 1] == 1

    def test_zero_channels_stay_zero(self, entries):
        for e in entries:
            dd = derive(e.modular_data)
            tau = trace_table(e.modular_data, dd)
            m_plus, m_minus = eigen_multiplicities(dd, tau)
            mask = np.array([[dd.fusion[i, i, k] for i in range(e.modular_data.rank)]
                             for k in range(e.modular_data.rank)])
            assert np.all((m_plus + m_minus) == mask), e.name

    def test_branch_swap_swaps_tables(self, entries, other_branch):
        for e in entries:
            dd = derive(e.modular_data)
            tau = trace_table(e.modular_data, dd)
            a_plus, a_minus = eigen_multiplicities(dd, tau)
            with other_branch():
                b_plus, b_minus = eigen_multiplicities(dd, tau)
            assert np.array_equal(a_plus, b_minus), e.name
            assert np.array_equal(a_minus, b_plus), e.name

    def test_non_integral_raises(self, bad_ising_file):
        from modata.bantay import _trace_diagnostics, _trace_rows
        from modata.numerics import DEFAULT_POLICY

        md = load_modular_data(bad_ising_file)
        dd = derive(md)
        tau = _trace_rows(md.S, dd.fusion, dd.twists[None])
        _trace_diagnostics(tau, dd.fusion, DEFAULT_POLICY)
        with pytest.raises(RealizabilityError, match="realizability violation"):
            eigen_multiplicities(dd, tau[0])


class TestBuilderArrays:
    def test_read_only_arrays_of_the_right_dtype_and_shape(self, entries):
        # the builders and the rows of the pass give the tables as read-only
        # ndarrays: tau (n, n) complex, nu (n,) int, m_plus and m_minus (n, n) int
        for e in entries:
            md = e.modular_data
            n, dd = md.rank, derive(md)
            tau = trace_table(md, dd)
            built = (tau, fs_indicators(md, dd, tau), *eigen_multiplicities(dd, tau))
            (_,), (row,) = _realizability_pass(md, md.T[None], DEFAULT_POLICY)
            for arrays in (built, row):
                for a, dtype, shape in zip(arrays, (complex, int, int, int),
                                           ((n, n), (n,), (n, n), (n, n))):
                    assert type(a) is np.ndarray, e.name
                    assert (a.dtype, a.shape) == (np.dtype(dtype), shape), e.name
                    with pytest.raises(ValueError, match="read-only"):
                        a[(0,) * a.ndim] = 0
            assert all(np.array_equal(a, b) for a, b in zip(built, row)), e.name


class TestRealizabilityReport:
    def test_catalog_passes(self, entries):
        for e in entries:
            report = realizability_report(e.modular_data)
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
                assert realizability_report(e.modular_data).verdict == "pass", e.name
            assert realizability_report(bad).verdict == "fail"

    def test_twist_trace_identity_on_oracle_models(self, models):
        # ribbon identity: sum_k d_k tau[k][i] = d_i w_i; confirmed on the
        # explicit models before being shipped as a warning-level check
        for m in models:
            dd = derive(m.modular_data)
            tau = trace_table(m.modular_data, dd)
            lhs = dd.dims @ tau
            rhs = dd.dims * dd.twists
            assert np.max(np.abs(lhs - rhs)) <= 1e-9, m.name

    def test_twist_trace_never_fails_verdict(self, entries):
        for e in entries:
            report = realizability_report(e.modular_data)
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
        mds = [e.modular_data for e in entries]
        data = mds + [deligne(a, b) for a, b in itertools.combinations_with_replacement(mds, 2)]
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
        measured, diags = _cauchy_diagnostics([turns_fraction(w) for w in dd.twists],
                                              _casimir_det(dd.fusion))
        assert measured == 1.0
        assert [(d.check_id, d.severity) for d in diags] == [("cauchy", "error")]


# every check_id realizability_report emits: those of the registry but the
# R-block checks, which ``monodromy_check`` emits (tests/test_rmatrix.py)
REPORT_CHECKS = {c for c, stage in CHECKS.items() if stage != "rblock"}


class TestStackedPass:
    """One stacked pass over a block of T rows against the per-datum reference."""

    @pytest.mark.parametrize("ring, max_order", [
        (lambda: ring_of("fibonacci"), 10),
        (lambda: ring_of("ising"), 32),
        (lambda: ring_of("toric_code"), 8),
        *[(lambda k=k: su2_ring(k), 4 * (k + 2)) for k in range(6, 12)],
        (lambda: deligne(deligne(pointed_ring(2), pointed_ring(2)), pointed_ring(2)), 8),
        (lambda: deligne(ring_of("ising"), ring_of("ising")), 16),
    ], ids=["fibonacci", "ising", "toric", *[f"su2_{k}" for k in range(6, 12)], "z2_cubed",
            "ising_ising"])
    def test_every_t_candidate(self, ring, max_order):
        # every T candidate of every S candidate, before the FS screen
        rows = 0
        for S in candidate_s(ring()):
            md = s_datum(S)
            T = np.array(enumerate_t(md, max_order).diagonals)
            if len(T):
                assert_rows_match_reference(md, T)
                rows += len(T)
        assert rows

    def test_controls_fire_every_check(self, entries, single_failure_data):
        fired, clamped = set(), 0
        for md in single_failure_data.values():
            found, checked = assert_rows_match_reference(md, md.T[None])
            fired, clamped = fired | found, clamped + checked
        ising, z3 = get_model("ising").modular_data, get_model("z3").modular_data
        # Ising x Ising has the self-dual sigma x sigma of dimension 2, whose
        # channel to the vacuum gets t = 2 > N = 1 under trivial twists
        data = [(md.S, md.T) for md in [e.modular_data for e in entries] + [deligne(ising, ising)]]
        # E is antisymmetric and anticommutes with the Ising S, so (S + E)^2
        # stays within eq_tol of 1 while (S + E)(S + E)^t, the vacuum row of
        # the Verlinde sum, does not
        vals, vecs = np.linalg.eigh(ising.S.real)
        u, v = vecs[:, vals > 0][:, 0], vecs[:, vals < 0][:, 0]
        E = 1e-5 * (np.outer(u, v) - np.outer(v, u))
        flip = np.diag([1.0, -1.0, 1.0])
        c, s = math.cos(0.3), math.sin(0.3)
        # S data failing the checks that read S alone
        data += [(ising.S + E, ising.T),        # s_unitary, s_symmetric, vacuum_fusion
                 (np.exp(0.1j) * z3.S, z3.T),   # charge_conjugation
                 (flip @ ising.S @ flip, ising.T),  # dims_row
                 (np.array([[c, s], [s, -c]]), [1.0, 1.0])]  # verlinde_integrality
        rng = np.random.default_rng(1806)
        for S, T in data:
            n, T = len(S), np.asarray(T, dtype=complex)
            rows = [np.ones(n), T, np.conj(T), np.exp(2j * math.pi * rng.random((8, n))),
                    # T_0 = 0, and |T_1| off the unit circle
                    np.concatenate([[0.0], T[1:]]), np.concatenate([T[:1], 1.5 * T[1:]])]
            if n <= 3:  # every assignment of eighth roots of unity
                roots = np.exp(2j * math.pi * np.arange(8) / 8)
                rows.append([[1.0, *roots[list(a)]]
                             for a in itertools.product(range(8), repeat=n - 1)])
            block = np.vstack([np.reshape(r, (-1, n)) for r in rows]).astype(complex)
            found, checked = assert_rows_match_reference(ModularData.from_matrices(S, T), block)
            fired, clamped = fired | found, clamped + checked
        assert fired == REPORT_CHECKS
        # the rows with a z3 S have two non-self-dual sectors
        assert clamped
