"""Self-braiding traces, Frobenius-Schur indicators and realizability.

The three computations, all functions of modular data alone:

  * trace of the self-braiding of sector i in channel k::

        tau[k][i] = (1/w_i) sum_{r,s} conj(S[r,k]) S[s,0] N^i_{r,s} w_s^2/w_r^2

  * Frobenius-Schur indicator, by two independent routes that must agree::

        nu_i = w_i tau[0][i] = sum_{r,s} S[r,0] S[s,0] N^i_{r,s} w_r^2/w_s^2

  * multiplicities of the two self-braiding eigenvalues +/- w_i^{-1} w_k^{1/2}::

        m[k][i]^{+/-} = (N^k_{i,i} +/- t_{k,i}) / 2,
        t_{k,i} = w_i w_k^{-1/2} tau[k][i]

t_{k,i} must be a real integer of the same parity as N^k_{i,i} inside
[-N^k_{i,i}, N^k_{i,i}]; candidate data violating any of this is not the
modular data of any unitary theory.  The +/- labels depend on the square
root branch: w_k^{1/2} is ``numerics.principal_sqrt`` here and in
:mod:`modata.rmatrix`, so the R-blocks carry the same labels.  The other
branch would swap m+ and m- and never change a verdict.

The trace sums are evaluated as written, the sum over s and then the one
over r for every (k, i), and stacked: ``_realizability_pass`` takes a
block of T rows that share one S, forms the trace tables, the FS sums and
the multiplicity integers t_{k,i} of every row as arrays, checks them with
masks, and builds a diagnostic only where a mask fails; a row reads the
same bits as its own block of one.  The dims, the conjugation and N come
from the S-facts fill of :mod:`modata.modular_data`, det K from its S
cache (``_det_k``), the axiom checks and the twists from
``axioms._validate_rows`` on the block, whose diagnostics each row's report
extends: a report is built once.  The search
runs the pass once per S candidate (``_reported_rows``), which leaves each
row's report on its datum; ``realizability_report`` on any other datum,
and the CLI's ``check``, ``bantay`` and ``rmatrix``, run it on a block of
one row, which also gives the tables of a passing row.
The report also checks the Cauchy theorem: the primes dividing det K,
K = sum_i N_i N_ibar, are those dividing the order of the twists.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .axioms import AxiomReport, Diagnostic, _validate_rows
from .modular_data import (DerivedData, ModularData, _capped, _derive_failure, _det_k,
                           _prime_support, _readonly, _s_facts)
from .numerics import (DEFAULT_POLICY, TolerancePolicy, _modulus, _phase, principal_sqrt,
                       turns_fraction)

__all__ = [
    "RealizabilityError",
    "trace_table",
    "fs_indicators",
    "eigen_multiplicities",
    "realizability_report",
]


class RealizabilityError(ValueError):
    """Raised by the table builders on data that cannot be realized.

    Carries the same diagnostics realizability_report would list.
    """

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        msg = "; ".join(d.message for d in self.diagnostics[:3])
        super().__init__(f"{len(self.diagnostics)} violation(s): {msg}")


def _failing(mask: np.ndarray):
    """The index tuple of every True entry of ``mask``, in row-major order;
    the Python work of a pass is proportional to what fails."""
    return zip(*(a.tolist() for a in mask.nonzero())) if mask.any() else ()


# ---------------------------------------------------------------------------
# trace table
# ---------------------------------------------------------------------------

def _trace_rows(S: np.ndarray, N: np.ndarray, W: np.ndarray) -> np.ndarray:
    """tau[r, k, i] for each row w of the (R, n) twists W, unclamped.

    Both sums are stacked over the rows: the sum over s runs along the
    contiguous last axis and the sum over r is one matrix-vector product per
    row and sector, so a row reads the same bits as its own one-row block.
    """
    W2 = W * W
    # pref[., r, s] = S[s, 0] * w_s^2 / w_r^2
    pref = (1.0 / W2)[:, :, None] * (S[:, 0] * W2)[:, None, :]
    # row_sums[., i, r] = sum_s N^i_{r,s} pref[., r, s]
    row_sums = (np.ascontiguousarray(N.transpose(2, 0, 1)) * pref[:, None]).sum(axis=-1)
    # one gemv per (row, i), tau[., :, i] = conj(S)^t row_sums[., i] / w_i
    sums = (np.conj(S).T @ row_sums[..., None])[..., 0]
    # in C order, as a one-datum table is: later products then take its BLAS path
    return np.ascontiguousarray(sums.transpose(0, 2, 1)) / W[:, None, :]


def _trace_diagnostics(tau: np.ndarray, N: np.ndarray, pol: TolerancePolicy):
    """Clamp the forbidden channels (k, i), N^k_ii = 0, of the (R, n, n)
    trace tables ``tau`` to 0 in place; per row, the diagnostics of the
    residues beyond eq_tol, in (k, i) row-major order."""
    zero = N.diagonal() == 0  # [k, i]
    residue = _modulus(tau[:, zero])
    bad = residue > pol.eq_tol
    diags: list[list[Diagnostic]] = [[] for _ in tau]
    channels = np.argwhere(zero).tolist() if bad.any() else []  # (k, i) of each column
    for r, c in _failing(bad):
        k, i = channels[c]
        diags[r].append(Diagnostic(
            "trace_zero_channel", "error", ((k, i),), _capped(residue[r, c]),
            f"internal inconsistency: tau[{k}][{i}] = {tau[r, k, i]:.3e} "
            f"but N^{k}_{{{i},{i}}} = 0"))
    tau[:, zero] = 0.0
    return diags


def trace_table(md: ModularData, dd: DerivedData,
                pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """tau[k][i], the double sum for every (k, i), as a read-only (n, n)
    complex array; md must already validate."""
    tau = _trace_rows(md.S, dd.fusion, dd.twists[None])
    diags = _trace_diagnostics(tau, dd.fusion, pol)[0]
    if diags:
        raise RealizabilityError(diags)
    return _readonly(tau[0])


# ---------------------------------------------------------------------------
# Frobenius-Schur indicators
# ---------------------------------------------------------------------------

def _fs_sums(S0: np.ndarray, N: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The direct FS sums nu_i = sum_{r,s} S[r,0] S[s,0] N^i_{r,s} w_r^2/w_s^2
    for twists W of shape (..., n), one row of sums per row of twists.

    S0 is the vacuum column S[:, 0] and N[r, s, i] = N^i_{r,s}.  Each sum
    runs over the contiguous last n^2 axis, as np.sum over one (r, s) plane
    does, so a stacked row equals its own one-row call bit for bit.
    """
    n = len(S0)
    W2 = np.asarray(W) ** 2
    pref = (S0 * W2)[..., :, None] * (S0 / W2)[..., None, :]  # [..., r, s]
    terms = np.ascontiguousarray(N.transpose(2, 0, 1)) * pref[..., None, :, :]
    return terms.reshape(*pref.shape[:-2], n, n * n).sum(axis=-1)


def _fs_diagnostics(S0: np.ndarray, N: np.ndarray, conj: np.ndarray, W: np.ndarray,
                    tau: np.ndarray, pol: TolerancePolicy):
    """(indicators, per-row diagnostics) for the (R, n) twists W and their
    clamped (R, n, n) trace tables: both routes must agree, and nu must be
    +/-1 on a self-dual sector.  The diagnostics of a row come in sector
    order, the route check of a sector before its value check.  nu = 0 on
    any other sector i needs no check: where N^0_ii = 0 the clamp makes
    w_i tau[0][i] exactly 0, and N^0_ii >= 1 means a raw Verlinde N^0_ii
    >= 0.5 > int_tol, which fails ``vacuum_fusion`` on the same row."""
    via_trace = W * tau[:, 0, :]
    via_sum = _fs_sums(S0, N, W)
    gap = _modulus(via_trace - via_sum)
    self_dual = conj == np.arange(len(conj))
    # the value nu should take: the nearer of +1 and -1 on a self-dual
    # sector, 0 on any other; dev is the distance of w_i tau[0][i] from it.
    # The sign of the real part finds the nearer one wherever dev <= int_tol.
    nearest = np.copysign(self_dual, via_trace.real)
    dev = _modulus(via_trace - nearest)
    route_bad = gap > pol.eq_tol
    value_bad = self_dual & (dev > pol.int_tol)
    nu = np.where(value_bad, 0.0, nearest).astype(int)
    diags: list[list[Diagnostic]] = [[] for _ in W]
    for r, i in _failing(route_bad | value_bad):
        val = via_trace[r, i]
        if route_bad[r, i]:
            diags[r].append(Diagnostic(
                "fs_route_agreement", "error", ((i,),), _capped(gap[r, i]),
                f"FS indicator violation: w*tau route {val:.6g} differs "
                f"from the direct sum {via_sum[r, i]:.6g} at sector {i}"))
        if value_bad[r, i]:
            diags[r].append(Diagnostic(
                "fs_value", "error", ((i,),), _capped(dev[r, i]),
                f"FS indicator violation: nu_{i} = {val:.6g} is not +/-1"))
    return nu, diags


def fs_indicators(md: ModularData, dd: DerivedData, tau: np.ndarray,
                  pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """nu[i] in {-1, 0, +1} by both routes from the trace table ``tau``, as a
    read-only (n,) int array; 0 exactly on the sectors that are not
    self-dual.  Raises RealizabilityError on any mismatch."""
    nu, diags = _fs_diagnostics(md.S[:, 0], dd.fusion, dd.conj, dd.twists[None],
                                tau[None], pol)
    if diags[0]:
        raise RealizabilityError(diags[0])
    return _readonly(nu[0])


# ---------------------------------------------------------------------------
# eigenvalue multiplicities
# ---------------------------------------------------------------------------

def _multiplicity_diagnostics(N: np.ndarray, W: np.ndarray, tau: np.ndarray,
                              pol: TolerancePolicy):
    """(m_plus, m_minus, per-row diagnostics) for the (R, n) twists W and
    their clamped (R, n, n) trace tables.

    Each channel (k, i) with N^k_ii > 0 gets its first failing condition, in
    (k, i) row-major order; m+/- stay 0 on a failing channel and on the
    forbidden ones.
    """
    it, mult = pol.int_tol, N.diagonal()  # mult[k, i] = N^k_ii
    sqrt_w = principal_sqrt(_phase(W))  # |w_k| - 1 may reach about 2 eq_tol
    # t[., k, i]; 0 on the forbidden channels, whose trace is clamped to 0
    t = W[:, None, :] / sqrt_w[:, :, None] * tau
    ti = np.rint(t.real)
    good = ((np.maximum(np.abs(t.imag), np.abs(t.real - ti)) <= it) & (np.abs(ti) <= mult)
            & (np.fmod(ti - mult, 2) == 0))
    m_good = mult * good
    m_plus = (m_good + (ti * good).astype(int)) >> 1  # (N + t)/2, N + t even and >= 0
    diags: list[list[Diagnostic]] = [[] for _ in W]
    # t = 0 passes every condition, so only channels with N^k_ii > 0 fail
    for r, k, i in _failing(~good):
        # the first condition that fails, in the order real, integer, range, parity
        tc, tr, mc = complex(t[r, k, i]), float(ti[r, k, i]), int(mult[k, i])
        if not abs(tc.imag) <= it:
            cond_id, dev, msg = "mult_real", abs(tc.imag), f"t = {tc:.6g} is not real"
        elif not abs(tc.real - tr) <= it:
            cond_id, dev, msg = ("mult_integer", abs(tc.real - tr),
                                 f"t = {tc.real:.6g} is not an integer")
        elif not abs(tr) <= mc:
            cond_id, dev, msg = ("mult_range", abs(tr) - mc,
                                 f"|t| = {abs(int(tr))} exceeds N^k_ii = {mc}")
        else:
            cond_id, dev, msg = ("mult_parity", 1.0,
                                 f"t = {int(tr)} has parity different from N^k_ii = {mc}")
        diags[r].append(Diagnostic(cond_id, "error", ((k, i),), _capped(dev),
                                   f"realizability violation at (k,i)=({k},{i}): {msg}"))
    return m_plus, m_good - m_plus, diags


def eigen_multiplicities(dd: DerivedData, tau: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Split each N^k_{i,i} into the two eigenvalue multiplicities: (m_plus,
    m_minus), read-only (n, n) int arrays indexed [k, i], whose sum is
    N^k_{i,i} entrywise.

    w_k^{1/2} is the principal square root.  Raises RealizabilityError when
    any channel fails the reality/integrality/range/parity conditions.
    """
    m_plus, m_minus, diags = _multiplicity_diagnostics(dd.fusion, dd.twists[None],
                                                       tau[None], pol)
    if diags[0]:
        raise RealizabilityError(diags[0])
    return _readonly(m_plus[0]), _readonly(m_minus[0])


# ---------------------------------------------------------------------------
# Cauchy theorem
# ---------------------------------------------------------------------------

def _twist_fractions(W: np.ndarray, pol: TolerancePolicy) -> list[list[Fraction | None]]:
    """``turns_fraction`` of every twist of the (R, n) block W, called once
    per distinct value: the rows of one S candidate share most of their roots."""
    memo: dict[complex, Fraction | None] = {}

    def fraction(z: complex) -> Fraction | None:
        if z not in memo:
            memo[z] = turns_fraction(z, pol=pol)
        return memo[z]

    return [[fraction(z) for z in row] for row in W.tolist()]


def _cauchy_diagnostics(fracs: list[Fraction | None], det: int):
    """(primes in the symmetric difference, diagnostics) of primes(det K) and
    primes(ord T), for the twists with turn fractions ``fracs``
    (``turns_fraction``), with K = sum_i N_i N_ibar and det = det K.

    A twist that is no root of unity of order <= 240 leaves ord T unknown:
    that is a warning, since SU(2)_k has ord T = 4(k+2) > 240 for k >= 59.
    """
    unknown = [(i,) for i, f in enumerate(fracs) if f is None]
    if unknown:
        return 0.0, [Diagnostic(
            "cauchy", "warning", tuple(unknown), 0.0,
            "twist order unknown: no root of unity of order <= 240; "
            "the Cauchy theorem is not checked")]
    if det == 0:  # K >= N_0 N_0^t = 1 on a fusion ring, so det K >= 1 there
        return 1.0, [Diagnostic("cauchy", "error", (), 1.0,
                                "Cauchy theorem violated: det K = 0")]
    order_primes = _prime_support(math.lcm(*(f.denominator for f in fracs)))
    missing = sorted(p for p in order_primes if det % p)
    cofactor = abs(det)
    for p in order_primes:
        while cofactor % p == 0:
            cofactor //= p
    extra = sorted(_prime_support(cofactor))
    count = float(len(missing) + len(extra))
    if not count:
        return 0.0, []
    return count, [Diagnostic(
        "cauchy", "error", (), count,
        f"Cauchy theorem violated: det K = {det} and ord T have different primes "
        f"(only in ord T: {missing}, only in det K: {extra})")]


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

def _realizability_pass(md: ModularData, T: np.ndarray, pol: TolerancePolicy
                        ) -> tuple[list[AxiomReport], list[tuple | None]]:
    """(reports, tables): ``realizability_report`` on each row of the
    (R, n) block T of diagonals with the S of ``md``, whose T is not read,
    and per row the read-only tables (tau, nu, m_plus, m_minus) its passing
    report was decided on, or None when it fails.

    The axiom checks (``axioms._validate_rows``), the trace tables, the FS
    sums, the multiplicity integers t_{k,i} with their masks and the trace
    identities are computed once for the whole block, and a row reads the
    same bits as its own one-row block; Python builds a ``Diagnostic`` only
    where a mask fails, and each row's report once, from the lists of its
    axiom checks.  What S alone decides comes from the S facts.
    """
    base = _validate_rows(md, T, pol)
    facts = _s_facts(md, pol)
    dims, conj, N = facts.dims, facts.conj, facts.fusion
    # a row with some |T_i| <= eq_tol fails t_unimodular, and the traces
    # would divide by its w_i^2; like a row with T_0 = 0 it is left out, and
    # so is a row whose traces overflow
    live = np.flatnonzero(base.twisted) if facts.error is None else np.zeros(0, dtype=int)
    with np.errstate(all="ignore"):
        if len(live):
            W = base.W if len(live) == len(base.W) else base.W[live]
            tau = _trace_rows(md.S, N, W)
            if not np.isfinite(tau).all():
                finite = np.isfinite(tau).all(axis=(1, 2))
                live, W, tau = live[finite], W[finite], tau[finite]
        if len(live):
            trace_diags = _trace_diagnostics(tau, N, pol)
            nu, fs_diags = _fs_diagnostics(md.S[:, 0], N, conj, W, tau, pol)
            m_plus, m_minus, mult_diags = _multiplicity_diagnostics(N, W, tau, pol)
            fracs, det_k = _twist_fractions(W, pol), _det_k(md, pol)
            # tau[k][i] = tau[kbar][ibar]
            sym_dev = np.abs(tau - tau[:, conj[:, None], conj])
            sym_max = sym_dev.max(axis=(1, 2)).tolist()
            # ribbon identity, warning only: holds on every known model but is
            # not enforced as an axiom
            ribbon = np.abs(dims @ tau - dims * W)
            ribbon_max = ribbon.max(axis=1).tolist()
            # a passing row gets views of these; a skipped row fails
            tables = tuple(map(_readonly, (tau, nu, m_plus, m_minus)))

    reports, row_tables = [], []
    at = dict(zip(live.tolist(), range(len(live))))
    for r, (diags, note, meas) in enumerate(base.rows):
        j = at.get(r)
        if j is None:
            if not diags:  # every S and T diagnostic is an error
                diags.append(Diagnostic("derivation", "error", (), 0.0,
                                        _derive_failure(facts, base.ok[r])))
        else:
            meas["cauchy"], cauchy_diags = _cauchy_diagnostics(fracs[j], det_k)
            diags += cauchy_diags
            for key, found in (("trace_zero_channel", trace_diags[j]),
                               ("fs_indicator", fs_diags[j]), ("multiplicities", mult_diags[j])):
                diags += found
                meas[key] = max((d.measured for d in found), default=0.0)
            m = meas["trace_conjugation"] = _capped(sym_max[j])
            if m > pol.eq_tol:
                bad = np.argwhere(~(sym_dev[j] <= pol.eq_tol))[:8].tolist()
                diags.append(Diagnostic("trace_conjugation", "error", tuple(map(tuple, bad)), m,
                                        "tau[k][i] != tau[kbar][ibar]"))
            m = meas["twist_trace"] = _capped(ribbon_max[j])
            if m > pol.eq_tol:
                bad = np.flatnonzero(~(ribbon[j] <= pol.eq_tol)).tolist()
                diags.append(Diagnostic("twist_trace", "warning", tuple((i,) for i in bad), m,
                                        "sum_k d_k tau[k][i] != d_i w_i"))
        report = AxiomReport(diags, note, meas)
        reports.append(report)
        row_tables.append(tuple(a[j] for a in tables) if report.passed else None)
    return reports, row_tables


def _reported_rows(md: ModularData, diagonals: list[np.ndarray],
                   pol: TolerancePolicy) -> list[ModularData]:
    """The datum (S of ``md``, t) of each T diagonal t, sharing md's S cache,
    its ``realizability_report`` under ``pol`` already decided by one stacked
    pass over the whole block."""
    if not diagonals:
        return []
    reports, _ = _realizability_pass(md, np.array(diagonals), pol)
    rows = [md._with_t(t) for t in diagonals]
    for row, report in zip(rows, reports):
        row._memo[pol] = report
    return rows


def realizability_report(md: ModularData, pol: TolerancePolicy = DEFAULT_POLICY) -> AxiomReport:
    """Axioms plus every trace-derived constraint, as one diagnostic report.

    Aggregates: the validate() battery; the Cauchy theorem (``cauchy``:
    the primes of det K, K = sum_i N_i N_ibar, are those of the order of
    the twists, and ``measurements["cauchy"]`` counts the primes on one
    side only; a twist that is no root of unity of order <= 240 makes it a
    warning); forbidden-channel trace residues; FS route agreement and the
    value +/-1 on self-dual sectors (the clamp and ``vacuum_fusion`` decide
    the others); the four multiplicity conditions per channel; trace
    invariance under charge conjugation.  Data that fail the axioms get
    these too.  The twist-trace identity sum_k d_k tau[k][i] = d_i w_i is a
    warning only.  FS route agreement and trace conjugation follow from the
    rest in exact arithmetic, yet under the tolerances either can be the
    only failure.

    The report is computed once per datum and policy; the data a stacked
    pass made (``_reported_rows``) already hold theirs.
    """
    report = md._memo.get(pol)
    if report is None:
        report = md._memo[pol] = _realizability_pass(md, md.T[None], pol)[0][0]
    return report
