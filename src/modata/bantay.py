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

The trace sums are evaluated literally, one O(rank^2) sum per entry; at the
ranks this package targets there is nothing to gain from factoring them.

``realizability_report`` builds the three tables once, in the same pass
the CLI takes its verdicts and tables from; ``trace_table``,
``fs_indicators`` and ``eigen_multiplicities`` build one table each.  The
report also checks the Cauchy theorem: the primes dividing det K,
K = sum_i N_i N_ibar, are those dividing the order of the twists.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axioms import AxiomReport, Diagnostic, make_report, validate
from .modular_data import (DerivedData, InvalidModularData, ModularData, _prime_support,
                           _readonly, derive)
from .numerics import DEFAULT_POLICY, TolerancePolicy, principal_sqrt, turns_fraction

__all__ = [
    "TraceTable",
    "IndicatorVector",
    "MultiplicityTable",
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


@dataclass(frozen=True)
class TraceTable:
    """tau[k][i]: trace of the self-braiding of i restricted to channel k."""

    tau: np.ndarray  # (rank, rank) complex

    def __post_init__(self):
        object.__setattr__(self, "tau", _readonly(np.asarray(self.tau, dtype=complex)))

    def to_json_dict(self) -> dict:
        return {"tau": [[[z.real, z.imag] for z in row] for row in self.tau]}


@dataclass(frozen=True)
class IndicatorVector:
    """nu[i] in {-1, 0, +1}; 0 exactly for non-self-conjugate sectors."""

    nu: np.ndarray  # (rank,) int

    def __post_init__(self):
        object.__setattr__(self, "nu", _readonly(np.asarray(self.nu, dtype=int)))

    def to_json_dict(self) -> dict:
        return {"nu": [int(v) for v in self.nu]}


@dataclass(frozen=True)
class MultiplicityTable:
    """Eigenvalue multiplicities; m_plus + m_minus = N^k_{i,i} entrywise."""

    m_plus: np.ndarray   # (rank, rank) int, indexed [k, i]
    m_minus: np.ndarray  # (rank, rank) int

    def __post_init__(self):
        object.__setattr__(self, "m_plus", _readonly(np.asarray(self.m_plus, dtype=int)))
        object.__setattr__(self, "m_minus", _readonly(np.asarray(self.m_minus, dtype=int)))

    def to_json_dict(self) -> dict:
        return {
            "m_plus": [[int(v) for v in row] for row in self.m_plus],
            "m_minus": [[int(v) for v in row] for row in self.m_minus],
        }


# ---------------------------------------------------------------------------
# trace table
# ---------------------------------------------------------------------------

def _trace_table_raw(md: ModularData, dd: DerivedData) -> np.ndarray:
    S = md.S
    w = dd.twists
    N = dd.fusion
    n = md.rank
    w2 = w * w
    # pref[r, s] = S[s, 0] * w_s^2 / w_r^2
    pref = (1.0 / w2)[:, None] * (S[:, 0] * w2)[None, :]
    tau = np.empty((n, n), dtype=complex)
    for i in range(n):
        row_sums = (N[:, :, i] * pref).sum(axis=1)  # sum over s; index r remains
        tau[:, i] = (np.conj(S).T @ row_sums) / w[i]
    return tau


def _trace_diagnostics(md: ModularData, dd: DerivedData, pol: TolerancePolicy):
    """(clamped trace table, diagnostics for forbidden-channel residue)."""
    tau = _trace_table_raw(md, dd)
    diags: list[Diagnostic] = []
    # the forbidden channels (k, i), N^k_ii = 0, in row-major order
    for k, i in np.argwhere(dd.fusion.diagonal() == 0).tolist():
        residue = abs(tau[k, i])
        if residue > pol.eq_tol:
            diags.append(Diagnostic(
                "trace_zero_channel", "error", ((k, i),), float(residue),
                f"internal inconsistency: tau[{k}][{i}] = {tau[k, i]:.3e} "
                f"but N^{k}_{{{i},{i}}} = 0"))
        tau[k, i] = 0.0
    return tau, diags


def trace_table(md: ModularData, dd: DerivedData,
                pol: TolerancePolicy = DEFAULT_POLICY) -> TraceTable:
    """Evaluate the double sum for every (k, i); md must already validate."""
    tau, diags = _trace_diagnostics(md, dd, pol)
    if diags:
        raise RealizabilityError(diags)
    return TraceTable(tau=tau)


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


def _fs_diagnostics(md: ModularData, dd: DerivedData, tt: TraceTable,
                    pol: TolerancePolicy):
    """(indicator ints, diagnostics) checking both routes and the value set."""
    w = dd.twists
    via_trace = w * tt.tau[0, :]
    via_sum = _fs_sums(md.S[:, 0], dd.fusion, w)
    diags: list[Diagnostic] = []
    nu = np.zeros(md.rank, dtype=int)
    for i in range(md.rank):
        gap = abs(via_trace[i] - via_sum[i])
        if gap > pol.eq_tol:
            diags.append(Diagnostic(
                "fs_route_agreement", "error", ((i,),), float(gap),
                f"FS indicator violation: w*tau route {via_trace[i]:.6g} differs "
                f"from the direct sum {via_sum[i]:.6g} at sector {i}"))
        val = via_trace[i]
        if dd.conj[i] != i:
            if abs(val) > pol.eq_tol:
                diags.append(Diagnostic(
                    "fs_selfdual_pattern", "error", ((i,),), float(abs(val)),
                    f"FS indicator violation: sector {i} is not self-conjugate "
                    f"but nu = {val:.6g}"))
            nu[i] = 0
            continue
        dev = min(abs(val - 1.0), abs(val + 1.0))
        if dev > pol.int_tol:
            diags.append(Diagnostic(
                "fs_value", "error", ((i,),), float(dev),
                f"FS indicator violation: nu_{i} = {val:.6g} is not +/-1"))
            continue
        nu[i] = 1 if abs(val - 1.0) <= abs(val + 1.0) else -1
    return nu, diags


def fs_indicators(md: ModularData, dd: DerivedData, tt: TraceTable,
                  pol: TolerancePolicy = DEFAULT_POLICY) -> IndicatorVector:
    """Indicators by both routes; raises RealizabilityError on any mismatch."""
    nu, diags = _fs_diagnostics(md, dd, tt, pol)
    if diags:
        raise RealizabilityError(diags)
    return IndicatorVector(nu=nu)


# ---------------------------------------------------------------------------
# eigenvalue multiplicities
# ---------------------------------------------------------------------------

def _multiplicity_diagnostics(md: ModularData, dd: DerivedData, tt: TraceTable,
                              pol: TolerancePolicy):
    w = dd.twists
    diag = dd.fusion.diagonal()  # diag[k, i] = N^k_ii
    m_plus = np.zeros_like(diag)
    m_minus = np.zeros_like(diag)
    diags: list[Diagnostic] = []

    def bad(cond_id, k, i, dev, msg):
        diags.append(Diagnostic(cond_id, "error", ((k, i),), float(dev),
                                f"realizability violation at (k,i)=({k},{i}): {msg}"))

    # the phase of w_k: validate lets |w_k| - 1 reach about 2 eq_tol
    sqrt_w = [principal_sqrt(wk / abs(wk)) for wk in w]
    # the channels (k, i) with N^k_ii > 0 in row-major order; the trace
    # table is already clamped to 0 elsewhere, where m+/- stay 0
    for k, i in np.argwhere(diag).tolist():
        m = int(diag[k, i])
        t = w[i] / sqrt_w[k] * tt.tau[k, i]
        if abs(t.imag) > pol.int_tol:
            bad("mult_real", k, i, abs(t.imag), f"t = {t:.6g} is not real")
            continue
        ti = round(t.real)
        if abs(t.real - ti) > pol.int_tol:
            bad("mult_integer", k, i, abs(t.real - ti),
                f"t = {t.real:.6g} is not an integer")
            continue
        if abs(ti) > m:
            bad("mult_range", k, i, float(abs(ti) - m),
                f"|t| = {abs(ti)} exceeds N^k_ii = {m}")
            continue
        if (ti - m) % 2 != 0:
            bad("mult_parity", k, i, 1.0,
                f"t = {ti} has parity different from N^k_ii = {m}")
            continue
        m_plus[k, i] = (m + ti) // 2
        m_minus[k, i] = (m - ti) // 2
    table = MultiplicityTable(m_plus=m_plus, m_minus=m_minus)
    return table, diags


def eigen_multiplicities(md: ModularData, dd: DerivedData, tt: TraceTable,
                         pol: TolerancePolicy = DEFAULT_POLICY) -> MultiplicityTable:
    """Split each N^k_{i,i} into the two eigenvalue multiplicities.

    w_k^{1/2} is the principal square root.  Raises RealizabilityError when
    any channel fails the reality/integrality/range/parity conditions.
    """
    table, diags = _multiplicity_diagnostics(md, dd, tt, pol)
    if diags:
        raise RealizabilityError(diags)
    return table


# ---------------------------------------------------------------------------
# Cauchy theorem
# ---------------------------------------------------------------------------

def _cauchy_diagnostics(dd: DerivedData, det: int, pol: TolerancePolicy):
    """(primes in the symmetric difference, diagnostics) of primes(det K) and
    primes(ord T), with K = sum_i N_i N_ibar over dd.fusion and det = det K.

    A twist that is no root of unity of order <= 240 leaves ord T unknown:
    that is a warning, since SU(2)_k has ord T = 4(k+2) > 240 for k >= 59.
    """
    fracs = [turns_fraction(w, pol=pol) for w in dd.twists]
    unknown = [(i,) for i, f in enumerate(fracs) if f is None]
    if unknown:
        return 0.0, [Diagnostic(
            "cauchy", "warning", tuple(unknown), 0.0,
            "twist order unknown: no root of unity of order <= 240; "
            "the Cauchy theorem is not checked")]
    if det == 0:  # K >= N_0 N_0^t = 1 on a fusion ring, so det K >= 1 there
        return 1.0, [Diagnostic("cauchy", "error", (), 1.0,
                                "Cauchy theorem violated: det K = 0")]
    order_primes = set().union(*(_prime_support(f.denominator) for f in fracs))
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

def _realizability_pass(md: ModularData, base: AxiomReport, pol: TolerancePolicy):
    """Extend the validate() report ``base`` with every trace constraint.

    Returns ``(report, (dd, tt, nu, mt))``, the tables the verdict was
    decided on, when the report passes and ``(report, None)`` otherwise.
    """
    diags = list(base.diagnostics)
    meas = dict(base.measurements)
    try:
        dd = derive(md, pol)
    except InvalidModularData as exc:
        if not any(d.severity == "error" for d in diags):
            diags.append(Diagnostic("derivation", "error", (), 0.0, str(exc)))
        return make_report(diags, base.convention_note, meas), None

    meas["cauchy"], cauchy_diags = _cauchy_diagnostics(dd, md._s.casimir_det, pol)
    diags.extend(cauchy_diags)

    tau, trace_diags = _trace_diagnostics(md, dd, pol)
    diags.extend(trace_diags)
    meas["trace_zero_channel"] = max((d.measured for d in trace_diags), default=0.0)
    tt = TraceTable(tau=tau)

    nu, fs_diags = _fs_diagnostics(md, dd, tt, pol)
    diags.extend(fs_diags)
    meas["fs_indicator"] = max((d.measured for d in fs_diags), default=0.0)

    mt, mult_diags = _multiplicity_diagnostics(md, dd, tt, pol)
    diags.extend(mult_diags)
    meas["multiplicities"] = max((d.measured for d in mult_diags), default=0.0)

    # tau[k][i] = tau[kbar][ibar]
    conj = dd.conj
    sym_dev = np.abs(tau - tau[np.ix_(conj, conj)])
    meas["trace_conjugation"] = float(np.max(sym_dev))
    if meas["trace_conjugation"] > pol.eq_tol:
        bad = np.argwhere(sym_dev > pol.eq_tol)
        diags.append(Diagnostic(
            "trace_conjugation", "error",
            tuple(tuple(int(x) for x in t) for t in bad[:8]),
            meas["trace_conjugation"],
            "tau[k][i] != tau[kbar][ibar]"))

    # ribbon identity, warning only: holds on every known model but is not
    # enforced as an axiom
    ribbon = dd.dims @ tau - dd.dims * dd.twists
    meas["twist_trace"] = float(np.max(np.abs(ribbon)))
    if meas["twist_trace"] > pol.eq_tol:
        bad = [(int(i),) for i in np.argwhere(np.abs(ribbon) > pol.eq_tol).ravel()]
        diags.append(Diagnostic(
            "twist_trace", "warning", tuple(bad), meas["twist_trace"],
            "sum_k d_k tau[k][i] != d_i w_i"))

    report = make_report(diags, base.convention_note, meas)
    return report, ((dd, tt, IndicatorVector(nu=nu), mt) if report.passed else None)


def realizability_report(md: ModularData, pol: TolerancePolicy = DEFAULT_POLICY) -> AxiomReport:
    """Axioms plus every trace-derived constraint, as one diagnostic report.

    Aggregates: the validate() battery; the Cauchy theorem (``cauchy``:
    the primes of det K, K = sum_i N_i N_ibar, are those of the order of
    the twists, and ``measurements["cauchy"]`` counts the primes on one
    side only; a twist that is no root of unity of order <= 240 makes it a
    warning); forbidden-channel trace residues; FS route agreement, value
    set and self-duality pattern; the four multiplicity conditions per
    channel; trace invariance under charge conjugation.  The twist-trace
    identity sum_k d_k tau[k][i] = d_i w_i is reported at warning severity
    only.  FS route agreement and trace
    conjugation follow from the rest in exact arithmetic, yet under the
    tolerances either can be the only failure.
    """
    return _realizability_pass(md, validate(md, pol), pol)[0]
