"""Modularity axiom checks with machine-readable diagnostics.

``validate`` runs, in order:

  a. s_unitary          S S* = 1
  b. s_symmetric        S = S^t
  c. t_unimodular       |T_i| = 1
  d. charge_conjugation S^2 is a permutation C, C^2 = 1, C(0) = 0
  e. st_cubed           (S T)^3 = C, entrywise and with no global-phase slack
  f. verlinde / vacuum  N^k_{i,j} integral >= 0 and N^0_{i,j} = delta_{j, ibar}
  g. dims_row           d_i >= 1 and S_{0,i} real > 0
  h. conjugate_symmetry w_ibar = w_i and d_ibar = d_i

All checks run even after a failure so one report carries the complete
violation profile; each check records its maximum deviation in
``report.measurements`` whether it passed or not.  Checks a, b, d, f and g
and the dims half of h read S alone: they run once per S and policy, and
data that share an S cache (see :mod:`modata.modular_data`) share them.
Checks c, e and the twist half of h read T: ``_validate_rows`` runs them on
a whole block of T rows with one S at once, and ``validate`` is its block
of one row.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .modular_data import ModularData, _cube, _s_conjugation, _twist_rows
from .numerics import DEFAULT_POLICY, TolerancePolicy

__all__ = ["Diagnostic", "AxiomReport", "validate", "detect_convention"]


@dataclass(frozen=True)
class Diagnostic:
    check_id: str
    severity: str  # "error" | "warning"
    indices: tuple[tuple[int, ...], ...]
    measured: float
    message: str

    def __post_init__(self):
        if self.severity not in ("error", "warning"):
            raise ValueError(f"bad severity {self.severity!r}")
        if self.measured < 0:
            raise ValueError("measured deviation must be >= 0")

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "severity": self.severity,
            "indices": [list(t) for t in self.indices],
            "measured": self.measured,
            "message": self.message,
        }


@dataclass(frozen=True)
class AxiomReport:
    verdict: str  # "pass" | "fail"
    diagnostics: tuple[Diagnostic, ...]
    convention_note: str | None = None
    measurements: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def max_deviation(self) -> float:
        """The largest measured deviation; the ``cauchy`` prime count is no
        deviation and stays out."""
        return max((v for k, v in self.measurements.items() if k != "cauchy"), default=0.0)

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "diagnostics": [d.to_json_dict() for d in self.diagnostics],
            "convention_note": self.convention_note,
            "measurements": self.measurements,
        }


def make_report(diagnostics: list[Diagnostic], convention_note: str | None = None,
                measurements: dict[str, float] | None = None) -> AxiomReport:
    verdict = "fail" if any(d.severity == "error" for d in diagnostics) else "pass"
    return AxiomReport(
        verdict=verdict,
        diagnostics=tuple(diagnostics),
        convention_note=convention_note,
        measurements=dict(measurements or {}),
    )


class _SChecks(NamedTuple):
    """Checks a, b, d, f and g and the dims half of h: S alone decides them."""

    ab_diags: list[Diagnostic]
    ab_meas: dict[str, float]
    d_diags: list[Diagnostic]
    d_meas: float
    fg_diags: list[Diagnostic]
    fg_meas: dict[str, float]
    conj: np.ndarray | None  # the conjugation, when check d passes
    dims_dev: float          # max |d_ibar - d_i|, with d_i = |S_0i|
    dims_bad: np.ndarray     # per sector, |d_ibar - d_i| > eq_tol


def _s_checks(md: ModularData, pol: TolerancePolicy) -> _SChecks:
    S, n = md.S, md.rank
    ab_diags: list[Diagnostic] = []
    d_diags: list[Diagnostic] = []
    fg_diags: list[Diagnostic] = []
    ab_meas: dict[str, float] = {}
    fg_meas: dict[str, float] = {}

    def fail(diags, check_id, indices, dev, message):
        diags.append(Diagnostic(check_id, "error", tuple(indices), float(dev), message))

    # a. unitarity
    dev_u = np.abs(S @ S.conj().T - np.eye(n))
    ab_meas["s_unitary"] = float(np.max(dev_u))
    if ab_meas["s_unitary"] > pol.eq_tol:
        i, j = np.unravel_index(int(np.argmax(dev_u)), dev_u.shape)
        fail(ab_diags, "s_unitary", [(int(i), int(j))], ab_meas["s_unitary"],
             f"S S* deviates from identity by {ab_meas['s_unitary']:.3e}")

    # b. symmetry
    dev_s = np.abs(S - S.T)
    ab_meas["s_symmetric"] = float(np.max(dev_s))
    if ab_meas["s_symmetric"] > pol.eq_tol:
        i, j = np.unravel_index(int(np.argmax(dev_s)), dev_s.shape)
        fail(ab_diags, "s_symmetric", [(int(i), int(j))], ab_meas["s_symmetric"],
             f"S is not symmetric: entry ({i},{j})")

    # d. S^2 is a conjugation
    perm, row_dev, ok = md._s_fact(_s_conjugation, pol)
    conj = perm if ok else None
    conj_dev = float(np.max(row_dev))
    if not ok:
        fail(d_diags, "charge_conjugation", [tuple(int(x) for x in perm)], conj_dev,
             "S^2 is not a vacuum-fixing involutive permutation")

    # f. Verlinde integrality + vacuum fusion row
    if np.min(np.abs(S[0, :])) > pol.eq_tol:
        raw = md.verlinde_raw
        rounded, dev_v = md._s.verlinde_rounded
        neg = rounded < 0
        fg_meas["verlinde_integrality"] = float(np.max(dev_v))
        if fg_meas["verlinde_integrality"] > pol.int_tol or np.any(neg):
            bad = np.argwhere((dev_v > pol.int_tol) | neg)
            fail(fg_diags, "verlinde_integrality",
                 [tuple(int(x) for x in t) for t in bad[:8]],
                 fg_meas["verlinde_integrality"],
                 f"{len(bad)} fusion entries fail integrality/nonnegativity")
        if conj is not None:
            expected = np.zeros((n, n), dtype=int)
            expected[np.arange(n), conj] = 1
            dev_n0 = np.abs(raw[:, :, 0] - expected)
            fg_meas["vacuum_fusion"] = float(np.max(dev_n0))
            if fg_meas["vacuum_fusion"] > pol.int_tol:
                bad = np.argwhere(dev_n0 > pol.int_tol)
                fail(fg_diags, "vacuum_fusion", [tuple(int(x) for x in t) for t in bad[:8]],
                     fg_meas["vacuum_fusion"],
                     "N^0_{i,j} != delta_{j, ibar}")
    else:
        fg_meas["verlinde_integrality"] = 1.0
        fail(fg_diags, "verlinde_integrality", [], 1.0,
             "vanishing S_{0,r}: Verlinde sum undefined")

    # g. first row positive, dims >= 1
    row0 = S[0, :]
    dev_imag = float(np.max(np.abs(row0.imag)))
    shortfall = float(np.max(np.maximum(0.0, -row0.real)))
    fg_meas["dims_row"] = max(dev_imag, shortfall)
    if dev_imag > pol.eq_tol or np.any(row0.real <= 0):
        bad = [(int(i),) for i in np.argwhere(
            (np.abs(row0.imag) > pol.eq_tol) | (row0.real <= 0)).ravel()]
        fail(fg_diags, "dims_row", bad, max(fg_meas["dims_row"], pol.eq_tol),
             "S_{0,i} must be real and > 0")
    else:
        d = (row0 / row0[0]).real
        short = 1.0 - float(np.min(d))
        fg_meas["dims_row"] = max(fg_meas["dims_row"], max(0.0, short))
        if np.any(d < 1.0 - pol.int_tol):
            bad = [(int(i),) for i in np.argwhere(d < 1.0 - pol.int_tol).ravel()]
            fail(fg_diags, "dims_row", bad, fg_meas["dims_row"], "quantum dimension below 1")

    # h, dims half: conjugate sectors have equal dims
    dims_dev, dims_bad = 0.0, np.zeros(n, dtype=bool)
    if conj is not None:
        d_row = np.abs(S[0, :])
        dims_gap = np.abs(d_row[conj] - d_row)
        dims_dev, dims_bad = float(np.max(dims_gap)), dims_gap > pol.eq_tol
    return _SChecks(ab_diags, ab_meas, d_diags, conj_dev, fg_diags, fg_meas, conj,
                    dims_dev, dims_bad)


def validate(md: ModularData, pol: TolerancePolicy = DEFAULT_POLICY) -> AxiomReport:
    """Run the full axiom battery on md; never raises on bad math."""
    return _validate_rows(md, md.T[None], pol)[0]


def _validate_rows(md: ModularData, T: np.ndarray, pol: TolerancePolicy) -> list[AxiomReport]:
    """``validate`` on each row of the (R, n) block T of diagonals with the
    S of ``md``, whose T is not read.

    Checks c, e and the twist half of h are stacked over the rows, and a row
    reads the same bits as its own one-row block; the S-only checks come
    from the S cache.
    """
    s = md._s_fact(_s_checks, pol)
    W, ok = _twist_rows(T, pol)
    # c. T unimodular
    dev_t = np.abs(np.abs(T) - 1.0)
    c_meas = dev_t.max(axis=1)
    # e. (S T)^3 = C, compared against S^2 itself so it stays meaningful
    #    even when (d) failed
    M3 = _cube(md.S, T)
    dev_e = np.abs(M3 - md.S2).reshape(len(T), -1)
    e_meas = dev_e.max(axis=1)
    # h. conjugate symmetry of twists and dims; with T_0 vanishing (c failed)
    #    the twists T_i/T_0 are undefined and only the dims are compared
    conj = s.conj
    if conj is not None:
        gap_w = np.abs(W[:, conj] - W)
        gap_max = gap_w.max(axis=1)

    reports = []
    for r in range(len(T)):
        diags: list[Diagnostic] = list(s.ab_diags)
        meas: dict[str, float] = dict(s.ab_meas)
        meas["t_unimodular"] = float(c_meas[r])
        if meas["t_unimodular"] > pol.eq_tol:
            i = int(dev_t[r].argmax())
            diags.append(Diagnostic("t_unimodular", "error", ((i,),), meas["t_unimodular"],
                                    f"|T_{i}| = {abs(T[r, i]):.12g} is not 1"))
        diags.extend(s.d_diags)
        meas["charge_conjugation"] = s.d_meas
        meas["st_cubed"] = float(e_meas[r])
        note = None
        if meas["st_cubed"] > pol.eq_tol:
            i, j = divmod(int(dev_e[r].argmax()), md.rank)
            diags.append(Diagnostic("st_cubed", "error", ((i, j),), meas["st_cubed"],
                                    f"(S T)^3 differs from S^2 by {meas['st_cubed']:.3e} "
                                    f"at ({i},{j})"))
            note = _convention_note(M3[r], md.S2, pol)
        # f. Verlinde integrality + vacuum fusion row; g. dims row
        diags.extend(s.fg_diags)
        meas.update(s.fg_meas)
        if conj is not None:
            w_gap = float(gap_max[r]) if ok[r] else 0.0
            meas["conjugate_symmetry"] = max(w_gap, s.dims_dev)
            if meas["conjugate_symmetry"] > pol.eq_tol:
                bad = np.flatnonzero((ok[r] & (gap_w[r] > pol.eq_tol)) | s.dims_bad)
                diags.append(Diagnostic("conjugate_symmetry", "error",
                                        tuple((int(i),) for i in bad),
                                        meas["conjugate_symmetry"],
                                        "twists/dims differ between conjugate sectors"))
        reports.append(make_report(diags, convention_note=note, measurements=meas))
    return reports


def detect_convention(md: ModularData, pol: TolerancePolicy = DEFAULT_POLICY) -> str | None:
    """Hint when data satisfies (S T)^3 = 1 instead of (S T)^3 = S^2.

    The two presentations differ by complex-conjugating S.  The data is
    never mutated; the caller decides what to do with the note.
    """
    return _convention_note(md.ST_cubed, md.S2, pol)


def _convention_note(M: np.ndarray, S2: np.ndarray, pol: TolerancePolicy) -> str | None:
    """detect_convention's note for the cube M = (S T)^3."""
    if np.max(np.abs(M - S2)) <= pol.eq_tol:
        return None
    if np.max(np.abs(M - np.eye(len(M)))) <= pol.eq_tol:
        return (
            "data satisfies (S T)^3 = 1, the conjugate presentation; "
            "conjugate S entrywise to obtain the (S T)^3 = C convention"
        )
    return None
