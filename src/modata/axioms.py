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
``report.measurements`` whether it passed or not, the largest float for
one that overflows.  Checks a, b, d, f and g and the dims half of h read
S alone: their deviations and failures are part of the S-facts fill
``modular_data._fill_s_facts``, once per S and policy, and this module
makes the failures into diagnostics.  Checks c, e and the twist half of h
read T: ``_validate_rows`` runs them on a whole block of T rows with one S
at once, and ``validate`` is its block of one row.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .modular_data import ModularData, _capped, _cube, _s_facts, _twist_rows
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


def validate(md: ModularData, pol: TolerancePolicy = DEFAULT_POLICY) -> AxiomReport:
    """Run the full axiom battery on md; never raises on bad math."""
    return _validate_rows(md, md.T[None], pol).reports[0]


class _Rows(NamedTuple):
    """The reports, ``_twist_rows``' (W, ok), and where every |T_i| > eq_tol."""

    reports: list[AxiomReport]
    W: np.ndarray
    ok: np.ndarray
    twisted: np.ndarray


def _validate_rows(md: ModularData, T: np.ndarray, pol: TolerancePolicy) -> _Rows:
    """``validate`` on each row of the (R, n) block T of diagonals with the
    S of ``md``, whose T is not read.

    Checks c, e and the twist half of h are stacked over the rows, and a row
    reads the same bits as its own one-row block; the S-only checks come
    from the S facts of ``md`` (``modular_data._s_facts``).  A deviation that
    overflows is reported as the largest float.
    """
    s = _s_facts(md, pol)
    # the failed S-only checks, as (check_id, indices, measured, message)
    ab, d, fg = ([Diagnostic(c, "error", i, m, msg) for c, i, m, msg in failed]
                 for failed in (s.ab, s.d, s.fg))
    eq = pol.eq_tol
    reports = []
    with np.errstate(all="ignore"):
        W, ok = _twist_rows(T, pol)
        # c. T unimodular
        abs_t = np.abs(T)
        dev_t = np.abs(abs_t - 1.0)
        c_meas = dev_t.max(axis=1).tolist()
        # e. (S T)^3 = C, compared against S^2 itself so it stays meaningful
        #    even when (d) failed
        M3 = _cube(md.S, T)
        dev_e = np.abs(M3 - md.S2).reshape(len(T), -1)
        e_meas = dev_e.max(axis=1).tolist()
        # h. conjugate symmetry of twists and dims; with T_0 vanishing (c failed)
        #    the twists T_i/T_0 are undefined and only the dims are compared
        conj = s.conj
        if conj is not None:
            gap_w = np.abs(W[:, conj] - W)
            gap_max = gap_w.max(axis=1).tolist()

        for r in range(len(T)):
            diags: list[Diagnostic] = ab.copy()
            meas: dict[str, float] = s.ab_meas.copy()
            m = meas["t_unimodular"] = _capped(c_meas[r])
            if m > eq:
                i = int(dev_t[r].argmax())
                diags.append(Diagnostic("t_unimodular", "error", ((i,),), m,
                                        f"|T_{i}| = {abs(T[r, i]):.12g} is not 1"))
            diags += d
            meas["charge_conjugation"] = s.d_meas
            m = meas["st_cubed"] = _capped(e_meas[r])
            note = None
            if m > eq:
                i, j = divmod(int(dev_e[r].argmax()), md.rank)
                diags.append(Diagnostic("st_cubed", "error", ((i, j),), m,
                                        f"(S T)^3 differs from S^2 by {m:.3e} at ({i},{j})"))
                note = _convention_note(M3[r], md.S2, pol)
            # f. Verlinde integrality + vacuum fusion row; g. dims row
            diags += fg
            meas.update(s.fg_meas)
            if conj is not None:
                m = meas["conjugate_symmetry"] = max(_capped(gap_max[r]) if ok[r] else 0.0,
                                                     s.dims_dev)
                if m > eq:
                    bad = np.flatnonzero((ok[r] & (gap_w[r] > eq)) | s.dims_bad).tolist()
                    diags.append(Diagnostic("conjugate_symmetry", "error",
                                            tuple((i,) for i in bad), m,
                                            "twists/dims differ between conjugate sectors"))
            reports.append(make_report(diags, convention_note=note, measurements=meas))
    return _Rows(reports, W, ok, abs_t.min(axis=1) > eq)


def detect_convention(md: ModularData, pol: TolerancePolicy = DEFAULT_POLICY) -> str | None:
    """Hint when data satisfies (S T)^3 = 1 instead of (S T)^3 = S^2.

    The two presentations differ by complex-conjugating S.  The data is
    never mutated; the caller decides what to do with the note.
    """
    return _convention_note(md.ST_cubed, md.S2, pol)


def _convention_note(M: np.ndarray, S2: np.ndarray, pol: TolerancePolicy) -> str | None:
    """detect_convention's note for the cube M = (S T)^3."""
    if np.abs(M - S2).max() <= pol.eq_tol:
        return None
    if np.abs(M - np.eye(len(M))).max() <= pol.eq_tol:
        return (
            "data satisfies (S T)^3 = 1, the conjugate presentation; "
            "conjugate S entrywise to obtain the (S T)^3 = C convention"
        )
    return None
