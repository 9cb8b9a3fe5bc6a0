"""Modularity axiom checks with machine-readable diagnostics.

``validate`` runs the checks of stages S and T of the registry ``CHECKS``:

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
one that overflows.  The checks of stage S read S alone: they are the
``checks`` map of the S-facts fill ``modular_data._fill_s_facts``, once per
S and policy.  Checks c, e and h read T: ``_validate_rows`` runs them on a
whole block of T rows with one S at once, and merges them with the S map in
registry order; ``validate`` is its block of one row.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .modular_data import ModularData, _capped, _cube, _s_facts, _twist_rows
from .numerics import DEFAULT_POLICY, TolerancePolicy

__all__ = ["CHECKS", "WARNINGS", "Diagnostic", "AxiomReport", "validate"]

# every check id, in report order, and its stage: S reads S alone, T the twists
# too (both ``validate``), trace the realizability pass, rblock ``monodromy_check``
CHECKS = {
    "s_unitary": "S", "s_symmetric": "S", "t_unimodular": "T", "charge_conjugation": "S",
    "st_cubed": "T", "verlinde_integrality": "S", "vacuum_fusion": "S", "dims_row": "S",
    "conjugate_symmetry": "T", "derivation": "trace", "cauchy": "trace",
    "trace_zero_channel": "trace", "fs_route_agreement": "trace", "fs_value": "trace",
    "mult_real": "trace", "mult_integer": "trace", "mult_range": "trace",
    "mult_parity": "trace", "trace_conjugation": "trace", "twist_trace": "trace",
    "monodromy": "rblock", "op_inverse": "rblock",
}
# the checks that may carry a warning: an unknown twist order, the ribbon identity
WARNINGS = ("cauchy", "twist_trace")
_ROW_CHECKS = tuple(c for c, stage in CHECKS.items() if stage in ("S", "T"))
_CONJUGATE_NOTE = ("data satisfies (S T)^3 = 1, the conjugate presentation; "
                   "conjugate S entrywise to obtain the (S T)^3 = C convention")


@dataclass(frozen=True)
class Diagnostic:
    check_id: str
    severity: str  # "error", or "warning" on a check of WARNINGS
    indices: tuple[tuple[int, ...], ...]
    measured: float
    message: str

    def __post_init__(self):
        if self.check_id not in CHECKS:
            raise ValueError(f"unknown check id {self.check_id!r}")
        if self.severity not in (("error", "warning") if self.check_id in WARNINGS
                                 else ("error",)):
            raise ValueError(f"bad severity {self.severity!r} for {self.check_id}")
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
    diagnostics: tuple[Diagnostic, ...]
    convention_note: str | None = None
    measurements: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))

    @property
    def passed(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)

    @property
    def verdict(self) -> str:
        """The verdict: "fail" when any diagnostic is an error, else "pass"."""
        return "pass" if self.passed else "fail"

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


def validate(md: ModularData, pol: TolerancePolicy = DEFAULT_POLICY) -> AxiomReport:
    """Run the full axiom battery on md; never raises on bad math."""
    return AxiomReport(*_validate_rows(md, md.T[None], pol).rows[0])


class _Rows(NamedTuple):
    """Per row its report's (diagnostics, convention note, measurements),
    ``_twist_rows``' (W, ok), and where every |T_i| > eq_tol."""

    rows: list[tuple[list[Diagnostic], str | None, dict[str, float]]]
    W: np.ndarray
    ok: np.ndarray
    twisted: np.ndarray


def _validate_rows(md: ModularData, T: np.ndarray, pol: TolerancePolicy) -> _Rows:
    """The parts of ``validate``'s report on each row of the (R, n) block T
    of diagonals with the S of ``md``, whose T is not read.

    Checks c, e and h are stacked over the rows, and a row reads the same
    bits as its own one-row block; the S-only checks come from the S facts
    of ``md`` (``modular_data._s_facts``).  A deviation that overflows is
    reported as the largest float.
    """
    s = _s_facts(md, pol)
    # per S check, (measurement, its Diagnostic or None), shared by the rows
    s_checks = {c: (m, None if f is None else Diagnostic(c, "error", *f))
                for c, (m, f) in s.checks.items()}
    eq = pol.eq_tol
    with np.errstate(all="ignore"):
        W, ok = _twist_rows(T, pol)
        # c. T unimodular
        abs_t = np.abs(T)
        dev_t = np.abs(abs_t - 1.0)
        # e. (S T)^3 = C, compared against S^2 itself so it stays meaningful
        #    even when (d) failed
        M3 = _cube(md.S, T)
        dev_e = np.abs(M3 - md.S2).reshape(len(T), -1)
        # per T check, its deviation on each row
        t_meas = {"t_unimodular": dev_t.max(axis=1).tolist(),
                  "st_cubed": dev_e.max(axis=1).tolist()}
        # h. conjugate symmetry of twists and dims; with T_0 vanishing (c failed)
        #    the twists T_i/T_0 are undefined and only the dims are compared
        if s.conj is not None:
            gap_w = np.abs(W[:, s.conj] - W)
            t_meas["conjugate_symmetry"] = np.maximum(np.where(ok[:, None], gap_w, 0.0),
                                                      s.dims_gap).max(axis=1).tolist()

        def failure(c: str, r: int, m: float) -> tuple:
            """(indices, measured, message) of the T check c failing on row r."""
            if c == "t_unimodular":
                i = int(dev_t[r].argmax())
                return ((i,),), m, f"|T_{i}| = {abs(T[r, i]):.12g} is not 1"
            if c == "st_cubed":
                i, j = divmod(int(dev_e[r].argmax()), md.rank)
                return ((i, j),), m, f"(S T)^3 differs from S^2 by {m:.3e} at ({i},{j})"
            bad = np.flatnonzero((ok[r] & (gap_w[r] > eq)) | (s.dims_gap > eq)).tolist()
            return tuple((i,) for i in bad), m, "twists/dims differ between conjugate sectors"

        # the S and T checks that ran, in registry order
        ran = [c for c in _ROW_CHECKS if c in s_checks or c in t_meas]
        rows = []
        for r in range(len(T)):
            diags, meas = [], {}
            for c in ran:
                if c in s_checks:
                    meas[c], d = s_checks[c]
                else:
                    m = meas[c] = _capped(t_meas[c][r])
                    d = Diagnostic(c, "error", *failure(c, r, m)) if m > eq else None
                if d is not None:
                    diags.append(d)
            # data in the conjugate presentation, (S T)^3 = 1, get a note
            note = (_CONJUGATE_NOTE if meas["st_cubed"] > eq
                    and np.abs(M3[r] - np.eye(md.rank)).max() <= eq else None)
            rows.append((diags, note, meas))
    return _Rows(rows, W, ok, abs_t.min(axis=1) > eq)

