"""Canonical R-matrices from modular data, and the monodromy cross-checks.

In a suitable orthonormal channel basis the braiding R-matrix of the
channel (i, j, k) is

  * i != j:  (w_k/(w_i w_j))^{1/2} * identity          (a Scalar block)
  * i == j:  w_i^{-1} w_k^{1/2} * (E+ - E-)            (a Signed block)

where E+/E- are diagonal projections whose dimensions are the eigenvalue
multiplicities m+/m- of the self-braiding; only those dimensions are
determined, so blocks store no basis data.  The opposite braiding is
R^op = (w_i w_j / w_k) * R, and the double braiding acts on channel k by
the scalar w_k/(w_i w_j); ``monodromy_check`` forms R^op of each mirror
block in place and verifies both relations on every emitted block.  Each
of these quantities is taken as the phase u/|u| of its ratio u, so twists
that validation lets sit slightly off the unit circle still give
unimodular blocks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axioms import AxiomReport, Diagnostic, make_report
from .bantay import MultiplicityTable
from .modular_data import DerivedData, ModularData
from .numerics import DEFAULT_POLICY, TolerancePolicy, _modulus, principal_sqrt

__all__ = ["RBlock", "canonical_r", "monodromy_check"]


def _phase(u):
    """u/|u|, of one complex or entrywise.  Validation lets |w_i| - 1 reach
    about 2 eq_tol, and scaling a ratio of twists by a positive number never
    moves it across the branch cut of the square root."""
    return u / _modulus(u)


@dataclass(frozen=True)
class RBlock:
    """One channel's R-matrix: a unimodular scalar times 1 or (E+ - E-)."""

    channel: tuple[int, int, int]  # (i, j, k)
    form: str                      # "scalar" | "signed"
    value: complex
    size: int = 0                  # scalar blocks: N^k_{i,j}
    dim_plus: int = 0              # signed blocks: rank of E+
    dim_minus: int = 0             # signed blocks: rank of E-

    def __post_init__(self):
        i, j, k = self.channel
        if self.form == "scalar":
            if i == j:
                raise ValueError("scalar form is for i != j channels")
            if self.size < 1:
                raise ValueError("scalar block needs size >= 1")
        elif self.form == "signed":
            if i != j:
                raise ValueError("signed form is for i == j channels")
            if self.dim_plus < 0 or self.dim_minus < 0 or self.dim_plus + self.dim_minus < 1:
                raise ValueError("signed block needs nonnegative dims summing to >= 1")
        else:
            raise ValueError(f"unknown form {self.form!r}")
        if abs(abs(self.value) - 1.0) > 1e-6:
            raise ValueError(f"block value must be unimodular, got |{self.value}|")

    @property
    def dim(self) -> int:
        return self.size if self.form == "scalar" else self.dim_plus + self.dim_minus

    def as_matrix(self) -> np.ndarray:
        """The block as an explicit diagonal matrix, + entries first."""
        if self.form == "scalar":
            return self.value * np.eye(self.size, dtype=complex)
        signs = np.array([1.0] * self.dim_plus + [-1.0] * self.dim_minus)
        return self.value * np.diag(signs).astype(complex)

    def trace(self) -> complex:
        if self.form == "scalar":
            return self.value * self.size
        return self.value * (self.dim_plus - self.dim_minus)

    def to_json_dict(self) -> dict:
        d = {
            "channel": list(self.channel),
            "form": self.form,
            "value": [self.value.real, self.value.imag],
        }
        if self.form == "scalar":
            d["size"] = self.size
        else:
            d["dim_plus"] = self.dim_plus
            d["dim_minus"] = self.dim_minus
        return d


def canonical_r(md: ModularData, dd: DerivedData, mt: MultiplicityTable) -> list[RBlock]:
    """One RBlock per ordered triple (i, j, k) with N^k_{i,j} > 0.

    ``mt`` must come from ``eigen_multiplicities`` on the same data; data
    that failed realizability has no canonical R-matrices.  Square roots are
    principal, the branch that labels ``mt``, so each signed block's trace is
    tau[k][i].
    """
    w = dd.twists
    N = dd.fusion
    if not np.array_equal(mt.m_plus + mt.m_minus, N.diagonal()):
        raise ValueError("not realizable: multiplicity table does not match the fusion tensor")
    # the fusion support in row-major order, which is the block order
    I, J, K = N.nonzero()
    signed = I == J
    # every block value at once: (w_k/(w_i w_j))^{1/2}, or w_k^{1/2}/w_i when i = j
    root = principal_sqrt(_phase(np.where(signed, w[K], w[K] / (w[I] * w[J]))))
    values = np.where(signed, root / _phase(w[I]), root)
    blocks: list[RBlock] = []
    for i, j, k, val in zip(I.tolist(), J.tolist(), K.tolist(), values.tolist()):
        if i != j:
            blocks.append(RBlock((i, j, k), "scalar", val, size=int(N[i, j, k])))
        else:
            blocks.append(RBlock((i, j, k), "signed", val,
                                 dim_plus=int(mt.m_plus[k, i]),
                                 dim_minus=int(mt.m_minus[k, i])))
    return blocks


def monodromy_check(blocks: list[RBlock], dd: DerivedData,
                    pol: TolerancePolicy = DEFAULT_POLICY) -> AxiomReport:
    """Verify the double-braiding eigenvalue and the inverse relation.

    For every channel: R_{(j,i,k)} R_{(i,j,k)} = (w_k/(w_i w_j)) * 1 and
    R^op_{(j,i,k)} R_{(i,j,k)} = 1, with signed blocks multiplying through
    their shared projections.
    """
    w = dd.twists
    by_channel = {b.channel: b for b in blocks}
    diags: list[Diagnostic] = []
    meas = {"monodromy": 0.0, "op_inverse": 0.0}
    I, J, K = np.array([b.channel for b in blocks], dtype=int).reshape(-1, 3).T
    # per block, the double-braiding scalar and the factor of R^op
    targets = _phase(w[K] / (w[I] * w[J])).tolist()
    op_factors = _phase(w[J] * w[I] / w[K]).tolist()
    for b, target, op_factor in zip(blocks, targets, op_factors):
        i, j, k = b.channel
        mirror = by_channel.get((j, i, k))
        if mirror is None:
            diags.append(Diagnostic("monodromy", "error", ((i, j, k),), 1.0,
                                    f"missing mirror block for channel ({i},{j},{k})"))
            continue
        if b.form == "signed" and (mirror.dim_plus, mirror.dim_minus) != (b.dim_plus, b.dim_minus):
            diags.append(Diagnostic("monodromy", "error", ((i, j, k),), 1.0,
                                    "mirror block has mismatched projections"))
            continue
        # signed blocks: (E+ - E-)^2 = 1, so the product is a scalar either way
        prod = mirror.value * b.value
        dev = abs(prod - target)
        meas["monodromy"] = max(meas["monodromy"], dev)
        if dev > pol.eq_tol:
            diags.append(Diagnostic(
                "monodromy", "error", ((i, j, k),), float(dev),
                f"double braiding on ({i},{j},{k}) gives {prod:.6g}, "
                f"expected {target:.6g}"))
        # R^op of the mirror is its value times w_j w_i / w_k
        inv = mirror.value * op_factor * b.value
        dev_inv = abs(inv - 1.0)
        meas["op_inverse"] = max(meas["op_inverse"], dev_inv)
        if dev_inv > pol.eq_tol:
            diags.append(Diagnostic(
                "op_inverse", "error", ((i, j, k),), float(dev_inv),
                f"R^op R != 1 on ({i},{j},{k})"))
    return make_report(diags, measurements=meas)
