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

The blocks are computed once, as arrays over the fusion support
(``_canonical_blocks``), from the twists, N and multiplicities of the
realizability pass (and so of the S-facts fill): ``modata rmatrix`` checks
the monodromy (``_monodromy``) and writes its ``--json`` text from them,
and ``canonical_r`` builds ``RBlock`` objects for library callers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .axioms import AxiomReport, Diagnostic, make_report
from .bantay import MultiplicityTable
from .modular_data import DerivedData, ModularData, _Encoded
from .numerics import DEFAULT_POLICY, TolerancePolicy, _modulus, _phase, principal_sqrt

__all__ = ["RBlock", "canonical_r", "monodromy_check"]


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
        dims = ({"size": self.size} if self.form == "scalar"
                else {"dim_plus": self.dim_plus, "dim_minus": self.dim_minus})
        return {"channel": list(self.channel), "form": self.form,
                "value": [self.value.real, self.value.imag], **dims}


class _Blocks(NamedTuple):
    """R-blocks as parallel arrays: channels (I, J, K), values, and sizes
    (scalar blocks) or ranks of E+ and E- (signed blocks), else 0."""

    I: np.ndarray
    J: np.ndarray
    K: np.ndarray
    values: np.ndarray
    size: np.ndarray
    dim_plus: np.ndarray
    dim_minus: np.ndarray

    def encode(self) -> _Encoded:
        """The JSON text of the blocks' ``RBlock.to_json_dict`` list, which
        ``json.dumps`` would write, built without the dicts.  The values are
        phases, so every float is finite and its repr is its JSON."""
        return _Encoded("[" + ", ".join([
            f'{{"channel": [{i}, {j}, {k}], "form": "scalar", "value": [{v.real!r}, {v.imag!r}], '
            f'"size": {size}}}' if i != j else
            f'{{"channel": [{i}, {j}, {k}], "form": "signed", "value": [{v.real!r}, {v.imag!r}], '
            f'"dim_plus": {plus}, "dim_minus": {minus}}}'
            for i, j, k, v, size, plus, minus in zip(*(a.tolist() for a in self))]) + "]")


def _canonical_blocks(dd: DerivedData, mt: MultiplicityTable) -> _Blocks:
    """``canonical_r`` as arrays: the fusion support in row-major order,
    which is the block order, and every block value at once."""
    w, N = dd.twists, dd.fusion
    total, diagonal = mt.m_plus + mt.m_minus, N.diagonal()
    if total.shape != diagonal.shape or (total != diagonal).any():
        raise ValueError("not realizable: multiplicity table does not match the fusion tensor")
    I, J, K = N.nonzero()
    signed = I == J
    # (w_k/(w_i w_j))^{1/2}, or w_k^{1/2}/w_i when i = j
    root = principal_sqrt(_phase(np.where(signed, w[K], w[K] / (w[I] * w[J]))))
    values = np.where(signed, root / _phase(w[I]), root)
    return _Blocks(I, J, K, values, N[I, J, K] * ~signed, mt.m_plus[K, I] * signed,
                   mt.m_minus[K, I] * signed)


def canonical_r(md: ModularData, dd: DerivedData, mt: MultiplicityTable) -> list[RBlock]:
    """One RBlock per ordered triple (i, j, k) with N^k_{i,j} > 0.

    ``mt`` must come from ``eigen_multiplicities`` on the same data; data
    that failed realizability has no canonical R-matrices.  Square roots are
    principal, the branch that labels ``mt``, so each signed block's trace is
    tau[k][i].
    """
    return [RBlock((i, j, k), "signed" if i == j else "scalar", value, size, plus, minus)
            for i, j, k, value, size, plus, minus in zip(
                *(a.tolist() for a in _canonical_blocks(dd, mt)))]


def monodromy_check(blocks: list[RBlock], dd: DerivedData,
                    pol: TolerancePolicy = DEFAULT_POLICY) -> AxiomReport:
    """Verify the double-braiding eigenvalue and the inverse relation.

    For every channel: R_{(j,i,k)} R_{(i,j,k)} = (w_k/(w_i w_j)) * 1 and
    R^op_{(j,i,k)} R_{(i,j,k)} = 1, with signed blocks multiplying through
    their shared projections.
    """
    rows = [(*b.channel, b.size, b.dim_plus, b.dim_minus) for b in blocks]
    I, J, K, size, plus, minus = np.array(rows, dtype=int).reshape(-1, 6).T
    values = np.array([b.value for b in blocks], dtype=complex)
    return _monodromy(_Blocks(I, J, K, values, size, plus, minus), dd, pol)


def _monodromy(b: _Blocks, dd: DerivedData, pol: TolerancePolicy) -> AxiomReport:
    """``monodromy_check`` on blocks given as arrays, each block checked
    against its mirror (j, i, k), the last block of that channel."""
    w, n = dd.twists, len(dd.twists)
    at = np.full(n ** 3, -1)
    at[(b.I * n + b.J) * n + b.K] = np.arange(len(b.I))
    mirror = at[(b.J * n + b.I) * n + b.K]
    found = mirror >= 0
    m = mirror * found  # a missing mirror reads block 0 and is never checked
    # per block the double-braiding scalar, R_mirror R, and R^op_mirror R
    wk, wij = w[b.K], w[b.I] * w[b.J]
    target = _phase(wk / wij)
    mirror_values = b.values[m]
    prod = mirror_values * b.values
    dev = _modulus(prod - target)
    dev_inv = _modulus(mirror_values * _phase(wij / wk) * b.values - 1.0)
    # signed blocks: (E+ - E-)^2 = 1, so the product is a scalar either way
    mismatched = (b.I == b.J) & ((b.dim_plus[m] != b.dim_plus) | (b.dim_minus[m] != b.dim_minus))
    checked = found & ~mismatched
    meas = {"monodromy": float(dev[checked].max(initial=0.0)),
            "op_inverse": float(dev_inv[checked].max(initial=0.0))}
    diags: list[Diagnostic] = []
    bad = ~checked | (dev > pol.eq_tol) | (dev_inv > pol.eq_tol)
    for x in np.flatnonzero(bad).tolist():
        i, j, k = int(b.I[x]), int(b.J[x]), int(b.K[x])
        if not checked[x]:
            diags.append(Diagnostic("monodromy", "error", ((i, j, k),), 1.0,
                                    "mirror block has mismatched projections" if found[x] else
                                    f"missing mirror block for channel ({i},{j},{k})"))
            continue
        if dev[x] > pol.eq_tol:
            diags.append(Diagnostic(
                "monodromy", "error", ((i, j, k),), float(dev[x]),
                f"double braiding on ({i},{j},{k}) gives {complex(prod[x]):.6g}, "
                f"expected {complex(target[x]):.6g}"))
        if dev_inv[x] > pol.eq_tol:
            diags.append(Diagnostic("op_inverse", "error", ((i, j, k),), float(dev_inv[x]),
                                    f"R^op R != 1 on ({i},{j},{k})"))
    return make_report(diags, measurements=meas)
