"""Canonical R-matrices from modular data, and the monodromy cross-checks.

In a suitable orthonormal channel basis the braiding R-matrix of the
channel (i, j, k) is

  * i != j:  (w_k/(w_i w_j))^{1/2} * identity          (a scalar block)
  * i == j:  w_i^{-1} w_k^{1/2} * (E+ - E-)            (a signed block)

where E+/E- are diagonal projections whose dimensions are the eigenvalue
multiplicities m+/m- of the self-braiding; only those dimensions are
determined, so blocks store no basis data.  The opposite braiding is
R^op = (w_i w_j / w_k) * R, and the double braiding acts on channel k by
the scalar w_k/(w_i w_j); ``monodromy_check`` forms R^op of each mirror
block in place and verifies both relations on every block.  Each of these
quantities is taken as the phase u/|u| of its ratio u, so twists that
validation lets sit slightly off the unit circle still give unimodular
blocks.

``canonical_r`` builds all blocks at once, as the arrays of an ``RBlocks``;
``modata rmatrix`` checks their monodromy and prints them, or their
``encode`` text under ``--json``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axioms import AxiomReport, Diagnostic
from .modular_data import DerivedData, _Encoded
from .numerics import DEFAULT_POLICY, TolerancePolicy, _modulus, _phase, principal_sqrt

__all__ = ["RBlocks", "canonical_r", "monodromy_check"]


@dataclass(frozen=True, eq=False)
class RBlocks:
    """The R-blocks as read-only parallel arrays in the row-major order of
    their channels (I, J, K): the unimodular values, and the sizes N^k_{i,j}
    of scalar blocks (i != j) or the ranks of E+ and E- of signed blocks
    (i == j), else 0.  ``len`` counts the blocks; iterating gives each one as
    (i, j, k, value, size, dim_plus, dim_minus)."""

    I: np.ndarray
    J: np.ndarray
    K: np.ndarray
    values: np.ndarray
    size: np.ndarray
    dim_plus: np.ndarray
    dim_minus: np.ndarray

    def __post_init__(self):
        for a in vars(self).values():
            a.setflags(write=False)

    def __len__(self) -> int:
        return len(self.I)

    def __iter__(self):
        return zip(*(a.tolist() for a in vars(self).values()))

    def encode(self) -> _Encoded:
        """The blocks' JSON text, as ``json.dumps`` writes a list of {"channel",
        "form", "value", "size" | "dim_plus", "dim_minus"} objects.  The values
        are phases, so every float is finite and its repr is its JSON."""
        return _Encoded("[" + ", ".join([
            f'{{"channel": [{i}, {j}, {k}], "form": "scalar", "value": [{v.real!r}, {v.imag!r}], '
            f'"size": {size}}}' if i != j else
            f'{{"channel": [{i}, {j}, {k}], "form": "signed", "value": [{v.real!r}, {v.imag!r}], '
            f'"dim_plus": {plus}, "dim_minus": {minus}}}'
            for i, j, k, v, size, plus, minus in self]) + "]")


def canonical_r(dd: DerivedData, m_plus: np.ndarray, m_minus: np.ndarray) -> RBlocks:
    """One block per ordered triple (i, j, k) with N^k_{i,j} > 0.

    ``m_plus`` and ``m_minus`` must come from ``eigen_multiplicities`` on the
    same data; data that failed realizability has no canonical R-matrices.
    Square roots are principal, the branch that labels m+/-, so each signed
    block's trace value * (dim_plus - dim_minus) is tau[k][i].
    """
    w, N = dd.twists, dd.fusion
    total, diagonal = m_plus + m_minus, N.diagonal()
    if total.shape != diagonal.shape or (total != diagonal).any():
        raise ValueError("not realizable: multiplicity table does not match the fusion tensor")
    I, J, K = N.nonzero()
    signed = I == J
    # (w_k/(w_i w_j))^{1/2}, or w_k^{1/2}/w_i when i = j
    root = principal_sqrt(_phase(np.where(signed, w[K], w[K] / (w[I] * w[J]))))
    values = np.where(signed, root / _phase(w[I]), root)
    return RBlocks(I, J, K, values, N[I, J, K] * ~signed, m_plus[K, I] * signed,
                   m_minus[K, I] * signed)


def monodromy_check(blocks: RBlocks, dd: DerivedData,
                    pol: TolerancePolicy = DEFAULT_POLICY) -> AxiomReport:
    """Verify the double-braiding eigenvalue and the inverse relation.

    For every channel: R_{(j,i,k)} R_{(i,j,k)} = (w_k/(w_i w_j)) * 1 and
    R^op_{(j,i,k)} R_{(i,j,k)} = 1, with signed blocks multiplying through
    their shared projections.  Each block is checked against its mirror
    (j, i, k), the last block of that channel.
    """
    b, w, n = blocks, dd.twists, len(dd.twists)
    at = np.full(n ** 3, -1)
    at[(b.I * n + b.J) * n + b.K] = np.arange(len(b))
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
    return AxiomReport(diags, measurements=meas)
