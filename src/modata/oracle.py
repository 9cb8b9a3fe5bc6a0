"""Explicit multiplicity-free anyon models: the brute-force ground truth.

Each model carries literal braiding scalars r(i, j, k) on every
one-dimensional fusion channel.  The trace of a self-braiding over a 0- or
1-dimensional channel space is then r(i, i, k) or 0 straight from the
definition, with no basis choices and no reference to the formula route it
is used to check.

Every model is validated on construction: the r table must cover exactly
the fusion channels, satisfy |r| = 1 and the double-braiding identity
r(j,i,k) r(i,j,k) = w_k/(w_i w_j), and its modular data must derive
(``modular_data.derive``), carry the model's labels and reproduce its
twists and, through the Verlinde sum, its fusion tensor.  A typo in any
shipped number fails loudly at load time.  ``deligne`` builds the product
A ⊠ B of two models, of their modular data or of their fusion rings.

The shipped catalog (trivial, semion, conj-semion, z3, fibonacci,
conj-fibonacci, ising, su2_2, toric_code) stores phases as exact turn
fractions; all of it was regenerated from the constructions below, none of
it is copied from anywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .modular_data import (
    InvalidModularData,
    ModularData,
    _is_json_int,
    _lift_t0,
    _md_from_dict,
    _read_json,
    _readonly,
    complex_to_json,
    derive,
    parse_complex,
)
from .numerics import DEFAULT_POLICY, TolerancePolicy, phase_from_turns
from .search import FusionRing

__all__ = [
    "ExplicitModel",
    "brute_trace",
    "build_pointed_model",
    "catalog_models",
    "catalog_names",
    "deligne",
    "get_model",
    "load_model",
]


@dataclass(frozen=True, eq=False)
class ExplicitModel:
    """A multiplicity-free anyon model with literal braiding scalars."""

    name: str
    labels: tuple[str, ...]
    fusion: np.ndarray                      # (n, n, n) entries in {0, 1}
    twists: np.ndarray                      # (n,) phases, twists[0] = 1
    r_scalars: dict[tuple[int, int, int], complex]
    modular_data: ModularData

    def __post_init__(self):
        object.__setattr__(self, "fusion", _readonly(np.asarray(self.fusion, dtype=int)))
        object.__setattr__(self, "twists", _readonly(np.asarray(self.twists, dtype=complex)))
        object.__setattr__(self, "r_scalars", dict(self.r_scalars))
        _check_model(self)

    @property
    def rank(self) -> int:
        return len(self.twists)

    def to_json_dict(self) -> dict:
        d = self.modular_data.to_json_dict(exact_t=True)
        d["name"] = self.name
        d["r"] = [[list(ch), complex_to_json(v, exact=True)] for ch, v in sorted(self.r_scalars.items())]
        return d


def _check_model(model: ExplicitModel, pol: TolerancePolicy = DEFAULT_POLICY) -> None:
    n = model.rank
    fusion = model.fusion
    if fusion.shape != (n, n, n) or ((fusion != 0) & (fusion != 1)).any():
        raise ValueError(f"model {model.name}: fusion must be a 0/1 tensor")
    support = set(map(tuple, np.argwhere(fusion).tolist()))
    given = set(model.r_scalars)
    if given != support:
        raise ValueError(
            f"model {model.name}: r table support mismatch "
            f"(missing {sorted(support - given)[:4]}, extra {sorted(given - support)[:4]})")
    w = model.twists
    if abs(w[0] - 1.0) > pol.eq_tol:
        raise ValueError(f"model {model.name}: twist of the vacuum must be 1")
    for (i, j, k), val in model.r_scalars.items():
        if abs(abs(val) - 1.0) > pol.eq_tol:
            raise ValueError(f"model {model.name}: |r({i},{j},{k})| != 1")
        mono = val * model.r_scalars[(j, i, k)]
        target = w[k] / (w[i] * w[j])
        if abs(mono - target) > pol.eq_tol:
            raise ValueError(
                f"model {model.name}: double braiding on ({i},{j},{k}) is "
                f"{mono:.6g}, expected {target:.6g}")
    md = model.modular_data
    if md.rank != n:
        raise ValueError(f"model {model.name}: modular data rank mismatch")
    if model.labels != md.labels:
        raise ValueError(f"model {model.name}: labels {model.labels} are not those of "
                         f"its modular data, {md.labels}")
    dd = derive(md, pol)
    if np.abs(dd.twists - w).max() > pol.eq_tol:
        raise ValueError(f"model {model.name}: T diagonal does not reproduce the twists")
    if (dd.fusion != fusion).any():
        raise ValueError(f"model {model.name}: Verlinde fusion does not match the r table support")
    # ribbon identity sum_k d_k r(i,i,k) = d_i w_i; the double-braiding
    # check alone cannot see a sign flip of a self-braiding scalar
    d = dd.dims
    for i in range(n):
        lhs = sum(d[k] * model.r_scalars.get((i, i, k), 0.0) for k in range(n))
        if abs(lhs - d[i] * w[i]) > pol.eq_tol:
            raise ValueError(
                f"model {model.name}: self-braiding scalars of sector {i} violate "
                f"the ribbon identity (got {lhs:.6g}, expected {d[i] * w[i]:.6g})")


def brute_trace(model: ExplicitModel, i: int, k: int) -> complex:
    """Trace of the self-braiding of i over channel k, by definition.

    The channel space has dimension 0 or 1, so the trace is the stored
    scalar or zero; no formula is involved.
    """
    return complex(model.r_scalars.get((i, i, k), 0.0))


# ---------------------------------------------------------------------------
# pointed models on Z_n
# ---------------------------------------------------------------------------

def build_pointed_model(n: int, p: int) -> ExplicitModel:
    """Abelian anyons on Z_n with quadratic exponent p.

    With zeta = e^{i pi / n} and c = p for even n (2p for odd n, so the
    form is well defined on Z_n):

        twists   w_a       = zeta^(c a^2)
        braiding r(a,b)    = zeta^(c a b)        on channel a+b mod n
        S matrix S_{a,b}   = n^{-1/2} zeta^(-2 c a b)

    (2,1) is the semion, (2,-1) its conjugate, (3,1) the Z_3 model.  The
    form is nondegenerate , and S unitary, iff gcd(c, n) = 1.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    c = p if n % 2 == 0 else 2 * p
    if n > 1 and math.gcd(c, n) != 1:
        raise ValueError(f"not modular for ({n},{p}): the quadratic form is degenerate")
    w = np.array([phase_from_turns(Fraction(c * a * a, 2 * n)) for a in range(n)])
    S = np.array(
        [[phase_from_turns(Fraction(-c * a * b, n)) for b in range(n)] for a in range(n)]
    ) / math.sqrt(n)
    r = {(a, b, (a + b) % n): phase_from_turns(Fraction(c * a * b, 2 * n))
         for a in range(n) for b in range(n)}
    fusion = np.zeros((n, n, n), dtype=int)
    for a in range(n):
        for b in range(n):
            fusion[a, b, (a + b) % n] = 1
    md = ModularData.from_matrices(S, w, labels=[str(a) for a in range(n)])
    t0, = _lift_t0(md, w[None])
    if t0 is None:
        raise InvalidModularData("no global phase makes (S T)^3 = S^2 hold")
    md = md._with_t(t0 * w)
    return ExplicitModel(name=f"pointed_z{n}_p{p}", labels=md.labels, fusion=fusion,
                         twists=w, r_scalars=r, modular_data=md)


def deligne(a, b):
    """The Deligne product a ⊠ b of two ``ModularData``, ``FusionRing``s or
    ``ExplicitModel``s.

    Sector (i, j) sits at index i·|b| + j and is labelled "x*y" from the
    labels x of i and y of j.  S and T are Kronecker products, so T_0
    multiplies and (S T)^3 = S^2 carries over; the fusion tensor is
    N[(i,j), (i',j'), (k,k')] = N_a[i, i', k] N_b[j, j', k']; a model's
    braiding scalars multiply, r(i⊠j, i'⊠j', k⊠k') = r_a(i,i',k) r_b(j,j',k'),
    and its constructor validates the product.
    """
    if isinstance(a, ModularData) and isinstance(b, ModularData):
        return ModularData.from_matrices(np.kron(a.S, b.S), np.kron(a.T, b.T),
                                         [f"{x}*{y}" for x in a.labels for y in b.labels])
    if isinstance(a, FusionRing) and isinstance(b, FusionRing):
        N = _tensor_product(a.N, b.N)
        return FusionRing(rank=len(N), N=N)
    if isinstance(a, ExplicitModel) and isinstance(b, ExplicitModel):
        md, nb = deligne(a.modular_data, b.modular_data), b.rank
        r = {(i * nb + i2, j * nb + j2, k * nb + k2): va * vb
             for (i, j, k), va in a.r_scalars.items()
             for (i2, j2, k2), vb in b.r_scalars.items()}
        return ExplicitModel(name=f"{a.name}*{b.name}", labels=md.labels,
                             fusion=_tensor_product(a.fusion, b.fusion),
                             twists=np.kron(a.twists, b.twists), r_scalars=r, modular_data=md)
    raise TypeError(f"no Deligne product of {type(a).__name__} and {type(b).__name__}")


def _tensor_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The rank-3 tensor A ⊗ B on the index pairs of ``deligne``."""
    n = len(A) * len(B)
    return np.einsum("ace,bdf->abcdef", A, B).reshape(n, n, n)


# ---------------------------------------------------------------------------
# shipped catalog
# ---------------------------------------------------------------------------

def _data_dir():
    return resources.files("modata") / "data" / "models"


def _r_from_json(block) -> dict[tuple[int, int, int], complex]:
    """The "r" block: a list of [[i, j, k], c] pairs with JSON-integer indices."""
    if not isinstance(block, list):
        raise InvalidModularData(f'"r" must be a list of [[i, j, k], c] pairs, got {block!r}')
    r = {}
    for entry in block:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], list)
                and len(entry[0]) == 3 and all(_is_json_int(x) for x in entry[0])):
            raise InvalidModularData(f'"r" entry must be [[i, j, k], c], got {entry!r}')
        r[tuple(entry[0])] = parse_complex(entry[1])
    return r


def load_model(source: str | Path) -> ExplicitModel:
    """Read a model file: modular-data format plus the "r" scalar block; its
    datum must derive."""
    doc = _read_json(source, InvalidModularData)
    md = _md_from_dict(doc)
    r = _r_from_json(doc.get("r", []))
    dd = derive(md)
    return ExplicitModel(name=doc.get("name", "unnamed"), labels=md.labels,
                         fusion=dd.fusion, twists=dd.twists, r_scalars=r, modular_data=md)


_CATALOG_ORDER = [
    "trivial", "semion", "conj-semion", "z3",
    "fibonacci", "conj-fibonacci", "ising", "su2_2", "toric_code",
]

_NOTES = {
    "trivial": "rank 1; the unit theory; c = 0",
    "semion": "pointed Z_2, p = 1; twists (1, i); c = 1",
    "conj-semion": "pointed Z_2, p = -1; twists (1, -i); c = -1",
    "z3": "pointed Z_3, p = 1; twists (1, z, z) with z = e^{2 pi i/3}; c = 2",
    "fibonacci": "x*x = 1 + x; dims (1, phi); twist e^{4 pi i/5}; c = 14/5",
    "conj-fibonacci": "conjugate Fibonacci; twist e^{-4 pi i/5}; c = -14/5",
    "ising": "sigma^2 = 1 + psi; twist_sigma = e^{i pi/8}; c = 1/2",
    "su2_2": "Ising fusion with twist_sigma = e^{3 i pi/8}; c = 3/2",
    "toric_code": "Z_2 x Z_2 hyperbolic form; twists (1,1,1,-1); c = 0",
}


@lru_cache(maxsize=1)
def _load_catalog_models() -> tuple[ExplicitModel, ...]:
    return tuple(load_model(_data_dir() / f"{n.replace('-', '_')}.json") for n in _CATALOG_ORDER)


def catalog_models() -> list[ExplicitModel]:
    """All shipped explicit models, validated at load."""
    return list(_load_catalog_models())


def catalog_names() -> list[str]:
    return list(_CATALOG_ORDER)


def get_model(name: str) -> ExplicitModel:
    for m in _load_catalog_models():
        if m.name == name:
            return m
    raise KeyError(f"no model named {name!r}; known: {', '.join(_CATALOG_ORDER)}")
