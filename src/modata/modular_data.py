"""Modular data {rank, labels, S, T} and everything derived from it.

This module is the single home of every quantity derived from S and T.
What S alone decides sits in an S cache (``_SCache``) that a datum shares
with every datum made from it by ``_with_t``: S^2 and the raw Verlinde
tensor (one matrix product), and, once per TolerancePolicy, the S-facts
fill ``_fill_s_facts``, the one owner of the dims, the conjugation, the
Verlinde rounding, ``derive``'s S steps and the S-only axiom checks of
:mod:`modata.axioms`.  ``derive`` is its public reader; ``verlinde_fusion``
hands out the fusion tensor alone, and ``validate``, the realizability pass
and the search read it too.  det K over the rounded tensor, which only the
Cauchy check and the search's root prune read, is computed on first read
(``_det_k``) and kept in the S cache per policy too.  Per label tuple the
S cache keeps the encoded head of the file format below
(``_encode_datum``).  Per TolerancePolicy, the realizability report is
cached on the datum alone.
The cube (S diag(w))^3 (``_cube``), the twists T/T_0 (``_twist_rows``) and
the cube-root lift of T (``_lift_t0``) each have one helper here, over a
block of rows.  A deviation that overflows is reported as the largest
float (``_capped``).

Conventions fixed here and used everywhere else:
  * index 0 is the vacuum; files whose vacuum sits elsewhere are rejected
    by validation, never silently permuted;
  * S is stored as the full complex matrix, T as its diagonal only;
  * quantum dimensions d_i = S_{0,i}/S_{0,0}, twists w_i = T_i/T_0,
    charge conjugation C = S^2, total dimension 1/S_{0,0};
  * the fusion tensor is stored as N[i, j, k] = N^k_{i,j}, the multiplicity
    of sector k in i x j.

File format (JSON, UTF-8)::

    { "rank": int, "labels": [str, ...]  (optional),
      "S": [[complex, ...], ...], "T": [complex, ...] }

where ``complex`` is either ``[re, im]`` or the exact-phase form
``{"abs": number, "arg_turns": "p/q"}`` meaning abs * e^{2 pi i p/q}.
``_encode_datum`` is its one encoder: data files, ``catalog NAME --json``
and the ``data`` of each ``search --json`` result are its text.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import IO, NamedTuple

import numpy as np

from .numerics import (DEFAULT_POLICY, TolerancePolicy, phase_from_turns, principal_root,
                       turns_fraction)

__all__ = [
    "InvalidModularData",
    "ModularData",
    "DerivedData",
    "twists",
    "verlinde_fusion",
    "derive",
    "parse_complex",
    "complex_to_json",
    "load_modular_data",
    "save_modular_data",
]


class InvalidModularData(ValueError):
    """Raised when data cannot form (or be derived from) a ModularData."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _checked_t(T, rank: int) -> np.ndarray:
    """T as a contiguous complex vector of length rank, or raise."""
    T = np.ascontiguousarray(T, dtype=complex)
    if T.shape != (rank,):
        raise InvalidModularData(f"T must have length {rank}, got {T.shape}")
    if not np.isfinite(T.view(float)).all():
        raise InvalidModularData("S and T entries must be finite")
    return T


class _SCache:
    """The S cache, shared by every datum made with ``_with_t``: S^2 and the
    raw Verlinde tensor, and in ``memo`` one ``_s_facts`` fill and one det K
    (``_det_k``) per TolerancePolicy and, for ``_encode_datum``, one encoded
    head per label tuple.
    """

    def __init__(self, S: np.ndarray):
        self.S = S
        self.memo: dict = {}

    @cached_property
    def S2(self) -> np.ndarray:
        return _readonly(self.S @ self.S)

    @cached_property
    def verlinde_raw(self) -> np.ndarray:
        """[i, j, k] = sum_r S_ir S_jr conj(S_kr) / S_0r, one matrix product."""
        S, n = self.S, len(self.S)
        pairs = (S[:, None, :] * S).reshape(n * n, n)
        return _readonly((pairs @ (np.conj(S) / S[0]).T).reshape(n, n, n))


@dataclass(frozen=True, eq=False)
class ModularData:
    """The S and T matrices of a candidate modular category.

    Construction enforces structural well-formedness only (shapes, finite
    entries); the mathematical axioms live in :mod:`modata.axioms` so that
    bad candidates can be diagnosed instead of rejected opaquely.  Like
    every record of the package that holds arrays, a datum compares and
    hashes by identity; ``approx_eq`` compares two data.
    """

    rank: int
    labels: tuple[str, ...]
    S: np.ndarray  # (rank, rank) complex
    T: np.ndarray  # (rank,) complex, the diagonal

    def __post_init__(self):
        S = np.ascontiguousarray(self.S, dtype=complex)
        if self.rank < 1:
            raise InvalidModularData(f"rank must be >= 1, got {self.rank}")
        if S.shape != (self.rank, self.rank):
            raise InvalidModularData(f"S must be {self.rank}x{self.rank}, got {S.shape}")
        T = _checked_t(self.T, self.rank)
        if not np.isfinite(S.view(float)).all():
            raise InvalidModularData("S and T entries must be finite")
        labels = tuple(str(x) for x in self.labels)
        if len(labels) != self.rank:
            raise InvalidModularData(f"need {self.rank} labels, got {len(labels)}")
        object.__setattr__(self, "S", _readonly(S))
        object.__setattr__(self, "T", _readonly(T))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_s", _SCache(S))
        object.__setattr__(self, "_memo", {})  # per policy, bantay's realizability report

    def _with_t(self, T) -> "ModularData":
        """The datum (S, T) with these labels, sharing this datum's S cache.

        Only T is checked, by the constructor's own check: S and the labels
        are this datum's, already checked and read-only."""
        T = _readonly(_checked_t(T, self.rank))
        md = object.__new__(ModularData)
        for f in fields(ModularData):
            object.__setattr__(md, f.name, T if f.name == "T" else getattr(self, f.name))
        # and what __post_init__ adds: the S cache, here shared, and a memo
        object.__setattr__(md, "_s", self._s)
        object.__setattr__(md, "_memo", {})
        return md

    @classmethod
    def from_matrices(cls, S, T, labels=None) -> "ModularData":
        T = np.asarray(T, dtype=complex)
        rank = len(T)
        if labels is None:
            labels = tuple(str(i) for i in range(rank))
        return cls(rank=rank, labels=tuple(labels), S=np.asarray(S, dtype=complex), T=T)

    @property
    def S2(self) -> np.ndarray:
        """S @ S, which a modular S makes the charge-conjugation matrix."""
        return self._s.S2

    @property
    def verlinde_raw(self) -> np.ndarray:
        """Unrounded Verlinde sum [i, j, k]; callers first check no S_{0,r} vanishes."""
        return self._s.verlinde_raw

    def approx_eq(self, other: "ModularData", pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
        """Entrywise equality of S and T within eq_tol (labels ignored)."""
        if self.rank != other.rank:
            return False
        return bool(
            np.abs(self.S - other.S).max() <= pol.eq_tol
            and np.abs(self.T - other.T).max() <= pol.eq_tol
        )

    def to_json_dict(self, exact_t: bool = False) -> dict:
        return {
            "rank": self.rank,
            "labels": list(self.labels),
            "S": np.stack((self.S.real, self.S.imag), -1).tolist(),  # [re, im] pairs
            "T": [complex_to_json(z, exact=exact_t) for z in self.T],
        }


@dataclass(frozen=True, eq=False)
class DerivedData:
    """Quantities read off S and T: dims, twists, conjugation, fusion, |sigma|."""

    dims: np.ndarray       # (rank,) float, d_0 = 1
    twists: np.ndarray     # (rank,) complex, w_0 = 1 exactly
    conj: np.ndarray       # (rank,) int, involution fixing 0
    fusion: np.ndarray     # (rank, rank, rank) int, N[i, j, k] = N^k_{i,j}
    total_dim: float       # 1/S_{0,0}

    def __post_init__(self):
        for name in ("dims", "twists", "conj", "fusion"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name))))


# ---------------------------------------------------------------------------
# derivation operations
# ---------------------------------------------------------------------------

_HUGE = float(np.finfo(float).max)


def _capped(x) -> float:
    """A deviation as a float, the largest float when it overflowed to inf or nan."""
    return float(x) if x <= _HUGE else _HUGE


class _SFacts(NamedTuple):
    """What S alone decides under one TolerancePolicy (``_fill_s_facts``).

    ``dims``, ``conj`` and ``fusion`` are None when their step of ``derive``
    fails; ``error`` is derive's message on S, that of the first failing
    step (dims, conjugation, Verlinde, S_00 positivity), and
    ``fusion_error`` the Verlinde step's, which ``verlinde_fusion`` raises.
    ``checks`` maps each check of stage S in ``axioms.CHECKS`` that ran to
    (measurement, failure or None), a failure being (indices, measured,
    message)."""

    dims: np.ndarray | None       # d_i = S_0i / S_00, real
    perm: np.ndarray              # per row of S^2, the column of its largest entry
    conj: np.ndarray | None       # perm, when S^2 is a vacuum-fixing involution
    fusion: np.ndarray | None     # the rounded Verlinde tensor, integral and >= 0
    fusion_error: str | None
    error: str | None
    checks: dict
    dims_gap: np.ndarray | None   # per sector |d_ibar - d_i|, d_i = |S_0i|; None without conj


def _s_facts(md: ModularData, pol: TolerancePolicy) -> _SFacts:
    """The S facts of ``md`` under ``pol``, filled once per S cache and policy."""
    facts = md._s.memo.get(pol)
    if facts is None:
        facts = md._s.memo[pol] = _fill_s_facts(md, pol)
    return facts


def _fill_s_facts(md: ModularData, pol: TolerancePolicy) -> _SFacts:
    S, n, eq, it = md.S, md.rank, pol.eq_tol, pol.int_tol
    row0, s00 = S[0], S[0, 0]
    meas, fails = {}, {}  # per S check, its measurement and its failure
    with np.errstate(all="ignore"):  # overflow shows as a capped deviation
        # a. unitarity, b. symmetry
        for check_id, dev, message in (
                ("s_unitary", np.abs(S @ S.conj().T - np.eye(n)),
                 "S S* deviates from identity by {m:.3e}"),
                ("s_symmetric", np.abs(S - S.T), "S is not symmetric: entry ({i},{j})")):
            m = meas[check_id] = _capped(dev.max())
            if m > eq:
                i, j = divmod(int(dev.argmax()), n)
                fails[check_id] = ((i, j),), m, message.format(m=m, i=i, j=j)

        # d. S^2 is a conjugation: each row a unit row, an involution fixing 0
        S2 = md.S2
        perm = _readonly(np.abs(S2).argmax(axis=1))
        unit = np.zeros_like(S2)  # the unit rows at perm
        unit[range(n), perm] = 1.0
        conj_dev = np.abs(S2 - unit).max(axis=1)
        m = meas["charge_conjugation"] = _capped(conj_dev.max())
        p = perm.tolist()
        conj = perm if (m <= eq and p[0] == 0
                        and all(p[p[i]] == i for i in range(n))) else None
        conj_error = None
        if conj is None:
            fails["charge_conjugation"] = ((tuple(p),), m,
                                           "S^2 is not a vacuum-fixing involutive permutation")
            bad = np.flatnonzero(~(conj_dev <= eq))
            conj_error = ("not modular: S^2 is not an involution fixing 0" if not len(bad) else
                          f"not modular: S^2 is not a conjugation (row {bad[0]} deviates by "
                          f"{_capped(conj_dev[bad[0]]):.3e})")

        # f. Verlinde integrality and the vacuum fusion row
        fusion = None
        d_row = np.abs(row0)
        if d_row.min() > eq:
            raw = md.verlinde_raw
            rounded = np.rint(raw.real).astype(int)
            dev = np.abs(raw - rounded)
            m = meas["verlinde_integrality"] = _capped(dev.max())
            if m > it or (rounded < 0).any():
                bad = np.argwhere(~(dev <= it) | (rounded < 0))
                fails["verlinde_integrality"] = (tuple(map(tuple, bad[:8].tolist())), m,
                                                 f"{len(bad)} fusion entries fail "
                                                 "integrality/nonnegativity")
                verlinde_error = (f"Verlinde integrality violation at (i,j,k) in "
                                  f"{list(map(tuple, bad[:5].tolist()))} (max deviation {m:.3e})")
            else:
                fusion, verlinde_error = _readonly(rounded), None
            if conj is not None:  # N^0 against the unit rows at conj
                dev = np.abs(raw[:, :, 0] - unit)
                m = meas["vacuum_fusion"] = _capped(dev.max())
                if m > it:
                    bad = np.argwhere(~(dev <= it))[:8].tolist()
                    fails["vacuum_fusion"] = (tuple(map(tuple, bad)), m,
                                              "N^0_{i,j} != delta_{j, ibar}")
        else:
            meas["verlinde_integrality"] = 1.0
            fails["verlinde_integrality"] = (), 1.0, "vanishing S_{0,r}: Verlinde sum undefined"
            verlinde_error = "Verlinde integrality violation: vanishing S_{0,r}"

        # g. the first row real and positive, dims >= 1; and derive's dims
        ratio = row0 / s00
        im, re_min = np.abs(row0.imag), float(row0.real.min())
        dev_imag = float(im.max())
        m = meas["dims_row"] = max(dev_imag, -re_min, 0.0)
        if dev_imag > eq or re_min <= 0:
            bad = np.flatnonzero((im > eq) | (row0.real <= 0)).tolist()
            fails["dims_row"] = (tuple((i,) for i in bad), max(m, eq),
                                 "S_{0,i} must be real and > 0")
        else:
            d, d_min = ratio.real, float(ratio.real.min())
            m = meas["dims_row"] = max(m, 1.0 - d_min)
            if d_min < 1.0 - it:
                fails["dims_row"] = (tuple((i,) for i in np.flatnonzero(d < 1.0 - it).tolist()),
                                     m, "quantum dimension below 1")
        dims = dims_error = None
        imag = np.abs(ratio.imag)
        if abs(s00) <= eq:
            dims_error = "invalid dimension row: S_{0,0} vanishes"
        elif imag.max() > eq:
            i = int(imag.argmax())
            dims_error = f"invalid dimension row: S_0,{i}/S_0,0 = {ratio[i]} is not real"
        else:
            dims = _readonly(ratio.real.copy())

        # h, dims half: conjugate sectors have equal dims
        dims_gap = None if conj is None else np.abs(d_row[conj] - d_row)
    s00_error = (f"S_0,0 = {s00} is not real positive"
                 if abs(s00.imag) > eq or s00.real <= 0 else None)
    error = dims_error or conj_error or verlinde_error or s00_error
    return _SFacts(dims, perm, conj, fusion, verlinde_error, error,
                   {c: (m, fails.get(c)) for c, m in meas.items()}, dims_gap)


def _twist_rows(T: np.ndarray, pol: TolerancePolicy) -> tuple[np.ndarray, np.ndarray]:
    """(W, ok) for an (R, n) block of T rows: W = T/T_0 row by row with
    W[:, 0] = 1 exactly, and ok where |T_0| > eq_tol.  A row that is not ok
    has no twists: it is left undivided, and no check reads it."""
    ok = np.abs(T[:, 0]) > pol.eq_tol
    W = T / np.where(ok, T[:, 0], 1.0)[:, None]
    W[:, 0] = 1.0
    return W, ok


_T0_VANISHES = "invalid twists: T_0 vanishes"


def twists(md: ModularData, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Twists w_i = T_i/T_0, with w_0 = 1 exactly after normalization."""
    W, ok = _twist_rows(md.T[None], pol)
    if not ok[0]:
        raise InvalidModularData(_T0_VANISHES)
    return W[0]


def verlinde_fusion(md: ModularData, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Fusion tensor N^k_{i,j} = sum_r S_{i,r} S_{j,r} conj(S_{k,r}) / S_{0,r}.

    Every entry must round to a nonnegative integer within int_tol.
    """
    facts = _s_facts(md, pol)
    if facts.fusion is None:
        raise InvalidModularData(facts.fusion_error)
    return facts.fusion.copy()


def _casimir_det(N: np.ndarray) -> int:
    """Exact det K of K = sum_i N_i N_ibar, N_i[j, k] = N^k_{i,j} and N_ibar = N_i^t.

    K has eigenvalues D^2/d_j^2, so by the Cauchy theorem of Bruillard, Ng,
    Rowell and Wang the primes dividing det K are those dividing ord T.
    Bareiss elimination on Python ints, after K is formed in int64 unless its
    sums of rank^2 products could wrap: det K outgrows int64 by rank 16.  K is
    symmetric, and so is every trailing block the elimination leaves, so only
    the entries on and above the diagonal are updated.
    """
    rows = N.transpose(1, 0, 2).reshape(len(N), -1)  # [j, (i, k)]
    if len(N) ** 2 * int(N.max()) ** 2 >= 1 << 63:
        rows = rows.astype(object)
    K = (rows @ rows.T).tolist()
    n, prev = len(K), 1
    for c in range(n - 1):
        top = K[c]
        piv = top[c]  # the leading principal minor of order c + 1
        if piv == 0:
            return 0  # K is positive semidefinite, so det K = 0 (Fischer's inequality)
        for r in range(c + 1, n):
            row, f = K[r], top[r]  # K[r][c] = K[c][r]
            row[r:] = [(row[s] * piv - f * top[s]) // prev for s in range(r, n)]
        prev = piv
    return K[-1][-1]


def _det_k(md: ModularData, pol: TolerancePolicy) -> int | None:
    """det K over the S facts' fusion tensor under ``pol``, None without one;
    computed on first read and kept in the memo of the S cache."""
    key = (_det_k, pol)
    if key not in md._s.memo:
        fusion = _s_facts(md, pol).fusion
        md._s.memo[key] = None if fusion is None else _casimir_det(fusion)
    return md._s.memo[key]


def _prime_support(n: int) -> set[int]:
    """The primes dividing n > 0, by trial division below 2^16; a part of n
    with no prime factor below that bound is returned as one element."""
    primes, p = set(), 2
    while p * p <= n and p < 1 << 16:
        if n % p == 0:
            primes.add(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.add(n)
    return primes


def _cube(S: np.ndarray, W: np.ndarray) -> np.ndarray:
    """(S diag(w))^3 for each row w of W, shape (..., n): one stacked matmul,
    whose every slice equals the 2-D product of its row bit for bit."""
    M = S * W[..., None, :]
    return M @ M @ M


def _lift_t0(md: ModularData, W: np.ndarray) -> list:
    """Per row w of the (R, n) block W, the principal T_0 = lambda^{-1/3} with
    (S diag(w))^3 = lambda S^2 and ||lambda| - 1| each within the default
    eq_tol, lambda = (S diag(w))^3_00 / (S^2)_00; None for a row with no such
    lambda.  S and S^2 come from the S cache of ``md``.  Its callers build S
    and w exactly (from ring characters or a closed formula, and roots of
    unity), so float noise alone decides the relation, and no policy does."""
    S2 = md.S2
    M3 = _cube(md.S, W)
    lam = M3[:, 0, 0] / S2[0, 0]
    dev = np.abs(M3 - lam[:, None, None] * S2).max(axis=(1, 2))
    t0 = [None] * len(W)
    for r in np.flatnonzero(dev <= DEFAULT_POLICY.eq_tol):
        if abs(abs(lam[r]) - 1.0) <= DEFAULT_POLICY.eq_tol:
            t0[r] = 1.0 / principal_root(lam[r], 3)
    return t0


def _derive_failure(facts: _SFacts, ok: bool) -> str | None:
    """derive's message on a datum with S facts ``facts`` and a T_0 that is
    ``ok`` (``_twist_rows``), None when it derives.  The steps keep their
    order (dims, twists, the rest) and so their errors."""
    return _T0_VANISHES if facts.dims is not None and not ok else facts.error


def derive(md: ModularData, pol: TolerancePolicy = DEFAULT_POLICY) -> DerivedData:
    """Bundle dims, twists, conjugation, fusion and the total dimension; or
    raise InvalidModularData with the first failing step's message."""
    facts = _s_facts(md, pol)
    W, ok = _twist_rows(md.T[None], pol)
    error = _derive_failure(facts, ok[0])
    if error is not None:
        raise InvalidModularData(error)
    return DerivedData(dims=facts.dims, twists=W[0], conj=facts.conj, fusion=facts.fusion,
                       total_dim=1.0 / md.S[0, 0].real)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def _is_number(x) -> bool:
    # JSON true/false arrive as bool, a subclass of int; they are not numbers
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_json_int(x) -> bool:
    # int() would coerce "2", 2.5 and true; a JSON integer arrives as int alone
    return isinstance(x, int) and not isinstance(x, bool)


def parse_complex(obj) -> complex:
    """Parse one complex value: [re, im] or {"abs": a, "arg_turns": "p/q"}."""
    if type(obj) is list and len(obj) == 2 and type(obj[0]) is float and type(obj[1]) is float:
        return complex(obj[0], obj[1])  # the form every writer emits
    try:  # float() of a JSON integer beyond the float range overflows
        if _is_number(obj):
            # tolerated on input for hand-written files; never emitted
            return complex(float(obj), 0.0)
        if isinstance(obj, list):
            if len(obj) != 2 or not all(_is_number(x) for x in obj):
                raise InvalidModularData(f"complex value must be [re, im], got {obj!r}")
            return complex(float(obj[0]), float(obj[1]))
        if isinstance(obj, dict):
            mag = obj.get("abs")
            if not _is_number(mag) or "arg_turns" not in obj:
                raise InvalidModularData(f"bad exact-phase form {obj!r}")
            turns_str = obj["arg_turns"]
            parts = str(turns_str).split("/")
            if len(parts) != 2:
                raise InvalidModularData(f'arg_turns must be "p/q", got {turns_str!r}')
            try:
                p, q = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise InvalidModularData(f'arg_turns must be "p/q", got {turns_str!r}') from exc
            if q <= 0:
                raise InvalidModularData(f"arg_turns denominator must be > 0, got {q}")
            # float((p % q) / q) is correctly rounded, as float(Fraction(p, q) % 1) is
            return float(mag) * phase_from_turns((p % q) / q)
    except OverflowError as exc:
        raise InvalidModularData(f"number beyond the float range: {exc}") from exc
    raise InvalidModularData(f"cannot parse complex value {obj!r}")


def complex_to_json(z: complex, exact: bool = False):
    """Serialize a complex value; exact=True tries the arg_turns form, q <= 240.

    An ``abs`` within 4 ulps of 1 is written as 1.0, so that reading and
    writing again gives back the same document.
    """
    z = complex(z)
    if exact:
        mag = abs(z)
        frac = turns_fraction(z / mag) if mag > 0 else None
        if frac is not None:
            return {"abs": 1.0 if abs(mag - 1.0) <= 4 * 2.0 ** -52 else mag,
                    "arg_turns": f"{frac.numerator}/{frac.denominator}"}
    return [z.real, z.imag]


def _md_from_dict(doc: dict) -> ModularData:
    if not isinstance(doc, dict):
        raise InvalidModularData("top-level JSON value must be an object")
    try:
        rank = doc["rank"]
        S_rows = doc["S"]
        T_row = doc["T"]
    except KeyError as exc:
        raise InvalidModularData(f"missing or malformed field: {exc}") from exc
    if not _is_json_int(rank):
        raise InvalidModularData(f'"rank" must be an integer, got {rank!r}')
    if (not isinstance(S_rows, list) or not all(isinstance(row, list) for row in S_rows)
            or not isinstance(T_row, list)):
        raise InvalidModularData('"S" must be a matrix and "T" a list')
    if len({len(row) for row in S_rows}) != 1:  # ragged rows would make np.array raise
        raise InvalidModularData("S rows have inconsistent lengths")
    S = np.array([[parse_complex(z) for z in row] for row in S_rows], dtype=complex)
    T = np.array([parse_complex(z) for z in T_row], dtype=complex)
    # default labels per T entry, not per rank: a rank that T disagrees with
    # fails the constructor's shape checks first, and a huge one allocates nothing
    labels = doc["labels"] if "labels" in doc else [str(i) for i in range(len(T))]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise InvalidModularData(f'"labels" must be a list of strings, got {labels!r}')
    return ModularData(rank=rank, labels=tuple(labels), S=S, T=T)


def _read_json(source, error_cls: type[Exception]):
    """Decode the JSON document in a path, a resource or an open text stream."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        elif hasattr(source, "read_text"):
            text = source.read_text(encoding="utf-8")
        else:
            with open(source, "rb") as f:  # one read, then one strict decode
                text = f.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error_cls(f"not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, too deep
        raise error_cls(f"malformed JSON: {exc}") from exc


class _Encoded(str):
    """A JSON text, which ``_write_json`` places verbatim as the value it encodes."""


class _Spliced(dict):
    """A dict that ``_dumps`` encodes value by value, so that its values, and
    those of the ``_Spliced`` dicts in a list among them, may be ``_Encoded``."""


def _dumps(doc) -> str:
    """``json.dumps(doc)``, with each ``_Encoded`` text placed verbatim.

    A ``_Spliced`` dict, and a list holding one, are encoded value by value
    around the texts, which are placed by position: the output is never
    searched, as labels and paths may hold any text.  Any other value is one
    ``json.dumps`` call.  The keys of a ``_Spliced`` dict are strings.
    """
    if isinstance(doc, _Encoded):
        return doc
    if isinstance(doc, _Spliced):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(v)}" for k, v in doc.items()) + "}"
    if isinstance(doc, list) and any(isinstance(v, _Spliced) for v in doc):
        return "[" + ", ".join(map(_dumps, doc)) + "]"
    return json.dumps(doc)


def _write_json(doc, target) -> None:
    """Write ``doc`` as one line of JSON to a path or an open text stream.

    The one writer of every document modata emits: ``--json`` output, data
    files, fusion rings and search results.  A document is one ``json.dumps``
    call, which runs CPython's C encoder without ``indent``, unless it holds
    encoded texts (``_dumps``): a datum's text from ``_encode_datum``, or
    the ``search --json`` document, which carries each result's text as its
    ``data``.  ``python -m json.tool`` pretty-prints.
    """
    text = _dumps(doc) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "wb") as f:  # one open and write; no text-layer wrapper
            f.write(text.encode("utf-8"))


def load_modular_data(source: str | Path | IO[str]) -> ModularData:
    """Read a modular-data file; raises InvalidModularData on any defect."""
    return _md_from_dict(_read_json(source, InvalidModularData))


def _encode_datum(md: ModularData, exact_t: bool = False) -> _Encoded:
    """The file-format text of ``md``: ``json.dumps(md.to_json_dict(exact_t))``.

    The head ``{"rank": n, "labels": [...], "S": [...], "T": `` is encoded
    once per S cache and label tuple and kept in the memo of the S cache, so
    the T candidates ``_with_t`` makes share it and only T is encoded per datum.
    """
    key = (_encode_datum, md.labels)
    head = md._s.memo.get(key)
    if head is None:
        skeleton = md.to_json_dict()
        del skeleton["T"]  # the last key
        head = md._s.memo[key] = json.dumps(skeleton)[:-1] + ', "T": '  # ends in "}"
    return _Encoded(head + json.dumps([complex_to_json(z, exact=exact_t) for z in md.T]) + "}")


def save_modular_data(md: ModularData, target: str | Path | IO[str], exact_t: bool = False) -> str:
    """Write ``md`` in the file format, T in exact-phase form where it can be
    with ``exact_t``, and return the text written, without its final newline."""
    text = _encode_datum(md, exact_t)
    _write_json(text, target)
    return text
