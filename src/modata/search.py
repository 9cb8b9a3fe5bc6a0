"""Small-rank search: fusion ring -> candidate S -> candidate T -> filters.

Pipeline:

  1. ``candidate_s`` simultaneously diagonalizes the fusion matrices
     (standard character theory of a commutative fusion ring); columns are
     the common eigenvectors, phase-fixed to a positive first entry, and
     every column ordering that yields a symmetric matrix with a positive
     vacuum column is kept.  Orderings are built label by label, and one
     that already breaks symmetry is not extended, so the n! orderings are
     never all formed.
  2. ``enumerate_t`` assigns roots of unity (bounded order) to the twists,
     respecting w_0 = 1 and w_ibar = w_i, keeps assignments for which
     (S diag(w))^3 is a scalar multiple of S^2, and emits all three cube
     roots of that scalar as T_0 candidates; each emitted T satisfies
     (S T)^3 = S^2 exactly.  The three lifts differ by the central charge
     mod 8 and are genuinely distinct data.  Only roots whose order has
     every prime dividing det K, K = sum_i N_i N_ibar over the ring, are
     used: by the Cauchy theorem the primes of ord T are those of det K,
     and the realizability report rejects any datum with another prime.
     The orbits are bound one level per stacked step: the surviving
     prefixes times the admissible roots of the next orbit form one child
     array, cut into blocks of at most ``_BLOCK_ROWS`` rows, and a child
     survives only if the balancing equations w_i w_j S_ij D =
     sum_k N^k_{ibar j} d_k w_k that it binds fully hold within a bound
     derived from the relation's tolerance, so no admissible assignment is
     lost.  On SU(2)_k at q = 4(k+2), k = 4, 5, the equation for (1, a)
     pins the twist of a + 1, and of the R^(k-1) prefixes over R
     admissible roots four reach the last orbit.  The last orbit's
     equations screen the full assignments as well, and only their
     survivors go, one call per block, to ``_lift_t0``, which cubes them in
     one stacked matmul and decides and lifts every row by the relation at
     eq_tol: on the Ising ring at q = 32 that is 32 rows, not 1,024.
     S^2, the conjugation, the Verlinde tensor and det K come from the
     cache of the S datum, a ``ModularData`` whose T is never read.
     The search runs this step at ``DEFAULT_POLICY`` whatever its own
     policy: the ring is integral, S comes from its characters and the
     twists are exact roots of unity, so float noise alone decides the
     relation.  A looser eq_tol would only widen the balancing bound, so
     that the walk barely prunes, and admit near misses of the relation;
     the caller's policy governs steps 1 and 3.
  3. ``search_pipeline`` first screens all T candidates of one S by
     Bantay's FS indicator in one stacked call (``_fs_screen``): a candidate
     whose direct FS sum nu_i = w_i tau[0][i] lies too far from +/-1 on a
     self-dual sector, or from 0 on another, would fail the report, so it
     gets no report and is counted as ``fs_screened``.  The
     other candidates of that S go through one stacked realizability pass
     (``bantay._reported_rows``): the axiom checks that read T, the
     trace tables, the FS sums and the multiplicity integers of all of them
     are computed as arrays at once, and each candidate's datum is left
     holding the report that ``realizability_report`` gives it alone, bit
     for bit, which the search then reads with one ``realizability_report``
     call per candidate.  The passes are kept in provenance order.  Every
     T candidate shares the S datum of step 2, so what S alone decides
     (unitarity, symmetry, conjugation, Verlinde rounding, the dimension
     row, det K; see :mod:`modata.modular_data`) is computed once per S.
     A pass equal to
     an already kept result in both S and T within eq_tol is dropped; that
     (S, T) check is the search's only dedup.  Two S candidates differ by
     at least sqrt(2/rank) in some entry (``candidate_s``), which is 0.408
     at rank 12 and does not exceed every eq_tol the policy admits, so once
     per S candidate the earlier S candidates within eq_tol of it are found,
     and a pass is compared with the kept results of those and of its own
     S, in one array operation over their T.

The pipeline enumerates admissible modular data; whether two realizations
of the same data are equivalent categories is out of its scope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from pathlib import Path
from typing import IO, NamedTuple

import numpy as np

from .axioms import AxiomReport
from .bantay import _fs_sums, _reported_rows, realizability_report
from .modular_data import (
    ModularData,
    _det_k,
    _is_json_int,
    _lift_t0,
    _prime_support,
    _read_json,
    _s_facts,
    _twist_rows,
    _write_json,
    verlinde_fusion,
)
from .numerics import DEFAULT_POLICY, TolerancePolicy, phase_from_turns

__all__ = [
    "FusionRingError",
    "FusionRing",
    "SearchResult",
    "TEnumeration",
    "candidate_s",
    "enumerate_t",
    "search_pipeline",
    "load_fusion_ring",
    "save_fusion_ring",
]

MAX_SEARCH_RANK = 12
MAX_SEARCH_ORDER = 1000  # the root table grows as max_order^2: 304,192 roots at 1,000
_SPLIT_TOL = 1e-8  # relative eigenvalue gap that splits a joint eigenspace
_ROUNDING = 1e-12  # float noise allowed for in the balancing bound and the FS screen
_BLOCK_ROWS = 4096  # rows of one stacked step of the twist walk, which bounds its memory


class FusionRingError(ValueError):
    pass


@dataclass(frozen=True)
class FusionRing:
    """A commutative associative fusion ring; N[i, j, k] = N^k_{i,j}."""

    rank: int
    N: np.ndarray

    def __post_init__(self):
        try:
            N = np.asarray(self.N, dtype=int)
        except OverflowError as exc:  # a multiplicity beyond int64
            raise FusionRingError(f"fusion multiplicity out of range: {exc}") from exc
        if N.shape != (self.rank,) * 3:
            raise FusionRingError(f"N must be rank^3 = {(self.rank,)*3}, got {N.shape}")
        if (N < 0).any():
            raise FusionRingError("fusion multiplicities must be nonnegative")
        if (N != N.transpose(1, 0, 2)).any():
            raise FusionRingError("fusion ring is not commutative")
        if (N[0] != np.eye(self.rank, dtype=int)).any():
            raise FusionRingError("index 0 is not a unit")
        # N^0_{i,j} = delta_{j, ibar} for an involution fixing 0: N^0 is
        # symmetric (commutativity) with N^0_00 = 1 (the unit), so nonnegative
        # rows of sum 1 make it a permutation matrix, its own inverse
        if (N[:, :, 0].sum(axis=1) != 1).any():
            raise FusionRingError("vacuum row N^0 is not a permutation")
        # associativity: sum_m N^m_{i,j} N^l_{m,k} = sum_m N^m_{j,k} N^l_{i,m},
        # in Python ints where a sum of rank products could outgrow int64
        A = N if self.rank * int(N.max()) ** 2 < 1 << 63 else N.astype(object)
        left = np.einsum("ijm,mkl->ijkl", A, A)
        right = np.einsum("jkm,iml->ijkl", A, A)
        if (left != right).any():
            raise FusionRingError("fusion ring is not associative")
        N.setflags(write=False)
        object.__setattr__(self, "N", N)

    def to_json_dict(self) -> dict:
        return {"rank": self.rank, "N": [[[int(x) for x in row] for row in plane]
                                         for plane in self.N]}


@dataclass(frozen=True)
class SearchResult:
    """One admissible modular datum with its passing report and provenance."""

    md: ModularData
    report: AxiomReport
    provenance: tuple[int, int, int]  # (S index, twist assignment index, cube-root index)


class TEnumeration(NamedTuple):
    diagonals: list[np.ndarray]
    assignments: list[int]  # assignment index per diagonal, parallel list
    skipped: int  # assignments in the full root product that were not kept
    pruned: int   # of those, the ones with a root the Cauchy theorem excludes
    rows_cubed: int  # assignments the walk handed to ``_lift_t0``


# ---------------------------------------------------------------------------
# candidate S matrices
# ---------------------------------------------------------------------------

def _joint_eigenvectors(fr: FusionRing) -> list[np.ndarray]:
    """Common eigenvectors of the fusion matrices via subspace splitting.

    The action matrices B_i (B_i)[k, j] = N^k_{i,j} form a commuting family
    closed under transposition (B_ibar = B_i^t), so splitting with the
    Hermitian generators B_i + B_i^t and i(B_i - B_i^t) refines the space
    into the joint eigenspaces.
    """
    n = fr.rank
    gens: list[np.ndarray] = []
    for i in range(1, n):
        B = fr.N[i].T.astype(float)
        gens.append(B + B.T)
        A = B - B.T
        if A.any():
            gens.append(1j * A)
    spaces: list[np.ndarray] = [np.eye(n, dtype=complex)]
    for H in gens:
        refined: list[np.ndarray] = []
        for Q in spaces:
            if Q.shape[1] == 1:
                refined.append(Q)
                continue
            sub = Q.conj().T @ H @ Q
            vals, vecs = np.linalg.eigh(sub)
            start = 0
            for t in range(1, len(vals) + 1):
                if t == len(vals) or vals[t] - vals[t - 1] > _SPLIT_TOL * (1.0 + abs(vals[t])):
                    refined.append(Q @ vecs[:, start:t])
                    start = t
        spaces = refined
    if any(Q.shape[1] > 1 for Q in spaces):
        raise FusionRingError(
            "fusion ring not transitive: cannot diagonalize uniquely "
            f"(a joint eigenspace has dimension {max(Q.shape[1] for Q in spaces)})")
    return [Q[:, 0] for Q in spaces]


def _check_search_rank(rank: int) -> None:
    if rank > MAX_SEARCH_RANK:
        raise FusionRingError(f"rank {rank} exceeds the search bound {MAX_SEARCH_RANK}")


def _check_max_order(max_order: int) -> None:
    if not 1 <= max_order <= MAX_SEARCH_ORDER:
        raise ValueError(f"max_order must be between 1 and {MAX_SEARCH_ORDER}, got {max_order}")


def candidate_s(fr: FusionRing, pol: TolerancePolicy = DEFAULT_POLICY) -> list[np.ndarray]:
    """Unitary symmetric S candidates assembled from the ring characters.

    Columns are phase-fixed so the first entry is real positive; an ordering
    sigma, S = C[:, sigma], is kept when S is symmetric within eq_tol and
    its vacuum column (position 0) is entrywise positive.  The orderings are
    built label by label, depth first: label 0 takes only a real positive
    column, and label j takes an unused column c only if
    |C[i, c] - C[j, sigma(i)]| <= eq_tol for every label i < j already
    placed.  Columns are tried in ascending order, so the kept matrices come
    in ``itertools.permutations`` order.  Two orderings of orthonormal
    columns differ by at least sqrt(2/rank) in some entry (0.408 at rank
    12), so the kept matrices are distinct; ``search_pipeline`` does not
    rely on that bound exceeding eq_tol.
    """
    _check_search_rank(fr.rank)
    cols = []
    for v in _joint_eigenvectors(fr):
        v = v / np.linalg.norm(v)
        if abs(v[0]) <= pol.eq_tol:
            return []  # a character vanishing on the vacuum admits no S
        v = v * (np.conj(v[0]) / abs(v[0]))
        cols.append(v)
    C = np.column_stack(cols)
    tol, n = pol.eq_tol, len(cols)
    positive = (np.abs(C.imag).max(axis=0) <= tol) & (C.real > tol).all(axis=0)
    rows = C.tolist()  # the per-node test on Python complex, not numpy scalars
    sigma: list[int] = []
    found: list[np.ndarray] = []

    def place(j: int) -> None:
        if j == n:
            found.append(C[:, sigma].copy())
            return
        row_j = rows[j]
        for c in range(n):
            if c in sigma or (j == 0 and not positive[c]):
                continue
            if all(abs(rows[i][c] - row_j[s]) <= tol for i, s in enumerate(sigma)):
                sigma.append(c)
                place(j + 1)
                sigma.pop()

    place(0)
    return found


# ---------------------------------------------------------------------------
# candidate T diagonals
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _roots_of_unity(max_order: int) -> tuple[Fraction, ...]:
    """The turns p/q in [0, 1) with q <= max_order, sorted; built once per max_order.

    Each turn is built once, in lowest terms, so no set is needed."""
    return tuple(sorted(Fraction(p, q) for q in range(1, max_order + 1)
                        for p in range(q) if math.gcd(p, q) == 1))


def _twist_orbits(md: ModularData, pol: TolerancePolicy) -> list[list[int]]:
    """Orbits {i, ibar} of the duality read off S^2, vacuum excluded."""
    perm = _s_facts(md, pol).perm
    orbits, seen = [], {0}
    for i in range(1, md.rank):
        if i in seen:
            continue
        orb = sorted({i, int(perm[i])})
        seen.update(orb)
        orbits.append(orb)
    return orbits


def _cauchy_roots(det: int | None, roots: tuple[Fraction, ...]) -> list[int]:
    """Indices of the roots whose order has only primes dividing det K.

    K = sum_i N_i N_ibar over the ring tensor; without one (``det`` None,
    a Verlinde sum that does not round) nothing is pruned.
    """
    if det is None:
        return list(range(len(roots)))
    # each denominator is factored once, not once per root
    ok = {q: all(det % p == 0 for p in _prime_support(q))
          for q in {r.denominator for r in roots}}
    return [k for k, r in enumerate(roots) if ok[r.denominator]]


def _balancing_levels(md: ModularData, N: np.ndarray | None, orbits: list[list[int]],
                      tol: float, pol: TolerancePolicy) -> list[tuple[np.ndarray, ...]]:
    """For each orbit, in binding order, the balancing equations it completes.

    Equation (i, j) is R_ij = w_i w_j S_ij D - sum_k N^k_{ibar j} d_k w_k = 0;
    it involves w_i, w_j and each w_k with N^k_{ibar j} > 0, and w_0 = 1 is
    bound from the start.  An orbit's entry is (I, J, D S_IJ, the
    (n, #equations) matrix of d_k N^k_{ibar j}, beta_IJ) over the equations
    whose last unbound twist lies on it.  Without a tensor, or when S is not
    a unitary symmetric matrix with a real vacuum row whose square is a
    conjugation (the duality of the orbits), there are no equations.
    """
    S, n = md.S, md.rank
    facts = _s_facts(md, pol)
    level = np.full(n, -1)
    for lv, orb in enumerate(orbits):
        level[orb] = lv
    # the premises of the bound: S unitary and symmetric with a real vacuum
    # row, and S^2 a conjugation, all up to rounding
    m = {c: meas for c, (meas, _) in facts.checks.items()}
    off = max(m["s_unitary"], m["s_symmetric"], np.abs(S[0].imag).max(), m["charge_conjugation"])
    if N is None or facts.conj is None or off > _ROUNDING:
        none = np.zeros(0, dtype=int)
        return [(none, none, np.zeros(0), np.zeros((n, 0)), np.zeros(0))] * len(orbits)
    Nb = N[facts.conj]  # Nb[i, j, k] = N^k_{ibar, j}
    absS = np.abs(S)
    D = 1.0 / S[0, 0]
    beta = abs(D) * n * (1.0 + absS @ (absS / absS[0]).T) * tol
    binds = np.maximum(np.maximum.outer(level, level),
                       np.where(Nb > 0, level, -1).max(axis=2))
    return [(I, J, D * S[I, J], (Nb[I, J] * (D * S[0])).T, beta[I, J])
            for I, J in (np.nonzero(binds == lv) for lv in range(len(orbits)))]


def enumerate_t(md: ModularData, max_order: int,
                pol: TolerancePolicy = DEFAULT_POLICY) -> TEnumeration:
    """All T diagonals with (S T)^3 = S^2 and admissible twists of order <= max_order.

    ``md`` is the S datum, whose T is never read; every S-only quantity
    below comes from its S cache, which ``md._with_t`` shares.
    A twist is admissible when every prime of its order divides det K,
    K = sum_i N_i N_ibar over the ring tensor N, the rounded Verlinde tensor
    of S: by the Cauchy theorem (Bruillard-Ng-Rowell-Wang) those are the
    primes of ord T.  Assignments with an inadmissible root are never
    formed; they are counted as ``pruned``.  For each other
    conjugation-respecting twist assignment the cube M = (S diag(w))^3
    either matches a single scalar lambda times S^2, in which case the three
    diagonals lambda^{-1/3} zeta diag(w), zeta^3 = 1, are emitted one after
    another, or the assignment is not kept.  ``skipped`` counts every
    assignment of the full root product that is not kept, the pruned ones
    included.

    The orbits are bound one level per stacked step, in their natural
    order: the surviving prefixes of a level times every admissible root on
    the next orbit form one array of children, prefix-major, cut into
    blocks of at most ``_BLOCK_ROWS`` rows so that memory stays bounded,
    and a child is kept only if each balancing equation (Bakalov-Kirillov,
    Lectures on tensor categories and modular functors, 3.1)

        R_ij = w_i w_j S_ij D - sum_k N^k_{ibar j} d_k w_k = 0,
        D = 1/S_00,  d_k = S_0k/S_00,

    that this level is the first to bind fully has |R_ij| <= beta_ij,

        beta_ij = D n (1 + c_ij) eps,  c_ij = sum_m |S_im| |S_jm| / |S_0m|,
        eps = eq_tol + 1e-12.

    The survivors of a block are walked further before the next block, so
    at most one block per level is held.  The last orbit's equations screen
    the full assignments too, and the survivors of each last-level block go
    to ``_lift_t0`` in one call: one stacked matmul cubes them
    (``rows_cubed`` counts those rows), and each is kept, and lifted, when
    it meets the relation within eq_tol.  A slice of the stacked product
    equals the 2-D product of its row bit for bit, so every emitted bit is
    that of the plain per-assignment loop.  The walk visits assignments in
    ``itertools.product`` order, and assignment indices are positions in
    that order over the full root list on every orbit, pruned roots
    included.  Nothing is deduplicated here: ``search_pipeline`` compares
    the data that pass its filter.

    ``pol`` sets eq_tol, and with it the balancing bound and the relation
    test, and the S facts read here.  A library caller keeps its own
    policy; ``search_pipeline`` passes none, so the search enumerates at
    ``DEFAULT_POLICY`` (see the module docstring, step 2).

    Why the prune loses no row that ``_lift_t0`` accepts.  S is unitary
    and symmetric with a real vacuum row, as ``candidate_s`` builds it, and
    W = diag(w) has unimodular entries and commutes with C = S^2
    (w_ibar = w_i).  An S that departs from this by more than 1e-12 is
    not pruned, and smaller float departures are covered by the 1e-12 in
    eps.  ``_lift_t0`` accepts a row when E = (S W)^3 - lambda S^2 has
    max |E| <= eq_tol, so max |E| <= eps with 1e-12 to spare for rounding.

      1. The spectral norm of an n x n matrix is at most n times its
         largest entry, so ||E|| <= n eps.
      2. Multiplying E by conj(S) = S^-1 on the left and by
         conj(W) conj(S) = (S W)^-1 on the right gives
         A = W S W - lambda S conj(W) conj(S); multiplying E by
         conj(W) conj(S) conj(W) conj(S) on the left and by conj(S) on the
         right gives B = S W conj(S) - lambda conj(W) conj(S) conj(W).
         All factors are unitary, so ||A||, ||B|| <= n eps.
      3. Expand N^k_{ibar j} = sum_m conj(S_im) S_jm conj(S_km) / S_0m
         (Verlinde; S_ibar,m = conj(S_im)), so that
         sum_k N^k_{ibar j} d_k w_k = D sum_m conj(S_im) S_jm
         (S W conj(S))_0m / S_0m, and since S_0m is real,
         (S W conj(S))_0m = lambda S_0m conj(w_m) + B_0m.
         S conj(W) conj(S) is symmetric because W commutes with C, so the
         lambda terms cancel against the (i, j) entry of A:
         R_ij = D A_ij - D sum_m conj(S_im) S_jm B_0m / S_0m, and
         |R_ij| <= D n eps (1 + c_ij) = beta_ij.

    So an accepted row satisfies every balancing equation within its bound
    and is never pruned, at any level.  With no ring tensor nothing is
    pruned.
    """
    _check_max_order(max_order)
    orbits = _twist_orbits(md, pol)
    roots = _roots_of_unity(max_order)
    N = _s_facts(md, pol).fusion
    keep = _cauchy_roots(_det_k(md, pol), roots)
    phases = np.array([phase_from_turns(roots[k]) for k in keep], dtype=complex)
    cube_roots = [phase_from_turns(Fraction(j, 3)) for j in range(3)]
    levels = _balancing_levels(md, N, orbits, pol.eq_tol + _ROUNDING, pol)
    diagonals: list[np.ndarray] = []
    assignment_ids: list[int] = []
    rows_cubed = 0

    def lift(W: np.ndarray, picks: np.ndarray) -> None:
        # picks[r]: row r's root position in ``keep`` on each orbit
        nonlocal rows_cubed
        rows_cubed += len(W)
        for r, t0 in enumerate(_lift_t0(md, W, pol)):
            if t0 is None:
                continue
            base = t0 * W[r]
            diagonals.extend(zeta * base for zeta in cube_roots)
            a_idx = 0  # mixed radix over the full root list; may outgrow int64
            for k in picks[r].tolist():
                a_idx = a_idx * len(roots) + keep[k]
            assignment_ids.extend([a_idx] * len(cube_roots))

    def walk(depth: int, prefixes: np.ndarray, picks: np.ndarray) -> None:
        if depth == len(orbits):  # every orbit bound: rank 1 starts here with one all-ones row
            lift(prefixes, picks)
            return
        I, J, DS, coef, beta = levels[depth]
        n_children = len(prefixes) * len(keep)
        for start in range(0, n_children, _BLOCK_ROWS):
            parent, root = np.divmod(np.arange(start, min(start + _BLOCK_ROWS, n_children)),
                                     len(keep))
            W = prefixes[parent]
            W[:, orbits[depth]] = phases[root, None]
            child = np.column_stack((picks[parent], root))
            if len(I):
                res = DS * W[:, I] * W[:, J] - W @ coef
                ok = (np.abs(res) <= beta).all(axis=1)
                W, child = W[ok], child[ok]
            if len(W):
                walk(depth + 1, W, child)

    walk(0, np.ones((1, md.rank), dtype=complex), np.zeros((1, 0), dtype=int))
    full = len(roots) ** len(orbits)
    pruned = full - len(keep) ** len(orbits)
    skipped = full - len(diagonals) // len(cube_roots)
    return TEnumeration(diagonals=diagonals, assignments=assignment_ids, skipped=skipped,
                        pruned=pruned, rows_cubed=rows_cubed)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def _fs_screen(s_md: ModularData, diagonals: list[np.ndarray],
               pol: TolerancePolicy) -> np.ndarray:
    """Per T diagonal of the S datum ``s_md``, False where the FS sums
    already rule out a passing ``realizability_report``.

    The direct FS sums nu_i = sum_{r,s} S[r,0] S[s,0] N^i_{r,s} w_r^2/w_s^2
    of all diagonals are one stacked ``_fs_sums`` call, over the twists
    w = T/T_0, w_0 = 1, that the report forms (``_twist_rows``).  A passing
    report has |w_i tau[0][i] - nu_i| <= eq_tol (``fs_route_agreement``),
    w_i tau[0][i] within int_tol of +1 or -1 when i is self-dual
    (``fs_value``), and exactly 0 otherwise: it passes ``vacuum_fusion``, so
    N^0_ii = 0 and the channel (0, i) is clamped.  So a row is dropped only
    if some self-dual i has min |nu_i -+ 1| > int_tol + eq_tol + 1e-12 or
    some other i has |nu_i| > 2 eq_tol + 1e-12, the 1e-12 covering float
    noise, and its report would fail.  N and the conjugation come from the
    S facts; when ``derive`` fails on S every report fails ``derivation``,
    and nothing is dropped.
    """
    keep, facts = np.ones(len(diagonals), dtype=bool), _s_facts(s_md, pol)
    if not diagonals or facts.error is not None:
        return keep
    W, _ = _twist_rows(np.array(diagonals), pol)
    nu = _fs_sums(s_md.S[:, 0], facts.fusion, W)
    self_dual = facts.conj == np.arange(len(facts.conj))
    dev = np.where(self_dual, np.minimum(np.abs(nu - 1.0), np.abs(nu + 1.0)), np.abs(nu))
    bound = np.where(self_dual, pol.int_tol + pol.eq_tol, 2 * pol.eq_tol) + _ROUNDING
    return (dev <= bound).all(axis=1)


def search_pipeline(fr: FusionRing, max_order: int = 16,
                    pol: TolerancePolicy = DEFAULT_POLICY,
                    stats_out: dict | None = None) -> list[SearchResult]:
    """Admissible modular data for a fusion ring, ordered by provenance.

    One serial loop over the S candidates: the T diagonals of one S are
    screened together by their FS sums (``_fs_screen``), the ones that
    remain are filtered together by one stacked realizability pass, which
    leaves on each candidate's datum the report that
    ``realizability_report`` gives it alone and then returns from its
    per-candidate call, and a pass is kept unless it equals an already kept result in both S and T
    within eq_tol, the search's only dedup.  The data of one S candidate
    share its S cache, and a pass is compared with the kept results of the S
    candidates within eq_tol of its own, its own included (see the module
    docstring).  Results therefore come out ordered by provenance
    (S candidate, twist assignment, cube root).  The T diagonals are
    enumerated at ``DEFAULT_POLICY`` (module docstring, step 2): ``pol``
    decides ``candidate_s``, the FS screen, the reports, the dedup and the
    ring re-check, not which T candidates are formed.  Pass a dict as
    ``stats_out`` to receive the candidate, skip and prune counters,
    ``rows_cubed``, the twist assignments the walk cubed (the work of
    ``enumerate_t``, where the skip counts are the nominal root product),
    and ``fs_screened``, the T candidates the FS screen dropped.
    ``max_order`` must be between 1 and ``MAX_SEARCH_ORDER``.
    """
    _check_max_order(max_order)
    results: list[SearchResult] = []
    kept: list[tuple[ModularData, list[np.ndarray]]] = []  # (S datum, T of its results)
    n_candidates = n_skipped = n_pruned = n_cubed = n_diagonals = n_screened = 0
    for s_idx, S in enumerate(candidate_s(fr, pol)):
        n_candidates += 1
        s_md = ModularData.from_matrices(S, np.ones(len(S)))
        enum = enumerate_t(s_md, max_order)  # exact inputs: the default policy decides
        n_skipped += enum.skipped
        n_pruned += enum.pruned
        n_cubed += enum.rows_cubed
        n_diagonals += len(enum.diagonals)
        fs_ok = _fs_screen(s_md, enum.diagonals, pol)
        n_screened += int((~fs_ok).sum())
        # the T a pass is compared with: the results of every S candidate
        # within eq_tol of this one, its own included
        near_t = [t for prev, ts in kept if np.abs(S - prev.S).max() <= pol.eq_tol
                  for t in ts]
        own_t: list[np.ndarray] = []
        rows = np.flatnonzero(fs_ok).tolist()
        data = _reported_rows(s_md, [enum.diagonals[d_idx] for d_idx in rows], pol)
        # the three cube-root lifts of an assignment are emitted consecutively
        for d_idx, md in zip(rows, data):
            rep = realizability_report(md, pol)
            if not rep.passed:
                continue
            if near_t and (np.abs(md.T - np.array(near_t)).max(axis=1) <= pol.eq_tol).any():
                continue
            results.append(SearchResult(md=md, report=rep,
                                        provenance=(s_idx, enum.assignments[d_idx], d_idx % 3)))
            near_t.append(md.T)
            own_t.append(md.T)
        kept.append((s_md, own_t))
    if stats_out is not None:
        stats_out.update(s_candidates=n_candidates, skipped_assignments=n_skipped,
                         pruned_assignments=n_pruned, rows_cubed=n_cubed,
                         t_candidates=n_diagonals, fs_screened=n_screened)
    # every winner must reproduce the ring it came from; its S alone decides that
    for s_md, own_t in kept:
        if own_t and (verlinde_fusion(s_md, pol) != fr.N).any():
            raise FusionRingError("internal error: result does not reproduce the fusion ring")
    return results


# ---------------------------------------------------------------------------
# fusion ring files
# ---------------------------------------------------------------------------

def load_fusion_ring(source: str | Path | IO[str]) -> FusionRing:
    """Read {"rank": int, "N": [[[int...]...]...]} with N[i][j][k] = N^k_{i,j};
    a rank above the search bound is refused before the ring is built."""
    doc = _read_json(source, FusionRingError)
    try:
        rank = doc["rank"]
        N = np.array(doc["N"], dtype=object)
    except (KeyError, TypeError, ValueError) as exc:
        raise FusionRingError(f"missing or malformed field: {exc}") from exc
    if not _is_json_int(rank):
        raise FusionRingError(f'"rank" must be an integer, got {rank!r}')
    _check_search_rank(rank)  # before the ring checks, whose tensors grow as rank^4
    for x in N.flat:
        if not _is_json_int(x):
            raise FusionRingError(f"fusion multiplicities must be integers, got {x!r}")
    return FusionRing(rank=rank, N=N)


def save_fusion_ring(fr: FusionRing, target: str | Path | IO[str]) -> None:
    """Write fr in the format load_fusion_ring reads.  A ring of rank above
    MAX_SEARCH_RANK is written, but load_fusion_ring refuses to read it back."""
    _write_json(fr.to_json_dict(), target)
