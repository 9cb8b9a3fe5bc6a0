import io
import json
import math
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modata import (
    FusionRing,
    FusionRingError,
    candidate_s,
    catalog_models,
    deligne,
    enumerate_t,
    get_model,
    load_fusion_ring,
    realizability_report,
    save_fusion_ring,
    search_pipeline,
    verlinde_fusion,
)
from modata import modular_data, search
from modata.modular_data import InvalidModularData, ModularData, _casimir_det, _lift_t0
from modata.numerics import (DEFAULT_POLICY, TolerancePolicy, phase_from_turns, principal_root,
                             turns_fraction)
from modata.search import (MAX_SEARCH_ORDER, TEnumeration, _balancing_levels, _cauchy_roots,
                           _fs_screen, _joint_eigenvectors, _roots_of_unity, _twist_orbits)


def turn(p, q):
    return phase_from_turns(Fraction(p, q))


def s_datum(S):
    """The S datum of a bare S: ``enumerate_t`` and its helpers never read its T."""
    return ModularData.from_matrices(S, np.ones(len(S)))


def ring_of(name):
    md = get_model(name).modular_data
    N = verlinde_fusion(md)
    return FusionRing(rank=md.rank, N=N)


def pointed_ring(n):
    N = np.zeros((n, n, n), dtype=int)
    for a in range(n):
        for b in range(n):
            N[a, b, (a + b) % n] = 1
    return FusionRing(rank=n, N=N)


def su2_ring(k):
    """The truncated Clebsch-Gordan ring of SU(2)_k: N^c_{a,b} = 1 for
    |a - b| <= c <= min(a + b, 2k - a - b) with a + b + c even."""
    n = k + 1
    N = np.zeros((n, n, n), dtype=int)
    for a in range(n):
        for b in range(n):
            N[a, b, abs(a - b):min(a + b, 2 * k - a - b) + 1:2] = 1
    return FusionRing(rank=n, N=N)


def fib_z3_ring():
    return deligne(ring_of("fibonacci"), ring_of("z3"))


# rings with three twist orbits and 10^4-10^6 assignments
THREE_ORBIT_RINGS = {"fib_z3": fib_z3_ring, "z6": lambda: pointed_ring(6),
                     "su2_3": lambda: su2_ring(3)}


def make_ring(ring):
    """A ring from a test parameter: a catalog or three-orbit ring name, n for
    pointed Z_n, or a ring."""
    if isinstance(ring, str):
        return THREE_ORBIT_RINGS[ring]() if ring in THREE_ORBIT_RINGS else ring_of(ring)
    if isinstance(ring, int):
        return pointed_ring(ring)
    return ring


TRIVIAL_RING = FusionRing(rank=1, N=np.ones((1, 1, 1), dtype=int))
LOOSE = TolerancePolicy(eq_tol=0.05, int_tol=0.05)
THREE_ORBIT_CASES = [(ring, q, pol) for ring, q in (("fib_z3", 15), ("z6", 12), ("su2_3", 20))
                     for pol in (DEFAULT_POLICY, LOOSE)]
THREE_ORBIT_IDS = ["fib_z3", "fib_z3-loose", "z6", "z6-loose", "su2_3", "su2_3-loose"]


# the cases on which search_pipeline must equal the unfiltered reference search
REFERENCE_CASES = [
    (TRIVIAL_RING, 4, DEFAULT_POLICY),
    ("fibonacci", 10, DEFAULT_POLICY),
    ("ising", 32, DEFAULT_POLICY),
    ("ising", 32, LOOSE),
    ("toric_code", 8, DEFAULT_POLICY),
    ("z3", 12, DEFAULT_POLICY),
    ("semion", 16, DEFAULT_POLICY),
    (2, 16, DEFAULT_POLICY),
    (3, 16, DEFAULT_POLICY),
    (4, 16, DEFAULT_POLICY),
    (5, 16, DEFAULT_POLICY),
    *THREE_ORBIT_CASES,
]
REFERENCE_IDS = ["trivial", "fibonacci", "ising", "ising-loose", "toric", "z3", "semion",
                 "z2", "z3-pointed", "z4", "z5", *THREE_ORBIT_IDS]


def rank2_ring(m):
    """x^2 = 1 + m x: an S candidate, and for m = 2, 3 no T candidate."""
    N = np.zeros((2, 2, 2), dtype=int)
    N[0] = np.eye(2, dtype=int)
    N[1, 0, 1] = 1
    N[1, 1] = (1, m)
    return FusionRing(rank=2, N=N)


# the census rings of the policy tests: name -> (ring factory, max_order)
CENSUS = {
    "fibonacci": (lambda: ring_of("fibonacci"), 10),
    "ising": (lambda: ring_of("ising"), 16),
    "ising-q32": (lambda: ring_of("ising"), 32),
    "toric": (lambda: ring_of("toric_code"), 8),
    "z3": (lambda: ring_of("z3"), 12),
    "fib_z3": (fib_z3_ring, 15),
    "fib_fib": (lambda: deligne(ring_of("fibonacci"), ring_of("fibonacci")), 10),
    "ising_ising": (lambda: deligne(ring_of("ising"), ring_of("ising")), 16),
    "z2_cubed": (lambda: deligne(deligne(pointed_ring(2), pointed_ring(2)), pointed_ring(2)), 8),
    **{f"su2_{k}": (lambda k=k: su2_ring(k), 4 * (k + 2)) for k in range(3, 12)},
    **{f"z{n}": (lambda n=n: pointed_ring(n), 2 * n) for n in (*range(4, 11), 12)},
    "x2_1_2x": (lambda: rank2_ring(2), 24),
    "x2_1_3x": (lambda: rank2_ring(3), 24),
}
# the stats of the twist enumeration, which the policy does not reach
ENUMERATION_STATS = ("skipped_assignments", "pruned_assignments", "rows_cubed", "t_candidates")


def searched(name, pol=DEFAULT_POLICY):
    """search_pipeline on a census ring: (results, stats)."""
    make, max_order = CENSUS[name]
    stats = {}
    return search_pipeline(make(), max_order, pol, stats_out=stats), stats


def assert_same_results(got, want):
    """Equal provenance, and S and T equal bit for bit."""
    assert [r.provenance for r in got] == [r.provenance for r in want]
    for a, b in zip(got, want):
        assert a.md.S.tobytes() == b.md.S.tobytes() and a.md.T.tobytes() == b.md.T.tobytes()


def reference_candidate_s(fr, pol=DEFAULT_POLICY):
    """``candidate_s`` as one column_stack and test per permutation."""
    cols = []
    for v in _joint_eigenvectors(fr):
        v = v / np.linalg.norm(v)
        if abs(v[0]) <= pol.eq_tol:
            return []
        cols.append(v * (np.conj(v[0]) / abs(v[0])))
    out = []
    for perm in permutations(range(len(cols))):
        S = np.column_stack([cols[p] for p in perm])
        if np.max(np.abs(S - S.T)) > pol.eq_tol:
            continue
        c0 = S[:, 0]
        if np.max(np.abs(c0.imag)) > pol.eq_tol or np.any(c0.real <= pol.eq_tol):
            continue
        out.append(S)
    return out


def reference_lift_t0(S, S2, w, pol=DEFAULT_POLICY):
    """The per-row lift: T_0 with (S T_0 diag(w))^3 = S^2, the principal cube
    root, from a 2-D cube of one row; None if none exists.  The stacked
    ``_lift_t0`` must equal it row by row."""
    M = S * w[None, :]
    M3 = M @ M @ M
    lam = M3[0, 0] / S2[0, 0]
    if np.max(np.abs(M3 - lam * S2)) > pol.eq_tol or abs(abs(lam) - 1.0) > pol.eq_tol:
        return None  # a lambda off the unit circle has no unimodular cube root
    return 1.0 / principal_root(lam, 3, pol)


def reference_enumerate_t(S, max_order, pol=DEFAULT_POLICY):
    """The plain per-assignment loop over ``product``, without the Cauchy filter;
    ``enumerate_t`` must match it on the Cauchy-admissible assignments."""
    S = np.asarray(S, dtype=complex)
    S2 = S @ S
    orbits = _twist_orbits(s_datum(S), pol)
    roots = _roots_of_unity(max_order)
    cube_roots = [phase_from_turns(Fraction(j, 3)) for j in range(3)]
    diagonals, assignment_ids, skipped = [], [], 0
    for a_idx, assign in enumerate(product(range(len(roots)), repeat=len(orbits))):
        w = np.ones(S.shape[0], dtype=complex)
        for orb, ri in zip(orbits, assign):
            w[orb] = phase_from_turns(roots[ri])
        t0 = reference_lift_t0(S, S2, w, pol)
        if t0 is None:
            skipped += 1
            continue
        diagonals.extend(zeta * (t0 * w) for zeta in cube_roots)
        assignment_ids.extend([a_idx] * 3)
    return TEnumeration(diagonals=diagonals, assignments=assignment_ids, skipped=skipped,
                        pruned=0, rows_cubed=len(roots) ** len(orbits))


def stacked_enumerate_t(S, max_order, pol=DEFAULT_POLICY):
    """The full prefix product with the last orbit lifted as one stacked
    block per prefix, under the Cauchy filter; affordable on three-orbit
    rings, and ``enumerate_t`` must equal it bit for bit."""
    md = s_datum(S)
    n = md.rank
    orbits = _twist_orbits(md, pol)
    roots = _roots_of_unity(max_order)
    try:
        N = verlinde_fusion(md, pol)
    except InvalidModularData:
        N = None
    keep = _cauchy_roots(None if N is None else _casimir_det(N), roots)
    phases = np.array([phase_from_turns(roots[k]) for k in keep], dtype=complex)
    cube_roots = [phase_from_turns(Fraction(j, 3)) for j in range(3)]
    head, last = orbits[:-1], (orbits[-1] if orbits else [])
    width = len(keep) if orbits else 1
    diagonals, assignment_ids = [], []
    for prefix in product(range(len(keep)), repeat=len(head)):
        W = np.ones((width, n), dtype=complex)
        p_idx = 0
        for orb, ri in zip(head, prefix):
            W[:, orb] = phases[ri]
            p_idx = p_idx * len(roots) + keep[ri]
        if last:
            W[:, last] = phases[:, None]
        for r, t0 in enumerate(_lift_t0(md, W, pol)):
            if t0 is None:
                continue
            diagonals.extend(zeta * (t0 * W[r]) for zeta in cube_roots)
            assignment_ids.extend([p_idx * len(roots) + keep[r] if last else p_idx] * 3)
    full = len(roots) ** len(orbits)
    return TEnumeration(diagonals=diagonals, assignments=assignment_ids,
                        skipped=full - len(diagonals) // 3,
                        pruned=full - len(keep) ** len(orbits),
                        rows_cubed=len(keep) ** len(orbits))


def primes_of(n):
    return {p for p in range(2, n + 1) if n % p == 0 and all(p % f for f in range(2, p))}


def cauchy_primes(S):
    """primes(det K), with det K the product of K's eigenvalues D^2/d_j^2 = 1/S_0j^2."""
    return primes_of(round(float(np.prod(1.0 / np.abs(S[0]) ** 2))))


def admissible(a_idx, n_orbits, roots, P):
    """Whether every root of the assignment (mixed radix over all roots) has
    an order whose primes lie in P."""
    for _ in range(n_orbits):
        a_idx, k = divmod(a_idx, len(roots))
        if not primes_of(roots[k].denominator) <= P:
            return False
    return True


def reference_search(fr, max_order, pol=DEFAULT_POLICY, enumerate_fn=reference_enumerate_t):
    """``search_pipeline``'s loop over a reference enumeration, by default the
    unfiltered per-assignment loop, with a fresh datum per candidate and the
    dedup against every kept result: [(md, report, provenance)]."""
    results = []
    for s_idx, S in enumerate(candidate_s(fr, pol)):
        enum = enumerate_fn(S, max_order, pol)
        for d_idx, (t, a_idx) in enumerate(zip(enum.diagonals, enum.assignments)):
            md = ModularData.from_matrices(S, t)
            report = realizability_report(md, pol)
            if report.passed and not any(md.approx_eq(kept[0], pol) for kept in results):
                results.append((md, report, (s_idx, a_idx, d_idx % 3)))
    return results


class TestFusionRing:
    def test_catalog_fusions_are_rings(self, entries):
        for e in entries:
            FusionRing(rank=e.modular_data.rank, N=verlinde_fusion(e.modular_data))

    def test_rejects_noncommutative(self):
        N = np.zeros((2, 2, 2), dtype=int)
        N[0] = np.eye(2, dtype=int)
        N[1, 0, 1] = 1
        N[1, 1, 0] = 1
        # break symmetry: N^1_{0,1}) != N^1_{1,0}
        N[0, 1, 1] = 0
        with pytest.raises(FusionRingError):
            FusionRing(rank=2, N=N)

    def test_rejects_nonassociative(self):
        # Ising fusion with psi x psi = 1 + psi: then (sigma psi) psi = sigma
        # but sigma (psi psi) = 2 sigma
        N = ring_of("ising").N.copy()
        N.setflags(write=True)
        N[2, 2, 2] = 1
        with pytest.raises(FusionRingError, match="associative"):
            FusionRing(rank=3, N=N)

    def test_associativity_beyond_int64(self):
        # x x = 1 + y, x y = x + 2^32 y, y y = 1 + 2^32 x is not associative,
        # but its two sides differ by multiples of 2^64 only, which int64 loses
        a = 2 ** 32
        N = np.zeros((3, 3, 3), dtype=int)
        N[0] = N[:, 0] = np.eye(3, dtype=int)
        N[1, 1], N[2, 2] = [1, 0, 1], [1, a, 0]
        N[1, 2] = N[2, 1] = [0, 1, a]
        with pytest.raises(FusionRingError, match="associative"):
            FusionRing(rank=3, N=N)
        # x x = 1 + 2^32 x is a ring
        assert FusionRing(rank=2, N=[[[1, 0], [0, 1]], [[0, 1], [1, a]]]).N[1, 1, 1] == a

    def test_rejects_missing_unit(self):
        N = np.zeros((2, 2, 2), dtype=int)
        with pytest.raises(FusionRingError, match="unit"):
            FusionRing(rank=2, N=N)

    def test_rank_above_the_bound_refused_before_the_ring_checks(self, monkeypatch):
        # Z_13 is a genuine ring; its rank is refused as soon as it is read,
        # before the rank^4 associativity tensors are formed
        def build(self):
            raise AssertionError("ring checks ran on a rank above the search bound")

        monkeypatch.setattr(FusionRing, "__post_init__", build)
        n = 13
        N = [[[int((a + b) % n == c) for c in range(n)] for b in range(n)] for a in range(n)]
        with pytest.raises(FusionRingError, match="rank 13 exceeds the search bound 12"):
            load_fusion_ring(io.StringIO(json.dumps({"rank": n, "N": N})))

    def test_file_roundtrip(self, tmp_path):
        fr = ring_of("ising")
        path = tmp_path / "ring.json"
        save_fusion_ring(fr, path)
        back = load_fusion_ring(path)
        assert np.array_equal(back.N, fr.N)

    def test_malformed_file(self):
        fib = '[[[1, 0], [0, 1]], [[0, 1], [1, 1]]]'
        # a rank that is no JSON integer, which int() would have coerced
        for doc in ('{"rank": "x"}', '{"rank": "2", "N": %s}' % fib,
                    '{"rank": 2.0, "N": %s}' % fib, '{"rank": 2.5, "N": %s}' % fib,
                    '{"rank": true, "N": [[[1]]]}'):
            with pytest.raises(FusionRingError):
                load_fusion_ring(io.StringIO(doc))

    @pytest.mark.parametrize("entry", ["1.7", "1.0", "true", '"1"'])
    def test_non_integer_multiplicity_rejected(self, entry):
        # Fibonacci ring with N^1_{1,1} replaced; int() would truncate 1.7 to 1
        text = ('{"rank": 2, "N": [[[1, 0], [0, 1]], [[0, 1], [1, %s]]]}' % entry)
        with pytest.raises(FusionRingError, match="must be integers"):
            load_fusion_ring(io.StringIO(text))

    def test_shipped_ring_files(self, rings_dir):
        fib = load_fusion_ring(rings_dir / "fibonacci_ring.json")
        assert np.array_equal(fib.N, ring_of("fibonacci").N)
        isg = load_fusion_ring(rings_dir / "ising_ring.json")
        assert np.array_equal(isg.N, ring_of("ising").N)


class TestCandidateS:
    def test_trivial(self):
        cands = candidate_s(TRIVIAL_RING)
        assert len(cands) == 1
        assert np.allclose(cands[0], [[1.0]])

    def test_fibonacci_recovers_catalog_s(self):
        cands = candidate_s(ring_of("fibonacci"))
        # only the positive-dimension ordering is symmetric once columns are
        # phase-fixed to S_{0,r} > 0; the Galois ordering breaks symmetry
        assert len(cands) == 1
        assert np.max(np.abs(cands[0] - get_model("fibonacci").modular_data.S)) < 1e-9

    def test_ising_recovers_catalog_s(self):
        cands = candidate_s(ring_of("ising"))
        assert len(cands) == 1
        assert np.max(np.abs(cands[0] - get_model("ising").modular_data.S)) < 1e-9

    def test_z3_candidates_contain_catalog_s(self):
        cands = candidate_s(ring_of("z3"))
        md = get_model("z3").modular_data
        assert any(np.max(np.abs(S - md.S)) < 1e-9 for S in cands)

    def test_toric_candidates_contain_catalog_s(self):
        cands = candidate_s(ring_of("toric_code"))
        md = get_model("toric_code").modular_data
        assert any(np.max(np.abs(S - md.S)) < 1e-9 for S in cands)

    def test_degenerate_eigenspace_rejected(self):
        # every valid fusion ring has distinct characters, so the degenerate
        # branch is exercised on a stub whose non-unit matrix is the identity
        # (a shared two-dimensional joint eigenspace)
        class Stub:
            rank = 2
            N = np.stack([np.eye(2, dtype=int), np.eye(2, dtype=int)])

        with pytest.raises(FusionRingError, match="cannot diagonalize uniquely"):
            candidate_s(Stub())

    @pytest.mark.parametrize("pol", [DEFAULT_POLICY, LOOSE], ids=["default", "loose"])
    def test_matches_per_permutation_loop(self, entries, pol):
        # every ring a search test runs on up to rank 6, catalog and
        # generated, and SU(2)_6 (rank 7) and Z_2^3 (rank 8, 28 orderings kept)
        z2 = pointed_ring(2)
        rings = ([TRIVIAL_RING, fib_z3_ring()] + [ring_of(e.name) for e in entries]
                 + [pointed_ring(n) for n in range(2, 7)] + [su2_ring(k) for k in (3, 4, 5, 6)]
                 + [deligne(deligne(z2, z2), z2)])
        for fr in rings:
            got, want = candidate_s(fr, pol), reference_candidate_s(fr, pol)
            assert len(got) == len(want) and got
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_rank_bound_enforced(self):
        # Z_13 pointed fusion (a genuine ring) exceeds the default bound
        with pytest.raises(FusionRingError, match="exceeds the search bound"):
            candidate_s(pointed_ring(13))


class TestEnumerateT:
    def test_trivial_three_lifts(self):
        enum = enumerate_t(s_datum(np.array([[1.0 + 0j]])), max_order=10)
        assert len(enum.diagonals) == 3
        got = {min((0, 1, 2), key=lambda j: abs(t[0] - turn(j, 3))) for t in enum.diagonals}
        assert got == {0, 1, 2}

    def test_emitted_t_satisfies_relation_exactly(self):
        S = get_model("fibonacci").modular_data.S
        enum = enumerate_t(s_datum(S), max_order=10)
        for t in enum.diagonals:
            ST = S * t[None, :]
            assert np.max(np.abs(ST @ ST @ ST - S @ S)) < 1e-9

    def test_fibonacci_assignments(self):
        S = get_model("fibonacci").modular_data.S
        enum = enumerate_t(s_datum(S), max_order=10)
        # both Galois twists survive the scalar test; 3 lifts each
        assert len(enum.diagonals) == 6
        tws = {complex(np.round(t[1] / t[0], 9)) for t in enum.diagonals}
        assert tws == {complex(np.round(turn(2, 5), 9)), complex(np.round(turn(3, 5), 9))}

    def test_ising_scalar_test_alone_pins_only_psi(self):
        # the modular relation fixes w_psi = -1 but leaves w_sigma free: all
        # 80 roots of unity of order <= 16 pass; the realizability filter is
        # what cuts this to the 8 primitive 16th roots (see pipeline test)
        S = get_model("ising").modular_data.S
        T_cat = get_model("ising").modular_data.T
        ref = reference_enumerate_t(S, max_order=16)
        assert len(set(ref.assignments)) == 80
        assert len(ref.diagonals) == 240
        assert ref.skipped == 6400 - 80
        for t in ref.diagonals:
            assert abs(t[2] / t[0] + 1.0) < 1e-9  # w_psi = -1 always
        # the catalog Ising assignment is among them
        assert any(np.max(np.abs(t - T_cat)) < 1e-9 for t in ref.diagonals)
        # det K = 32, so the Cauchy filter keeps w_sigma of order 1, 2, 4, 8, 16
        enum = enumerate_t(s_datum(S), max_order=16)
        assert len(set(enum.assignments)) == 16
        assert len(enum.diagonals) == 48
        assert enum.skipped == 6384
        assert enum.pruned == 6400 - 16 ** 2  # 16 roots of 2-power order
        orders = {turns_fraction(t[1] / t[0]).denominator for t in enum.diagonals}
        assert orders == {1, 2, 4, 8, 16}
        assert any(np.max(np.abs(t - T_cat)) < 1e-9 for t in enum.diagonals)

    def test_conjugate_orbits_share_twist(self):
        S = get_model("z3").modular_data.S
        enum = enumerate_t(s_datum(S), max_order=6)
        for t in enum.diagonals:
            assert abs(t[1] - t[2]) < 1e-12  # w_1 = w_2 enforced


    @pytest.mark.parametrize("ring, max_order, pol", [
        (TRIVIAL_RING, 4, DEFAULT_POLICY),
        ("fibonacci", 10, DEFAULT_POLICY),
        ("ising", 32, DEFAULT_POLICY),
        ("ising", 32, LOOSE),
        ("z3", 6, DEFAULT_POLICY),
        ("toric_code", 8, DEFAULT_POLICY),
        (4, 16, DEFAULT_POLICY),
        (5, 16, DEFAULT_POLICY),
        *THREE_ORBIT_CASES,
    ], ids=["trivial", "fibonacci", "ising", "ising-loose", "z3", "toric", "z4", "z5",
            *THREE_ORBIT_IDS])
    def test_matches_per_assignment_loop(self, ring, max_order, pol):
        # equal, bit for bit, to the stacked screen over the full prefix
        # product; outside the three-orbit cases, whose ~10^5-10^6
        # assignments make the per-assignment loop take tens of seconds, both
        # also equal that loop on the Cauchy-admissible assignments, and every
        # loop entry dropped fails the report
        cands = candidate_s(make_ring(ring), pol)
        assert cands
        roots = _roots_of_unity(max_order)
        for S in cands:
            got = enumerate_t(s_datum(S), max_order, pol)
            stacked = stacked_enumerate_t(S, max_order, pol)
            assert got.assignments == stacked.assignments
            assert (got.skipped, got.pruned) == (stacked.skipped, stacked.pruned)
            assert len(got.diagonals) == len(stacked.diagonals)
            for a, b in zip(got.diagonals, stacked.diagonals):
                assert np.array_equal(a, b)  # bit for bit
            if isinstance(ring, str) and ring in THREE_ORBIT_RINGS:
                continue
            n_orbits = len(_twist_orbits(s_datum(S), pol))
            want = reference_enumerate_t(S, max_order, pol)
            P = cauchy_primes(S)
            ok = [admissible(a, n_orbits, roots, P) for a in want.assignments]
            assert got.assignments == [a for a, k in zip(want.assignments, ok) if k]
            kept = [t for t, k in zip(want.diagonals, ok) if k]
            assert len(got.diagonals) == len(kept)
            for a, b in zip(got.diagonals, kept):
                assert np.array_equal(a, b)
            dropped = len(set(want.assignments) - set(got.assignments))
            assert got.skipped == want.skipped + dropped
            n_admissible = sum(primes_of(r.denominator) <= P for r in roots)
            assert got.pruned == len(roots) ** n_orbits - n_admissible ** n_orbits
            for t, k in zip(want.diagonals, ok):
                if not k:
                    assert not realizability_report(ModularData.from_matrices(S, t), pol).passed

    def test_unrounded_verlinde_prunes_nothing(self):
        # the Ising S is the reflection taking e_0 to its vacuum column u;
        # with u moved by 1e-3 the relation holds within 4e-3 for w_psi = -1
        # but the Verlinde sum misses integers by 5.7e-3, so there is no ring
        # tensor, and neither the Cauchy filter nor the balancing walk over
        # the two orbits may drop an assignment
        u = np.array([0.5 + 1e-3, 2 ** -0.5, 0.5 - 1e-3])
        v = np.array([1.0, 0.0, 0.0]) - u / np.linalg.norm(u)
        S = (np.eye(3) - 2 * np.outer(v, v) / (v @ v)).astype(complex)
        pol = TolerancePolicy(eq_tol=4e-3, int_tol=4e-3)
        got = enumerate_t(s_datum(S), 16, pol)
        want = reference_enumerate_t(S, 16, pol)
        assert got.diagonals and got.pruned == 0
        assert (got.assignments, got.skipped) == (want.assignments, want.skipped)
        assert all(np.array_equal(a, b) for a, b in zip(got.diagonals, want.diagonals))

    @pytest.mark.parametrize("change", ["unitary", "symmetric", "vacuum_row"])
    def test_balancing_needs_its_premises(self, change):
        # the bound is proved for a unitary symmetric S with a real vacuum
        # row; an S off any of these by more than rounding gets no equations
        md = get_model("ising").modular_data
        orbits = _twist_orbits(s_datum(md.S), DEFAULT_POLICY)
        N = verlinde_fusion(md)
        assert any(len(lv[0]) for lv in _balancing_levels(s_datum(md.S), N, orbits, 1e-9,
                                                          DEFAULT_POLICY))
        S = {"unitary": md.S * (1 + 1e-9),
             "symmetric": md.S + 1e-9 * np.triu(np.ones((3, 3)), 1),
             "vacuum_row": md.S * np.exp(1e-9j)}[change]
        assert not any(len(lv[0]) for lv in _balancing_levels(s_datum(S), N, orbits, 1e-9,
                                                              DEFAULT_POLICY))

    @pytest.mark.parametrize("q", [0, -5])
    def test_max_order_below_one_rejected(self, q):
        with pytest.raises(ValueError, match="max_order"):
            enumerate_t(s_datum(np.array([[1.0 + 0j]])), q)

    def test_max_order_above_bound_rejected(self):
        with pytest.raises(ValueError, match=f"between 1 and {MAX_SEARCH_ORDER}"):
            enumerate_t(s_datum(np.array([[1.0 + 0j]])), MAX_SEARCH_ORDER + 1)

    def test_scalar_off_the_unit_circle_gives_no_diagonal(self):
        # (c S W)^3 = c lambda (c S)^2 holds whenever (S W)^3 = lambda S^2,
        # but with |c lambda| = 1.001 no unimodular T_0 lifts the relation
        S = 1.001 * get_model("ising").modular_data.S
        got = enumerate_t(s_datum(S), 8)
        assert got.diagonals == [] and got.assignments == []
        assert got.skipped == len(_roots_of_unity(8)) ** 2

    def test_root_list_built_once(self):
        for max_order in (1, 2, 12, 32, 97):
            roots = _roots_of_unity(max_order)
            assert isinstance(roots, tuple) and _roots_of_unity(max_order) is roots
            assert roots == tuple(sorted({Fraction(p, q) for q in range(1, max_order + 1)
                                          for p in range(q)}))

    def test_stacked_lift_matches_per_row_lift(self, entries):
        # on every catalog S, on 1.001 S (lambda off the unit circle) and on a
        # twisted S (a global phase, which moves lambda along the circle), the
        # stacked lift of a block of root rows equals the per-row lift: the
        # same rows get None and the others the same T_0, bit for bit
        def bits(t):
            return None if t is None else (t.real.hex(), t.imag.hex())

        rng = np.random.default_rng(17)
        phases = np.array([phase_from_turns(r) for r in _roots_of_unity(16)])
        lifted = 0
        for e in entries:
            w_cat = e.modular_data.T / e.modular_data.T[0]
            for S in (e.modular_data.S, 1.001 * e.modular_data.S, e.modular_data.S * turn(1, 7)):
                md = s_datum(S)
                W = np.ones((64, md.rank), dtype=complex)
                W[0] = w_cat
                for orb in _twist_orbits(md, DEFAULT_POLICY):
                    W[1:, orb] = rng.choice(phases, size=63)[:, None]
                got = _lift_t0(md, W, DEFAULT_POLICY)
                want = [reference_lift_t0(md.S, md.S2, w) for w in W]
                assert [bits(t) for t in got] == [bits(t) for t in want]
                lifted += sum(t is not None for t in got)
        assert lifted > len(entries)

    @pytest.mark.parametrize("ring, max_order, most", [
        ("ising", 32, 32), ("ising", 16, 16), ("toric_code", 8, 16), ("fib_z3", 15, 4),
        (su2_ring(4), 24, 8),
    ], ids=["ising-32", "ising-16", "toric", "fib_z3", "su2_4"])
    def test_last_orbit_screened_before_the_cube(self, monkeypatch, ring, max_order, most):
        # the balancing equations the last orbit completes screen the full
        # assignments, so only their survivors are cubed; cubing every
        # admissible root of the last orbit of each surviving prefix takes
        # 1,024, 256, 128, 84 and 352 rows on these searches
        rows = []
        lift = search._lift_t0

        def counted(md, W, pol):
            rows.append(len(W))
            return lift(md, W, pol)

        monkeypatch.setattr(search, "_lift_t0", counted)
        stats = {}
        assert search_pipeline(make_ring(ring), max_order, stats_out=stats)
        assert sum(rows) == stats["rows_cubed"] <= most

    @pytest.mark.parametrize("ring, max_order", [
        ("ising", 32), ("toric_code", 8), ("fib_z3", 15), (su2_ring(4), 24),
    ], ids=["ising", "toric", "fib_z3", "su2_4"])
    def test_block_rows_change_no_bit(self, monkeypatch, ring, max_order):
        # the walk's blocks cut the children of a level anywhere, across
        # prefixes too; the enumeration is the same, bit for bit
        cands = candidate_s(make_ring(ring))
        want = [enumerate_t(s_datum(S), max_order) for S in cands]
        for block in (1, 7):
            monkeypatch.setattr(search, "_BLOCK_ROWS", block)
            for S, w in zip(cands, want):
                got = enumerate_t(s_datum(S), max_order)
                assert got.assignments == w.assignments
                assert got[2:] == w[2:]  # skipped, pruned, rows_cubed
                assert [t.tobytes() for t in got.diagonals] == [t.tobytes() for t in w.diagonals]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([e.name for e in catalog_models()]), st.floats(0.0, 0.2),
       st.lists(st.floats(-1.0, 1.0), min_size=15, max_size=15))
def test_balancing_residual_within_bound(name, eps, offsets):
    # twists moved off a modular datum by up to eps radians per orbit: every
    # balancing residual stays within D n (1 + c_ij) times the measured
    # deviation of (S W)^3 from lambda S^2, plus the prune's 1e-12 for
    # rounding, and the prune's levels evaluate the same residuals
    md = get_model(name).modular_data
    S, n = md.S, md.rank
    orbits = _twist_orbits(s_datum(S), DEFAULT_POLICY)
    w = md.T / md.T[0]
    w[0] = 1.0
    conj = np.arange(n)
    for orb, u in zip(orbits, offsets):
        w[orb] *= np.exp(1j * eps * u)
        conj[orb] = orb[::-1]
    M = S * w[None, :]
    M3 = M @ M @ M
    eps_m = np.max(np.abs(M3 - M3[0, 0] / md.S2[0, 0] * md.S2))
    N = verlinde_fusion(md)
    D, d = 1 / S[0, 0], S[0] / S[0, 0]
    R = D * S * np.outer(w, w) - np.einsum("ijk,k->ij", N[conj], d * w)
    c = np.abs(S) @ (np.abs(S) / np.abs(S[0])).T
    assert np.all(np.abs(R) <= abs(D) * n * (1 + c) * (eps_m + 1e-12))
    pairs = []
    for I, J, DS, coef, _ in _balancing_levels(s_datum(S), N, orbits, 1.0, DEFAULT_POLICY):
        assert np.allclose(DS * w[I] * w[J] - w @ coef, R[I, J], rtol=0, atol=1e-12)
        pairs.extend(zip(I.tolist(), J.tolist()))
    # the levels cover every orbit: the equations whose last unbound twist,
    # among w_i, w_j and the w_k with N^k_{ibar j} > 0, lies there
    level = np.full(n, -1)
    for lv, orb in enumerate(orbits):
        level[orb] = lv
    binds = [[max(level[i], level[j], *level[np.flatnonzero(N[conj[i], j])]) for j in range(n)]
             for i in range(n)]
    assert sorted(pairs) == [(i, j) for i in range(n) for j in range(n)
                             if 0 <= binds[i][j] < len(orbits)]


class TestSearchPipeline:
    @pytest.mark.parametrize("ring, max_order, n_s", [("toric_code", 8, 4), ("fib_z3", 15, 2),
                                                      ("fibonacci", 10, 1)])
    def test_s_quantities_formed_once_per_s_candidate(self, monkeypatch, ring, max_order, n_s):
        # the enumeration, the FS screen, every report and the ring re-check
        # of one S candidate share one S datum, and so one S-facts fill: its
        # Verlinde tensor and S-only axiom checks are each formed once, and
        # det K, first read by enumerate_t and then by the stacked pass, too
        fills, dets = Counter(), []
        fill, det = modular_data._fill_s_facts, modular_data._casimir_det

        def counted(md, pol):
            fills[pol] += 1
            return fill(md, pol)

        monkeypatch.setattr(modular_data, "_fill_s_facts", counted)
        monkeypatch.setattr(modular_data, "_casimir_det", lambda N: dets.append(N) or det(N))
        stats = {}
        assert search_pipeline(make_ring(ring), max_order, stats_out=stats)
        assert stats["s_candidates"] == n_s
        assert fills == {DEFAULT_POLICY: n_s} and len(dets) == n_s

    @pytest.mark.parametrize("ring, max_order", [("fibonacci", 10), ("toric_code", 8),
                                                 ("ising", 32)])
    def test_one_stacked_pass_per_s_candidate(self, monkeypatch, ring, max_order):
        # each S candidate's kept T candidates go through one stacked pass,
        # which builds each one's report once, and each gets one
        # realizability_report call, which returns the report the pass left
        # on its datum: no one-row pass runs
        from modata import bantay
        from modata.axioms import AxiomReport
        calls, rows = Counter(), Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                out = fn(*args, **kwargs)
                if name == "_realizability_pass":
                    rows[name] += len(out[0])
                return out
            return wrapper

        for mod, name in [(bantay, "_realizability_pass"), (search, "realizability_report"),
                          (AxiomReport, "__post_init__")]:
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        stats = {}
        res = search_pipeline(make_ring(ring), max_order, stats_out=stats)
        kept = stats["t_candidates"] - stats["fs_screened"]
        assert calls == {"_realizability_pass": stats["s_candidates"],
                         "realizability_report": kept, "__post_init__": kept}
        assert rows["_realizability_pass"] == kept
        assert all(r.report is realizability_report(r.md) for r in res)

    def test_trivial_ring_three_central_charges(self):
        res = search_pipeline(TRIVIAL_RING, max_order=4)
        assert len(res) == 3
        t0s = sorted(np.angle(r.md.T[0]) for r in res)
        assert any(abs(r.md.T[0] - 1.0) < 1e-12 for r in res)

    def test_fibonacci_ring_membership(self):
        fr = ring_of("fibonacci")
        res = search_pipeline(fr, max_order=10)
        assert len(res) == 6
        cat = {e.name: e.modular_data for e in catalog_models()}
        assert any(r.md.approx_eq(cat["fibonacci"]) for r in res)
        assert any(r.md.approx_eq(cat["conj-fibonacci"]) for r in res)
        fams = {r.provenance[:2] for r in res}
        assert len(fams) == 2

    def test_results_reproduce_ring(self):
        fr = ring_of("fibonacci")
        for r in search_pipeline(fr, max_order=10):
            assert np.array_equal(verlinde_fusion(r.md), fr.N)

    def test_results_pass_reports(self):
        for r in search_pipeline(ring_of("fibonacci"), max_order=10):
            assert r.report.verdict == "pass"

    def test_ising_ring_regression(self):
        fr = ring_of("ising")
        res = search_pipeline(fr, max_order=16)
        # frozen by an exhaustive run: 8 twist families, 3 cube-root lifts
        assert len(res) == 24
        fams = sorted({r.provenance[:2] for r in res})
        assert len(fams) == 8
        sigma_twists = sorted({
            round(float(np.angle(r.md.T[1] / r.md.T[0]) / (2 * math.pi)) % 1.0, 9)
            for r in res})
        assert sigma_twists == [round(k / 16, 9) for k in (1, 3, 5, 7, 9, 11, 13, 15)]
        cat = {e.name: e.modular_data for e in catalog_models()}
        assert any(r.md.approx_eq(cat["ising"]) for r in res)
        assert any(r.md.approx_eq(cat["su2_2"]) for r in res)

    def test_ising_ring_closed_under_conjugation(self):
        # S is real here, so conjugating T alone conjugates the datum; the
        # result set must map onto itself
        res = search_pipeline(ring_of("ising"), max_order=16)
        ts = [r.md.T for r in res]
        for t in ts:
            assert any(np.max(np.abs(np.conj(t) - u)) < 1e-9 for u in ts)

    def test_loose_tolerance_keeps_every_ising_datum(self):
        # at eq_tol = 0.05 twists of order 15 and 16 lie within tolerance of
        # each other; a T diagonal must not be dropped as the near-twin of an
        # earlier diagonal that then fails the filter
        loose = TolerancePolicy(eq_tol=0.05, int_tol=0.05)
        res = search_pipeline(ring_of("ising"), max_order=16, pol=loose)
        assert len(res) == 24
        assert any(r.md.approx_eq(get_model("su2_2").modular_data) for r in res)

    def test_loose_tolerance_high_order_ising(self):
        # at q=32 and eq_tol = 0.05 twists of order 17, 19, ..., 31 lie within
        # tolerance of the 16th roots and come first in provenance order; they
        # must fail the Cauchy check instead of crowding out the real data
        loose = TolerancePolicy(eq_tol=0.05, int_tol=0.05)
        res = search_pipeline(ring_of("ising"), max_order=32, pol=loose)
        assert len(res) == 24
        assert {turns_fraction(r.md.T[1] / r.md.T[0]).denominator for r in res} == {16}
        assert any(r.md.approx_eq(get_model("ising").modular_data) for r in res)
        assert any(r.md.approx_eq(get_model("su2_2").modular_data) for r in res)

    @pytest.mark.parametrize("q", [0, -5])
    def test_max_order_below_one_rejected(self, q):
        # the rank-1 ring has no twist orbit, so nothing else would stop it
        with pytest.raises(ValueError, match="max_order"):
            search_pipeline(TRIVIAL_RING, max_order=q)

    def test_max_order_above_bound_rejected(self):
        with pytest.raises(ValueError, match=f"between 1 and {MAX_SEARCH_ORDER}"):
            search_pipeline(TRIVIAL_RING, max_order=MAX_SEARCH_ORDER + 1)

    def test_rank6_fibonacci_z3_regression(self):
        # Fibonacci x Z_3 at q=15: 3 twist orbits, 72^3 assignments for each
        # of the 2 S candidates; frozen by an exhaustive run
        stats = {}
        res = search_pipeline(fib_z3_ring(), max_order=15, stats_out=stats)
        assert len(res) == 12
        assert len({r.provenance[:2] for r in res}) == 4
        assert stats == {"s_candidates": 2, "skipped_assignments": 746492,
                         "pruned_assignments": 727974, "rows_cubed": 4, "t_candidates": 12,
                         "fs_screened": 0}
        product = deligne(get_model("fibonacci").modular_data, get_model("z3").modular_data)
        assert any(r.md.approx_eq(product) for r in res)

    @pytest.mark.parametrize("k, max_order, n_data, n_families, stats", [
        (4, 24, 24, 8, (2, 2099519992, 2092023808, 8, 24, 0)),
        (5, 28, 12, 4, (1, 829997587228, 829895187232, 4, 12, 0)),
    ], ids=["su2_4", "su2_5"])
    def test_su2_ring_regression(self, k, max_order, n_data, n_families, stats):
        # four and five self-dual twist orbits: 180^4 and 242^5 assignments
        # per S candidate; frozen from a run of the stacked screen over the
        # full prefix product
        got = {}
        res = search_pipeline(su2_ring(k), max_order=max_order, stats_out=got)
        assert len(res) == n_data
        assert len({r.provenance[:2] for r in res}) == n_families
        assert got == dict(zip(("s_candidates", "skipped_assignments", "pruned_assignments",
                                "rows_cubed", "t_candidates", "fs_screened"), stats))
        # the twists of SU(2)_k itself, w_a = e^{2 pi i a(a+2)/(4(k+2))}
        w = [turn(a * (a + 2), 4 * (k + 2)) for a in range(k + 1)]
        assert any(np.max(np.abs(r.md.T / r.md.T[0] - w)) < 1e-9 for r in res)

    def test_loose_policy_su2_4(self):
        # at eq_tol = int_tol = 0.05 the twist walk still runs at the default
        # policy, so it cubes the default's 8 rows, not about 4e5; the data
        # are those of the default policy, SU(2)_4's own among them
        stats, strict_stats = {}, {}
        res = search_pipeline(su2_ring(4), max_order=24, pol=LOOSE, stats_out=stats)
        assert len(res) == 24
        w = [turn(a * (a + 2), 24) for a in range(5)]
        assert any(np.max(np.abs(r.md.T / r.md.T[0] - w)) < 1e-9 for r in res)
        strict = search_pipeline(su2_ring(4), max_order=24, stats_out=strict_stats)
        assert [r.provenance for r in res] == [r.provenance for r in strict]
        assert all(np.array_equal(a.md.T, b.md.T) for a, b in zip(res, strict))
        assert ({key: stats[key] for key in ENUMERATION_STATS}
                == {key: strict_stats[key] for key in ENUMERATION_STATS})

    @pytest.mark.parametrize("tol", [1e-3, 0.05])
    @pytest.mark.parametrize("name", CENSUS)
    def test_loose_policy_census(self, name, tol):
        # the twists are enumerated at the default policy whatever the
        # search's own, so a loose policy forms the same T candidates and,
        # on every census ring, keeps the same data
        got, stats = searched(name, TolerancePolicy(eq_tol=tol, int_tol=tol))
        want, want_stats = searched(name)
        assert_same_results(got, want)
        assert ({key: stats[key] for key in ENUMERATION_STATS}
                == {key: want_stats[key] for key in ENUMERATION_STATS})

    @pytest.mark.parametrize("pol", [TolerancePolicy(eq_tol=1e-12, int_tol=1e-12),
                                     TolerancePolicy(eq_tol=1e-9, int_tol=0.05)],
                             ids=["strict", "mixed"])
    @pytest.mark.parametrize("name", ["ising-q32", "toric", "fib_z3", "su2_4", "su2_11", "z7"])
    def test_tight_and_mixed_policies_pinned(self, name, pol):
        # a policy no looser than the default in eq_tol changes no result
        # and no stat
        got, stats = searched(name, pol)
        want, want_stats = searched(name)
        assert_same_results(got, want)
        assert stats == want_stats

    def test_rank12_ring_accepted(self):
        # SU(2)_11, rank 12 = the search bound, at q = 4(k+2) = 52
        res = search_pipeline(su2_ring(11), max_order=52)
        assert len(res) == 12
        assert len({r.provenance[:2] for r in res}) == 4
        w = [turn(a * (a + 2), 52) for a in range(12)]
        assert any(np.max(np.abs(r.md.T / r.md.T[0] - w)) < 1e-9 for r in res)

    def test_rank9_ising_ising_regression(self):
        # Ising x Ising at q=16: 8 self-dual twist orbits, 80^8 assignments
        # for each of the 6 S candidates; frozen from a run of the search
        stats = {}
        res = search_pipeline(deligne(ring_of("ising"), ring_of("ising")), max_order=16,
                              stats_out=stats)
        assert len(res) == 384
        assert len({r.provenance[:2] for r in res}) == 128
        assert stats == {"s_candidates": 6, "skipped_assignments": 10066329599999488,
                         "pruned_assignments": 10066303830196224, "rows_cubed": 512,
                         "t_candidates": 1536, "fs_screened": 1152}
        for a, b in (("ising", "ising"), ("ising", "su2_2"), ("su2_2", "su2_2")):
            product = deligne(get_model(a).modular_data, get_model(b).modular_data)
            assert any(r.md.approx_eq(product) for r in res), (a, b)

    @pytest.mark.parametrize("shift", [0.0, 1e-12], ids=["twice", "shifted"])
    def test_dedup_across_s_candidates_within_tolerance(self, monkeypatch, shift):
        # two S candidates within eq_tol of each other: candidate_s never
        # lists such a pair up to rank 12 at the default policy, but the
        # sqrt(2/rank) gap between orderings does not exceed every eq_tol
        # the policy admits, so the dedup must compare across S candidates
        fr = ring_of("fibonacci")
        want = search_pipeline(fr, max_order=10)
        S = candidate_s(fr)[0]
        monkeypatch.setattr(search, "candidate_s", lambda fr, pol: [S, S + shift])
        stats = {}
        got = search_pipeline(fr, max_order=10, stats_out=stats)
        assert stats["s_candidates"] == 2
        assert [r.provenance for r in got] == [r.provenance for r in want]
        assert all(np.array_equal(a.md.T, b.md.T) for a, b in zip(got, want))

    @pytest.mark.parametrize("ring, max_order, pol", REFERENCE_CASES, ids=REFERENCE_IDS)
    def test_matches_unfiltered_reference(self, ring, max_order, pol):
        # on the three-orbit cases the stacked screen stands in for the
        # unfiltered loop, which takes tens of seconds there
        enumerate_fn = (stacked_enumerate_t if isinstance(ring, str) and ring in THREE_ORBIT_RINGS
                        else reference_enumerate_t)
        ring = make_ring(ring)
        got = search_pipeline(ring, max_order=max_order, pol=pol)
        want = reference_search(ring, max_order, pol, enumerate_fn)
        assert got
        assert [r.provenance for r in got] == [prov for _, _, prov in want]
        for r, (md, report, _) in zip(got, want):
            assert np.array_equal(r.md.S, md.S) and np.array_equal(r.md.T, md.T)
            # the report on a datum sharing its S cache equals the fresh one
            assert json.dumps(r.report.to_json_dict()) == json.dumps(report.to_json_dict())

    @pytest.mark.parametrize("ring, max_order, pol", REFERENCE_CASES, ids=REFERENCE_IDS)
    def test_fs_screen_drops_only_fs_failures(self, ring, max_order, pol):
        # a diagonal the FS screen drops gets a failing report with an fs_* error;
        # screened here are the diagonals of the reference search, which
        # include those of enumerate_t bit for bit
        enumerate_fn = (stacked_enumerate_t if isinstance(ring, str) and ring in THREE_ORBIT_RINGS
                        else reference_enumerate_t)
        for S in candidate_s(make_ring(ring), pol):
            s_md = ModularData.from_matrices(S, np.ones(len(S)))
            diagonals = enumerate_fn(S, max_order, pol).diagonals
            keep = _fs_screen(s_md, diagonals, pol)
            assert keep.shape == (len(diagonals),)
            for t in (t for t, k in zip(diagonals, keep) if not k):
                report = realizability_report(ModularData.from_matrices(S, t), pol)
                assert not report.passed
                assert any(d.check_id.startswith("fs_") for d in report.errors())

    def test_ising_fs_screen_counts(self):
        # 32 admissible twist assignments at q=32 pass the modular relation, 3
        # lifts each; the 24 with w_sigma not a primitive 16th root have
        # nu_sigma off +/-1 and get no report
        stats = {}
        res = search_pipeline(ring_of("ising"), max_order=32, stats_out=stats)
        assert len(res) == 24
        assert (stats["t_candidates"], stats["fs_screened"]) == (96, 72)

    def test_deterministic_ordering(self):
        fr = ring_of("fibonacci")
        r1 = search_pipeline(fr, max_order=10)
        r2 = search_pipeline(fr, max_order=10)
        assert [r.provenance for r in r1] == [r.provenance for r in r2]
