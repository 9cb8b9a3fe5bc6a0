import io
import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modata import (
    FusionRing,
    InvalidModularData,
    ModularData,
    canonical_r,
    deligne,
    derive,
    eigen_multiplicities,
    get_model,
    load_fusion_ring,
    load_modular_data,
    realizability_report,
    save_modular_data,
    search_pipeline,
    trace_table,
    twists,
    validate,
    verlinde_fusion,
)
from modata.modular_data import _casimir_det, _encode_datum, parse_complex
from modata.numerics import DEFAULT_POLICY, TolerancePolicy, phase_from_turns
from modata.search import _cauchy_roots, _roots_of_unity

TRIVIAL = ModularData.from_matrices([[1.0]], [1.0])


class TestConstruction:
    def test_rejects_nonsquare_s(self):
        with pytest.raises(InvalidModularData):
            ModularData.from_matrices([[1.0, 0.0]], [1.0])

    def test_rejects_wrong_t_length(self):
        with pytest.raises(InvalidModularData):
            ModularData(rank=2, labels=("a", "b"), S=np.eye(2), T=np.ones(3))

    def test_rejects_nan(self):
        with pytest.raises(InvalidModularData):
            ModularData.from_matrices([[float("nan")]], [1.0])

    def test_immutable(self):
        md = get_model("ising").modular_data
        with pytest.raises(ValueError):
            md.S[0, 0] = 5.0

    def test_default_labels(self):
        md = ModularData.from_matrices(np.eye(2), [1.0, 1.0])
        assert md.labels == ("0", "1")

    def test_approx_eq_across_ranks_is_false(self):
        # compared entrywise, S and T of different shapes would broadcast or raise
        assert not TRIVIAL.approx_eq(get_model("semion").modular_data)
        assert not get_model("semion").modular_data.approx_eq(TRIVIAL)

    def test_records_compare_and_hash_by_identity(self):
        # the records hold arrays, whose truth value a field-wise == would ask
        # for, and which a field-wise hash cannot hash: each compares and
        # hashes by identity, so two same-rank data are unequal, not an error
        def records(name):
            model = get_model(name)
            md = model.modular_data
            dd = derive(md)
            ring = FusionRing(rank=md.rank, N=dd.fusion)
            blocks = canonical_r(dd, *eigen_multiplicities(dd, trace_table(md, dd)))
            return model, md, dd, ring, blocks, search_pipeline(ring, max_order=4)[0]

        for x, y in zip(records("semion"), records("conj-semion")):
            assert type(x) is type(y)
            assert (x == y) is False and x != y and x == x
            assert x not in [y] and hash(x) == hash(x) and x in {x}


class TestDims:
    def test_trivial(self):
        assert np.allclose(derive(TRIVIAL).dims, [1.0])

    def test_fibonacci_golden_ratio(self):
        # independent oracle: the positive eigenvalue of the fusion matrix
        # [[0,1],[1,1]] solves x^2 = x + 1
        golden = max(np.linalg.eigvalsh(np.array([[0.0, 1.0], [1.0, 1.0]])))
        d = derive(get_model("fibonacci").modular_data).dims
        assert abs(d[1] - golden) < 1e-12
        assert abs(d[0] - 1.0) < 1e-15

    def test_ising_from_catalog_s(self):
        d = derive(get_model("ising").modular_data).dims
        assert np.max(np.abs(d - [1.0, math.sqrt(2), 1.0])) < 1e-12

    def test_rejects_complex_ratio(self):
        md = ModularData.from_matrices([[0.5, 0.5j], [0.5j, 0.5]], [1.0, 1.0])
        with pytest.raises(InvalidModularData, match="invalid dimension row"):
            derive(md)


class TestTwists:
    def test_trivial(self):
        assert twists(TRIVIAL)[0] == 1.0

    def test_ising(self):
        w = twists(get_model("ising").modular_data)
        assert abs(w[1] - np.exp(1j * math.pi / 8)) < 1e-12
        assert abs(w[2] + 1.0) < 1e-12

    def test_semion(self):
        w = twists(get_model("semion").modular_data)
        assert abs(w[1] - 1j) < 1e-12

    def test_vacuum_exactly_one(self):
        w = twists(get_model("fibonacci").modular_data)
        assert w[0] == 1.0

    @pytest.mark.parametrize("t0", [0.0, 1e-10])
    def test_vanishing_t0_rejected(self, t0):
        fib = get_model("fibonacci").modular_data
        md = ModularData.from_matrices(fib.S, [t0, fib.T[1]])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(InvalidModularData, match="invalid twists: T_0 vanishes"):
                twists(md)

    def test_vanishing_is_judged_by_the_policy(self):
        fib = get_model("fibonacci").modular_data
        md = ModularData.from_matrices(fib.S, [1e-10, fib.T[1]])
        w = twists(md, TolerancePolicy(eq_tol=1e-12, int_tol=1e-6))
        assert w[0] == 1.0 and abs(w[1]) == pytest.approx(1e10)


class TestChargeConjugation:
    def test_trivial_identity(self):
        assert derive(TRIVIAL).conj.tolist() == [0]

    def test_ising_all_selfdual(self):
        assert derive(get_model("ising").modular_data).conj.tolist() == [0, 1, 2]

    def test_z3_swaps_duals(self):
        assert derive(get_model("z3").modular_data).conj.tolist() == [0, 2, 1]

    def test_rejects_non_permutation(self):
        md = ModularData.from_matrices(np.eye(2) * (1 / math.sqrt(2)), [1.0, 1.0])
        with pytest.raises(InvalidModularData, match="not modular"):
            derive(md)


class TestVerlinde:
    def test_trivial(self):
        N = verlinde_fusion(TRIVIAL)
        assert N[0, 0, 0] == 1

    def test_fibonacci(self):
        N = verlinde_fusion(get_model("fibonacci").modular_data)
        assert N[1, 1, 1] == 1 and N[1, 1, 0] == 1

    def test_ising(self):
        N = verlinde_fusion(get_model("ising").modular_data)
        assert N[1, 1, 0] == 1 and N[1, 1, 2] == 1 and N[1, 1, 1] == 0

    def test_integrality_error_lists_triple(self):
        S = np.array([[0.6, 0.8], [0.8, -0.6]])
        md = ModularData.from_matrices(S, [1.0, 1.0])
        with pytest.raises(InvalidModularData, match="Verlinde integrality violation"):
            verlinde_fusion(md)


class TestCasimirDet:
    def test_catalog_equals_product_of_eigenvalues(self, entries):
        # K = sum_i N_i N_ibar has eigenvalues D^2/d_j^2 = 1/S_0j^2
        for e in entries:
            want = round(float(np.prod(1.0 / np.abs(e.modular_data.S[0]) ** 2)))
            assert _casimir_det(verlinde_fusion(e.modular_data)) == want, e.name

    def test_exact_beyond_int64(self):
        toric = get_model("toric_code").modular_data
        assert _casimir_det(verlinde_fusion(deligne(toric, toric))) == 2 ** 64

    def test_singular(self):
        N = np.zeros((2, 2, 2), dtype=int)
        N[1, 1, 1] = 1
        assert _casimir_det(N) == 0

    def test_equals_exact_elimination(self):
        # the symmetric Bareiss elimination against plain Gaussian
        # elimination in exact rationals, on random nonnegative tensors
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            N = rng.integers(0, 4, size=(n, n, n)) * (rng.random((n, n, n)) < 0.4)
            assert _casimir_det(N) == reference_det(N), N.tolist()

    def test_k_beyond_int64(self):
        # the ring x x = 1 + 2^32 x: K_11 = 1 + 2^64 outgrows int64
        N = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 2 ** 32]]])
        det = _casimir_det(N)
        assert det == reference_det(N) == 2 ** 64 + 4
        # so the Cauchy filter keeps the roots of order 1, 2, 4, 5, 8 and 10
        roots = _roots_of_unity(12)
        keep = _cauchy_roots(det, roots)
        assert (len(roots), len(keep)) == (46, 16)
        assert {roots[k].denominator for k in keep} == {1, 2, 4, 5, 8, 10}


def reference_det(N):
    """det K, K = sum_i N_i N_ibar, by Gaussian elimination in exact rationals."""
    K = [[Fraction(x) for x in row]
         for row in np.tensordot(N.astype(object), N.astype(object), axes=([0, 2], [0, 2]))]
    det = Fraction(1)
    for c in range(len(K)):
        pivot = next((r for r in range(c, len(K)) if K[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            K[c], K[pivot], det = K[pivot], K[c], -det
        det *= K[c][c]
        for r in range(c + 1, len(K)):
            f = K[r][c] / K[c][c]
            K[r] = [a - f * b for a, b in zip(K[r], K[c])]
    return int(det)


class TestDerive:
    def test_trivial_bundle(self):
        dd = derive(TRIVIAL)
        assert dd.total_dim == 1.0
        assert dd.conj.tolist() == [0]

    def test_ising_total_dim(self):
        assert abs(derive(get_model("ising").modular_data).total_dim - 2.0) < 1e-12

    def test_fibonacci_total_dim(self):
        phi = (1 + math.sqrt(5)) / 2
        dd = derive(get_model("fibonacci").modular_data)
        assert abs(dd.total_dim - math.sqrt(phi + 2)) < 1e-12

    def test_catalog_invariants(self, entries, pol):
        for e in entries:
            dd = derive(e.modular_data)
            # sum of squared dims equals |sigma|^2
            assert abs(np.sum(dd.dims ** 2) - dd.total_dim ** 2) < 1e-9, e.name
            assert np.all(dd.dims >= 1.0 - pol.int_tol), e.name
            conj = dd.conj
            assert np.array_equal(conj[conj], np.arange(e.modular_data.rank)), e.name
            assert np.max(np.abs(dd.dims[conj] - dd.dims)) < 1e-9, e.name
            assert np.max(np.abs(dd.twists[conj] - dd.twists)) < 1e-9, e.name

    @pytest.mark.parametrize("t0", [0.0, 1e-10])
    def test_vanishing_t0_rejected_before_dividing(self, t0):
        fib = get_model("fibonacci").modular_data
        md = ModularData.from_matrices(fib.S, [t0, fib.T[1]])
        with np.errstate(all="raise"), pytest.raises(InvalidModularData, match="T_0 vanishes"):
            derive(md)
        report = validate(md)
        assert [d.check_id for d in report.errors()] == ["t_unimodular", "st_cubed"]
        assert report.measurements["conjugate_symmetry"] == 0.0

    def test_fusion_symmetries(self, entries):
        for e in entries:
            dd = derive(e.modular_data)
            N, conj = dd.fusion, dd.conj
            n = e.modular_data.rank
            assert np.array_equal(N, N.transpose(1, 0, 2)), e.name
            # N^k_{i,j} = N^kbar_{ibar,jbar}
            assert np.array_equal(N, N[np.ix_(conj, conj, conj)]), e.name
            # Frobenius reciprocity: N^c_{a,b} = N^bbar_{a,cbar}
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        assert N[a, b, c] == N[a, conj[c], conj[b]], (e.name, a, b, c)
            # vacuum row: N^0_{i,j} = delta_{j, ibar}
            expected = np.zeros((n, n), dtype=int)
            expected[np.arange(n), conj] = 1
            assert np.array_equal(N[:, :, 0], expected), e.name


class TestFileFormat:
    def test_roundtrip_pairs(self, tmp_path):
        md = get_model("su2_2").modular_data
        path = tmp_path / "x.json"
        save_modular_data(md, path)
        back = load_modular_data(path)
        assert back.approx_eq(md)
        assert back.labels == md.labels

    def test_roundtrip_exact_phases(self, tmp_path):
        md = get_model("fibonacci").modular_data
        path = tmp_path / "x.json"
        save_modular_data(md, path, exact_t=True)
        doc = json.loads(path.read_text())
        assert doc["T"][1]["arg_turns"] == "17/60"
        back = load_modular_data(path)
        assert np.max(np.abs(back.T - md.T)) == 0.0  # bit-exact twists

    def test_exact_form_parses(self):
        text = json.dumps({
            "rank": 1,
            "S": [[{"abs": 1.0, "arg_turns": "0/1"}]],
            "T": [{"abs": 1.0, "arg_turns": "-1/4"}],
        })
        md = load_modular_data(io.StringIO(text))
        assert abs(md.T[0] + 1j) < 1e-15

    @pytest.mark.parametrize("obj", [[True, 0.0], [1.0], [1.0, 2.0, 3.0], ["1", 0]])
    def test_parse_complex_rejects(self, obj):
        with pytest.raises(InvalidModularData, match=r"must be \[re, im\]"):
            parse_complex(obj)

    def test_parse_complex_accepts_ints(self):
        z = parse_complex([1, 0])
        assert z == 1.0 and type(z) is complex

    def test_roundtrip_is_bit_exact(self, entries, rings_dir):
        mds = [e.modular_data for e in entries]
        data = mds + [deligne(a, b) for a, b in itertools.combinations_with_replacement(mds, 2)]
        data.append(search_pipeline(load_fusion_ring(rings_dir / "ising_ring.json"), 16)[0].md)
        assert len(data) == 9 + 45 + 1
        for n, md in enumerate(data):
            for exact_t in (False, True):
                out = io.StringIO()
                save_modular_data(md, out, exact_t=exact_t)
                text = out.getvalue()
                assert text.count("\n") == 1 and text.endswith("\n")
                back = load_modular_data(io.StringIO(text))
                assert np.array_equal(back.S, md.S), (n, exact_t)
                if not exact_t or n < len(entries):
                    assert np.array_equal(back.T, md.T), (n, exact_t)
                    continue
                # abs * e^{2 pi i p/q} re-rounds a T built from a float product;
                # its reading must equal the one through Fraction bit for bit
                want = [z["abs"] * phase_from_turns(Fraction(z["arg_turns"]))
                        for z in json.loads(text)["T"]]
                assert np.array_equal(back.T, want), n
                assert np.max(np.abs(back.T - md.T)) < 1e-14, n
                # the second save/load cycle is a fixed point: a unit abs is written as 1.0
                again = io.StringIO()
                save_modular_data(back, again, exact_t=True)
                assert np.array_equal(load_modular_data(io.StringIO(again.getvalue())).T,
                                      back.T), n

    def test_save_returns_the_line_it_writes(self):
        md = get_model("fibonacci").modular_data
        for exact_t in (False, True):
            out = io.StringIO()
            text = save_modular_data(md, out, exact_t=exact_t)
            assert out.getvalue() == text + "\n"
            assert text == json.dumps(md.to_json_dict(exact_t))

    def test_bare_number_tolerated(self):
        md = load_modular_data(io.StringIO('{"rank": 1, "S": [[1.0]], "T": [1.0]}'))
        assert md.S[0, 0] == 1.0

    @pytest.mark.parametrize("doc", [
        '{"rank": 1, "S": [[0.0, 1.0]], "T": [[1.0, 0.0]]}',   # bad complex form
        '{"rank": 1, "S": [[[1.0, 0.0]]]}',                     # missing T
        '{"rank": 2, "S": [[[1,0]]], "T": [[1,0]]}',            # rank mismatch
        '{"rank": 1, "S": [[{"abs": 1.0, "arg_turns": "1/0"}]], "T": [[1,0]]}',
        '{"rank": 1, "S": [[{"abs": 1.0, "arg_turns": "0.5"}]], "T": [[1,0]]}',
        "not json",
        '{"rank": 1, "S": [[true]], "T": [[1,0]]}',                # bool is not a number
        '{"rank": 1, "S": [[[1.0, false]]], "T": [[1,0]]}',
        '{"rank": 1, "S": [[{"abs": true, "arg_turns": "0/1"}]], "T": [[1,0]]}',
        '{"rank": 1, "S": [1.0], "T": [[1,0]]}',                   # S row not a list
        '{"rank": 2, "S": [[1.0], [1.0, 0.0]], "T": [1.0, 1.0]}',  # ragged S
        '{"rank": 2, "S": [[1.0, 0.0], [0.0]], "T": [1.0, 1.0]}',
        '{"rank": true, "S": [[1.0]], "T": [1.0]}',                # rank must be an integer
        '{"rank": "1", "S": [[1.0]], "T": [1.0]}',
        '{"rank": 1.0, "S": [[1.0]], "T": [1.0]}',
        '{"rank": 1.9, "S": [[1.0]], "T": [1.0]}',
        '{"rank": 1, "labels": "a", "S": [[1.0]], "T": [1.0]}',   # labels must be a list
        '{"rank": 2, "labels": {"a": 1, "b": 2}, "S": [[1.0, 0.0], [0.0, 1.0]], "T": [1.0, 1.0]}',
        '{"rank": 1, "labels": [1], "S": [[1.0]], "T": [1.0]}',   # of strings
        '{"rank": 1, "labels": null, "S": [[1.0]], "T": [1.0]}',
    ])
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(InvalidModularData):
            load_modular_data(io.StringIO(doc))

    def test_vacuum_elsewhere_rejected_by_validation(self):
        # Ising data with rows/columns cycled so the vacuum sits at index 2:
        # structurally fine, must fail validation rather than be permuted
        md = get_model("ising").modular_data
        perm = [1, 2, 0]
        S = md.S[np.ix_(perm, perm)]
        T = md.T[perm]
        shifted = ModularData.from_matrices(S, T)
        report = validate(shifted)
        assert not report.passed


class TestDerivedCache:
    """S^2 and the Verlinde tensor are cached in the S cache that ``_with_t``
    shares; what the S cache holds per policy must be keyed by it, and
    nothing that reads T may be in it."""

    CACHED = ("S2", "verlinde_raw")

    @staticmethod
    def instances(entries, bad_file):
        by_name = {e.name: e.modular_data for e in entries}
        mds = list(by_name.values())
        for a, b in [("ising", "fibonacci"), ("z3", "toric_code"), ("semion", "su2_2")]:
            mds.append(deligne(by_name[a], by_name[b]))
        mds.append(load_modular_data(bad_file))
        return mds

    def test_reports_do_not_depend_on_earlier_policy(self, entries, bad_ising_file):
        for md in self.instances(entries, bad_ising_file):
            # the strict policy fails most instances, the loose one passes some
            # bad ones: either would leave its verdicts behind in a bad cache
            for pol in (TolerancePolicy(eq_tol=1e-16, int_tol=1e-16),
                        TolerancePolicy(eq_tol=0.3, int_tol=0.3)):
                validate(md, pol)
                realizability_report(md, pol)
            fresh = ModularData.from_matrices(md.S, md.T, md.labels)
            for check in (validate, realizability_report):
                got = json.dumps(check(md).to_json_dict())
                assert got == json.dumps(check(fresh).to_json_dict()), (md.labels, check)

    @staticmethod
    def assert_fresh_reports(md, pol=DEFAULT_POLICY):
        fresh = ModularData.from_matrices(md.S, md.T, md.labels)
        for check in (validate, realizability_report):
            got = json.dumps(check(md, pol).to_json_dict())
            assert got == json.dumps(check(fresh, pol).to_json_dict()), (md.labels, check)

    def test_twisted_control_shares_no_t_quantity(self, entries):
        # the control shares the catalog datum's S cache and must fail
        # st_cubed, so (S T)^3 and every other T quantity is its own
        for e in entries:
            if e.modular_data.rank == 1:
                continue
            T = e.modular_data.T.copy()
            T[-1] *= phase_from_turns(Fraction(1, 12))
            realizability_report(e.modular_data)  # fill the S cache
            control = e.modular_data._with_t(T)
            assert control._s is e.modular_data._s
            self.assert_fresh_reports(e.modular_data)
            self.assert_fresh_reports(control)
            assert "st_cubed" in {d.check_id for d in validate(control).errors()}, e.name

    def test_s_checks_are_kept_per_policy(self):
        # S moved by 1e-7 fails unitarity under the default policy and passes
        # under the loose one; the reports on data sharing one S cache must
        # be the fresh ones of each policy, in either order
        ising = get_model("ising").modular_data
        A = np.random.default_rng(0).standard_normal((3, 3))
        md = ModularData.from_matrices(ising.S + 1e-7 * (A + A.T) / 2, ising.T)
        loose = TolerancePolicy(eq_tol=1e-6, int_tol=1e-6)
        assert not validate(md).passed and realizability_report(md, loose).passed
        for pol in (DEFAULT_POLICY, loose, DEFAULT_POLICY):
            self.assert_fresh_reports(md._with_t(ising.T), pol)

    def test_with_t_checks_only_t(self):
        # a T candidate keeps the S, labels and S cache of its datum; its own
        # T is checked as the constructor checks it
        md = get_model("ising").modular_data
        row = md._with_t(list(md.T))
        assert row._s is md._s and row.S is md.S and row.labels == md.labels
        assert row.rank == 3 and row._memo == {}
        assert np.array_equal(row.T, md.T) and not row.T.flags.writeable
        finite = "S and T entries must be finite"  # one message from both
        for T, match in (([1, 1], "length 3"), ([1, np.nan, 1], finite),
                         ([1, 1, np.inf], finite)):
            with pytest.raises(InvalidModularData, match=match):
                md._with_t(T)
            with pytest.raises(InvalidModularData, match=match):
                ModularData(rank=3, labels=md.labels, S=md.S, T=T)

    def test_cached_arrays_are_read_only_and_computed_once(self, entries, bad_ising_file):
        for md in self.instances(entries, bad_ising_file):
            for name in self.CACHED:
                arr = getattr(md, name)
                assert getattr(md, name) is arr
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr.flat[0] = 0.0


# labels that JSON must escape, or that are not ASCII, besides drawn text
LABELS = st.one_of(st.sampled_from(['', '"', "\\", "\x00", "\u2028", "é", "σ*ψ", 'a"\\b']),
                   st.text(max_size=3))


class TestEncoder:
    """``_encode_datum`` writes what ``json.dumps`` writes of ``to_json_dict``."""

    @staticmethod
    def t_row(rng, n):
        """T entries of three kinds: roots of unity (the exact form), other
        complex values ([re, im] either way) and zero."""
        T = np.array([phase_from_turns(Fraction(int(rng.integers(0, 240)), int(q)))
                      for q in rng.integers(1, 241, size=n)])
        kind = rng.integers(0, 3, size=n)
        return np.where(kind == 1, T * rng.uniform(0.1, 3.0, size=n), np.where(kind == 2, 0, T))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           corner=st.floats(allow_nan=False, allow_infinity=False), data=st.data())
    def test_equals_json_dumps_of_the_dict(self, n, seed, corner, data):
        labels, other = (data.draw(st.lists(LABELS, min_size=n, max_size=n)) for _ in range(2))
        rng = np.random.default_rng(seed)
        S = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        S[0, 0] = complex(corner, -0.0)
        md = ModularData.from_matrices(S, self.t_row(rng, n), labels)
        # the T candidates of one S share its cache, and so its encoded head
        rows = [md] + [md._with_t(self.t_row(rng, n)) for _ in range(2)]
        # a datum sharing that cache under other labels must get its own head
        relabeled = ModularData.from_matrices(S, self.t_row(rng, n), other)
        object.__setattr__(relabeled, "_s", md._s)
        rows.append(relabeled)
        for x in rows + rows[::-1]:
            for exact_t in (False, True):
                assert _encode_datum(x, exact_t) == json.dumps(x.to_json_dict(exact_t))
