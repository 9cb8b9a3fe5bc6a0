import importlib.util
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import modata
from modata import (
    FusionRing,
    brute_trace,
    build_pointed_model,
    catalog_names,
    deligne,
    derive,
    get_model,
    load_model,
    realizability_report,
    validate,
    verlinde_fusion,
)
from modata.numerics import phase_from_turns

# the 45 products of the check_products benchmark workload
PAIRS = list(itertools.combinations_with_replacement(catalog_names(), 2))


def turn(p, q):
    return phase_from_turns(Fraction(p, q))


class TestBruteTrace:
    def test_vacuum_channel_of_vacuum(self, models):
        for m in models:
            assert brute_trace(m, 0, 0) == 1.0

    def test_non_channel_is_zero(self):
        m = get_model("ising")
        assert brute_trace(m, 1, 1) == 0.0  # sigma not a channel of sigma x sigma

    def test_ising_values(self):
        m = get_model("ising")
        assert abs(brute_trace(m, 1, 0) - turn(-1, 16)) < 1e-15
        assert abs(brute_trace(m, 1, 2) - turn(3, 16)) < 1e-15

    def test_fibonacci_values(self):
        m = get_model("fibonacci")
        assert abs(brute_trace(m, 1, 0) - turn(-2, 5)) < 1e-15
        assert abs(brute_trace(m, 1, 1) - turn(3, 10)) < 1e-15

    def test_fs_from_brute_matches_definition(self, models):
        # w_i * brute(i, 0) lands exactly on {0, +1, -1} and agrees with the
        # formula-route indicators
        from modata import fs_indicators, trace_table

        for m in models:
            dd = derive(m.modular_data)
            nu = fs_indicators(m.modular_data, dd, trace_table(m.modular_data, dd))
            for i in range(m.rank):
                val = m.twists[i] * brute_trace(m, i, 0)
                nearest = min((0, 1, -1), key=lambda t: abs(val - t))
                assert abs(val - nearest) < 1e-9, (m.name, i)
                assert nearest == nu[i], (m.name, i)


class TestPointedModels:
    def test_semion(self):
        m = build_pointed_model(2, 1)
        assert np.allclose(m.twists, [1.0, 1j])
        assert validate(m.modular_data).verdict == "pass"

    def test_conj_semion(self):
        m = build_pointed_model(2, -1)
        assert np.allclose(m.twists, [1.0, -1j])

    def test_z3(self):
        m = build_pointed_model(3, 1)
        z = turn(1, 3)
        assert np.allclose(m.twists, [1.0, z, z])

    def test_trivial(self):
        m = build_pointed_model(1, 0)
        assert m.rank == 1
        assert validate(m.modular_data).verdict == "pass"

    @pytest.mark.parametrize("n,p", [(2, 2), (4, 2), (6, 3), (2, 0)])
    def test_degenerate_rejected(self, n, p):
        with pytest.raises(ValueError, match="not modular"):
            build_pointed_model(n, p)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="need n >= 1, got 0"):
            build_pointed_model(0, 1)

    @pytest.mark.parametrize("n,p", [(1, 0), (2, 1), (3, 1), (3, 2), (4, 1),
                                     (4, 3), (5, 1), (5, 2), (7, 3)])
    def test_family_is_modular_and_realizable(self, n, p):
        m = build_pointed_model(n, p)
        assert validate(m.modular_data).verdict == "pass"
        assert realizability_report(m.modular_data).verdict == "pass"

    def test_monodromy_invariant_all_channels(self):
        for n, p in [(2, 1), (3, 1), (4, 1), (5, 2)]:
            m = build_pointed_model(n, p)
            w = m.twists
            for a in range(n):
                for b in range(n):
                    k = (a + b) % n
                    got = m.r_scalars[(a, b, k)] * m.r_scalars[(b, a, k)]
                    assert abs(got - w[k] / (w[a] * w[b])) < 1e-12, (n, p, a, b)

    def test_matches_shipped_semion_file(self):
        built = build_pointed_model(2, 1)
        shipped = get_model("semion")
        assert np.max(np.abs(built.modular_data.S - shipped.modular_data.S)) < 1e-12
        assert np.max(np.abs(built.modular_data.T - shipped.modular_data.T)) < 1e-12
        for ch, val in shipped.r_scalars.items():
            assert abs(built.r_scalars[ch] - val) < 1e-12

    def test_matches_shipped_z3_file(self):
        built = build_pointed_model(3, 1)
        shipped = get_model("z3")
        assert np.max(np.abs(built.modular_data.S - shipped.modular_data.S)) < 1e-12
        assert np.max(np.abs(built.modular_data.T - shipped.modular_data.T)) < 1e-12


class TestCatalog:
    def test_contract_names_present(self):
        names = set(catalog_names())
        assert {"trivial", "semion", "conj-semion", "z3", "fibonacci",
                "conj-fibonacci", "ising", "su2_2", "toric_code"} <= names
        assert len(names) >= 9

    def test_every_entry_validates_and_realizes(self, entries):
        for e in entries:
            assert validate(e.modular_data).verdict == "pass", e.name
            assert realizability_report(e.modular_data).verdict == "pass", e.name

    def test_ising_lookup(self):
        e = get_model("ising")
        assert e.modular_data.rank == 3
        assert abs(derive(e.modular_data).total_dim - 2.0) < 1e-12

    def test_fibonacci_lookup(self):
        e = get_model("fibonacci")
        phi = (1 + math.sqrt(5)) / 2
        assert e.modular_data.rank == 2
        d = derive(e.modular_data).dims
        assert np.max(np.abs(d - [1.0, phi])) < 1e-12

    def test_trivial_lookup(self):
        e = get_model("trivial")
        assert e.modular_data.rank == 1

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            get_model("not-a-model")

    def test_toric_code_twists(self):
        w = derive(get_model("toric_code").modular_data).twists
        assert np.allclose(w, [1.0, 1.0, 1.0, -1.0])

    def test_su2_2_twist(self):
        w = derive(get_model("su2_2").modular_data).twists
        assert abs(w[1] - turn(3, 16)) < 1e-12


class TestModelValidation:
    def test_typo_in_r_table_fails_loudly(self, tmp_path):
        import json

        from importlib import resources

        src = (resources.files("modata") / "data" / "models" / "fibonacci.json")
        doc = json.loads(src.read_text())
        # negate one self-braiding scalar: breaks the double-braiding identity
        for entry in doc["r"]:
            if entry[0] == [1, 1, 1]:
                entry[1] = {"abs": 1.0, "arg_turns": "4/5"}
        bad = tmp_path / "fib_typo.json"
        bad.write_text(json.dumps(doc))
        # a self-braiding sign flip preserves the double braiding; the ribbon
        # identity is what pins it
        with pytest.raises(ValueError, match="ribbon identity"):
            load_model(bad)

    def test_mixed_scalar_typo_breaks_monodromy(self, tmp_path):
        import json

        from importlib import resources

        src = (resources.files("modata") / "data" / "models" / "ising.json")
        doc = json.loads(src.read_text())
        for entry in doc["r"]:
            if entry[0] == [1, 2, 1]:
                entry[1] = {"abs": 1.0, "arg_turns": "1/8"}
        bad = tmp_path / "ising_typo.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="double braiding"):
            load_model(bad)

    def test_missing_channel_fails(self, tmp_path):
        import json

        from importlib import resources

        src = (resources.files("modata") / "data" / "models" / "ising.json")
        doc = json.loads(src.read_text())
        doc["r"] = doc["r"][:-1]
        bad = tmp_path / "ising_missing.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="support mismatch"):
            load_model(bad)

    def test_missing_s_is_invalid_data(self, tmp_path):
        import json

        from modata import InvalidModularData

        doc = get_model("ising").to_json_dict()
        del doc["S"]
        bad = tmp_path / "ising_no_s.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(InvalidModularData, match="missing or malformed field"):
            load_model(bad)

    @pytest.mark.parametrize("r", [
        [[[0, 0, "0"], [1.0, 0.0]]],    # indices are JSON integers, not strings,
        [[[0, 0, 0.0], [1.0, 0.0]]],    # floats
        [[[0, 0, False], [1.0, 0.0]]],  # or booleans
        [[0, 1]],                       # each entry is an [[i, j, k], c] pair
        [[[0, 0, 0]]],
        {"a": 1},                       # the block is a list
    ])
    def test_malformed_r_block_is_invalid_data(self, tmp_path, r):
        import json

        from modata import InvalidModularData

        doc = get_model("trivial").to_json_dict()
        doc["r"] = r
        bad = tmp_path / "trivial_bad_r.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(InvalidModularData, match='"r"'):
            load_model(bad)

    @pytest.mark.parametrize("field", ["S", "T", "abs", "r"])
    def test_number_beyond_the_float_range_is_invalid_data(self, tmp_path, field):
        import json

        from modata import InvalidModularData

        doc = get_model("semion").to_json_dict()
        big = 10 ** 400
        if field == "S":
            doc["S"][0][0] = [big, 0]
        elif field == "T":
            doc["T"][1] = big
        elif field == "abs":
            doc["T"][1] = {"abs": big, "arg_turns": "1/4"}
        else:
            doc["r"][0][1] = [0, -big]
        bad = tmp_path / "semion_huge.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(InvalidModularData, match="float range"):
            load_model(bad)

    def test_negated_s_does_not_derive(self, tmp_path):
        import json

        from modata import InvalidModularData, load_modular_data

        doc = get_model("ising").to_json_dict()
        doc["S"] = [[[-re, -im] for re, im in row] for row in doc["S"]]
        bad = tmp_path / "ising_neg_s.json"
        bad.write_text(json.dumps(doc))
        # fusion, twists and dims all survive the sign, and the r table fits
        # them; the datum is still not modular
        failed = {d.check_id for d in realizability_report(load_modular_data(bad)).errors()}
        assert {"st_cubed", "dims_row"} <= failed
        with pytest.raises(InvalidModularData, match="S_0,0 = .* is not real positive"):
            load_model(bad)

    @pytest.mark.parametrize("base, change, msg", [
        ("semion", lambda m: {"fusion": 2 * m.fusion}, "fusion must be a 0/1 tensor"),
        ("semion", lambda m: {"twists": [-1.0, 1j]}, "twist of the vacuum must be 1"),
        ("semion", lambda m: {"r_scalars": {**m.r_scalars, (0, 0, 0): 2.0}},
         r"\|r\(0,0,0\)\| != 1"),
        ("trivial", lambda m: {"modular_data": get_model("semion").modular_data},
         "modular data rank mismatch"),
        # conj-semion's T gives w_s = -i against the r table's i
        ("semion", lambda m: {"modular_data": get_model("conj-semion").modular_data},
         "T diagonal does not reproduce the twists"),
        # s x s = 1 + s with r scalars that fit the semion twists; the
        # semion's S gives s x s = 1
        ("semion", lambda m: {
            "fusion": np.array([[[1, 0], [0, 1]], [[0, 1], [1, 1]]]),
            "r_scalars": {**m.r_scalars, (1, 1, 1): turn(-1, 8)}},
         "Verlinde fusion does not match the r table support"),
    ], ids=["fusion-not-0-1", "vacuum-twist", "r-off-unit-circle", "rank", "twists",
            "verlinde"])
    def test_inconsistent_model_rejected(self, base, change, msg):
        import dataclasses

        model = get_model(base)
        with pytest.raises(ValueError, match=msg):
            dataclasses.replace(model, **change(model))

    @pytest.mark.parametrize("labels", [("a",), ("p", "q", "r")])
    def test_labels_must_be_those_of_the_modular_data(self, labels):
        import dataclasses

        ising = get_model("ising")
        with pytest.raises(ValueError, match="labels"):
            dataclasses.replace(ising, labels=labels)

    def test_roundtrip_through_json(self, tmp_path):
        import json

        m = get_model("su2_2")
        path = tmp_path / "su2_2.json"
        path.write_text(json.dumps(m.to_json_dict()))
        back = load_model(path)
        assert back.name == m.name
        assert np.max(np.abs(back.modular_data.S - m.modular_data.S)) < 1e-15
        assert set(back.r_scalars) == set(m.r_scalars)


@pytest.fixture(scope="module")
def workloads():
    """perfbench's workload module, loaded without writing a bytecode cache;
    only its pure product builders are called, none that writes input files."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.setitem(sys.modules, spec.name, module)  # read by its dataclass
        spec.loader.exec_module(module)
    return module


class TestDeligne:
    """``deligne`` against perfbench's own product builders, the inputs and
    the trace oracle of the check_products workload."""

    def test_modular_data_bit_for_bit(self, workloads):
        assert len(PAIRS) == 45
        for a, b in PAIRS:
            A, B = get_model(a).modular_data, get_model(b).modular_data
            got, want = deligne(A, B), workloads.product_data(modata, A, B)
            assert got.labels == want.labels, (a, b)
            assert got.S.tobytes() == want.S.tobytes(), (a, b)
            assert got.T.tobytes() == want.T.tobytes(), (a, b)

    def test_explicit_models(self, workloads):
        for a, b in PAIRS:
            A, B = get_model(a), get_model(b)
            got, want = deligne(A, B), workloads.explicit_product(modata, A, B)
            assert (got.name, got.labels) == (want.name, want.labels)
            assert np.array_equal(got.fusion, want.fusion), got.name
            assert got.twists.tobytes() == want.twists.tobytes(), got.name
            assert got.r_scalars == want.r_scalars, got.name

    def test_ring_is_the_fusion_of_the_product(self):
        for a, b in PAIRS:
            A, B = get_model(a).modular_data, get_model(b).modular_data
            ring = deligne(*(FusionRing(rank=md.rank, N=verlinde_fusion(md)) for md in (A, B)))
            assert np.array_equal(ring.N, verlinde_fusion(deligne(A, B))), (a, b)

    def test_mixed_kinds_rejected(self):
        fib = get_model("fibonacci")
        with pytest.raises(TypeError, match="ExplicitModel and ModularData"):
            deligne(fib, fib.modular_data)
