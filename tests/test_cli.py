import cmath
import functools
import json
import math
import os
import random
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import modata
from modata import (
    InvalidModularData,
    ModularData,
    catalog_models,
    deligne,
    derive,
    eigen_multiplicities,
    enumerate_t,
    fs_indicators,
    get_model,
    load_modular_data,
    save_modular_data,
    trace_table,
)
from modata.cli import fmt_complex, main
from modata.modular_data import _Encoded, verlinde_fusion
from modata.numerics import phase_from_turns
from modata.search import (MAX_SEARCH_ORDER, FusionRing, load_fusion_ring, save_fusion_ring,
                           search_pipeline)
from test_search import su2_ring


KNOWN_MODELS = ("trivial, semion, conj-semion, z3, fibonacci, conj-fibonacci, ising, su2_2, "
                "toric_code")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def fs_fail_file(tmp_path):
    """Ising S with twists (1, 1, -1): modular, but nu_sigma = sqrt 2 fails fs_value."""
    ising = get_model("ising").modular_data  # the S datum; enumerate_t never reads its T
    t = next(t for t in enumerate_t(ising, 4).diagonals if np.allclose(t / t[0], [1, 1, -1]))
    path = tmp_path / "ising_fs_fail.json"
    save_modular_data(ModularData.from_matrices(ising.S, t), path)
    return path


class TestFormatting:
    def test_zero(self):
        assert fmt_complex(0.0) == "0"

    def test_plain_real(self):
        assert fmt_complex(0.5) == "+0.500000"

    def test_root_of_unity_gets_turn_fraction(self):
        s = fmt_complex(cmath.exp(2j * math.pi * 3 / 16))
        assert "3/16 turn" in s

    def test_non_root_flagged_approximate(self):
        assert "(approx)" in fmt_complex(cmath.exp(1j))


class TestValidateCommand:
    def test_catalog_file_passes(self, capsys, ising_file):
        code, out, _ = run(capsys, "validate", str(ising_file))
        assert code == 0
        assert "verdict: pass" in out

    def test_corrupted_entry_exit_one_with_check_id(self, capsys, tmp_path, ising_file):
        doc = json.loads(Path(ising_file).read_text())
        doc["S"][0][0] = [0.9, 0.0]
        bad = tmp_path / "corrupt.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        assert "s_unitary" in out

    def test_malformed_json_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"rank": 1,,}')
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "malformed JSON" in err

    def test_ragged_s_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "ragged.json"
        bad.write_text('{"rank": 2, "S": [[1.0], [1.0, 0.0]], "T": [1.0, 1.0]}')
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert out == ""
        assert "S rows have inconsistent lengths" in err

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/file.json")
        assert code == 2

    def test_directory_exit_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ")

    def test_json_output_parses(self, capsys, ising_file):
        code, out, _ = run(capsys, "--json", "validate", str(ising_file))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"

    def test_flags_after_subcommand(self, capsys, ising_file):
        code, out, _ = run(capsys, "validate", str(ising_file), "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_tol_override(self, capsys, ising_file):
        code, _, _ = run(capsys, "validate", str(ising_file), "--tol", "1e-2")
        assert code == 0

    @pytest.mark.parametrize("flags", [("--tol", "0.7"), ("--int-tol", "1e-12"), ("--tol", "nan")],
                             ids=["eq_tol-above-half", "int_tol-below-eq_tol", "nan"])
    def test_bad_tolerance_exit_two(self, capsys, ising_file, flags):
        # each breaks 0 < eq_tol <= int_tol < 0.5; --int-tol 1e-12 lies below
        # the default eq_tol of 1e-9
        code, out, err = run(capsys, *flags, "check", str(ising_file))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("bad tolerance: "), err

    @pytest.mark.parametrize("cmd", ["validate", "check", "bantay", "rmatrix"])
    @pytest.mark.parametrize("text, msg", [
        ('{"rank": 0, "S": [[]], "T": []}', "rank must be >= 1, got 0"),
        ('{"rank": 2, "labels": ["a"], "S": [[1, 1], [1, -1]], "T": [1, 1]}',
         "need 2 labels, got 1"),
        ('{"rank": 1, "S": [[1]], "T": [{"abs": 1, "arg_turns": "1/x"}]}',
         'arg_turns must be "p/q"'),
        ("[1, 2]", "top-level JSON value must be an object"),
    ], ids=["rank-0", "labels-length", "arg_turns", "top-level-array"])
    def test_malformed_datum_exit_two(self, capsys, tmp_path, cmd, text, msg):
        path = tmp_path / "input.json"
        path.write_text(text)
        code, out, err = run(capsys, cmd, str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {msg}"), err


class TestBantayCommand:
    def test_ising_table(self, capsys, ising_file):
        code, out, _ = run(capsys, "bantay", str(ising_file))
        assert code == 0
        assert "Frobenius-Schur" in out
        assert out.count("+1") >= 3

    def test_su2_2_negative_indicator(self, capsys, tmp_path):
        from modata import get_model, save_modular_data

        path = tmp_path / "su2_2.json"
        save_modular_data(get_model("su2_2").modular_data, path, exact_t=True)
        code, out, _ = run(capsys, "--json", "bantay", str(path))
        doc = json.loads(out)
        assert doc["nu"] == [1, -1, 1]

    def test_trivial_tables(self, capsys, tmp_path):
        from modata import get_model, save_modular_data

        path = tmp_path / "trivial.json"
        save_modular_data(get_model("trivial").modular_data, path)
        code, out, _ = run(capsys, "--json", "bantay", str(path))
        doc = json.loads(out)
        assert doc["tau"] == [[[1.0, 0.0]]]
        assert doc["m_plus"] == [[1]]

    def test_refuses_invalid_data(self, capsys, bad_ising_file):
        code, _, err = run(capsys, "bantay", str(bad_ising_file))
        assert code == 1

    def test_trace_failure_exit_one(self, capsys, fs_fail_file):
        code, out, err = run(capsys, "bantay", str(fs_fail_file))
        assert code == 1
        assert "data fails the fs_value check" in err
        assert "verdict: fail" in out and "fs_value" in out

    def test_names_the_failing_check(self, capsys, tmp_path, single_failure_data):
        # S passes the axioms but its dimension row does not derive: that is
        # no trace constraint, and stderr must say which check failed
        path = tmp_path / "ising_derivation.json"
        save_modular_data(single_failure_data["derivation"], path)
        code, out, err = run(capsys, "bantay", str(path))
        assert code == 1
        assert "data fails the derivation check" in err
        assert "trace constraint" not in err
        assert "derivation" in out

    def test_trace_failure_json_report(self, capsys, fs_fail_file):
        code, out, _ = run(capsys, "--json", "bantay", str(fs_fail_file))
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "fail"
        assert "fs_value" in {d["check_id"] for d in doc["diagnostics"]}

    def test_json_is_json_dumps_of_the_four_arrays(self, capsys, tmp_path, entries):
        # tau as [re, im] pairs, then nu, m_plus and m_minus, as json.dumps
        # writes the lists of the builders' arrays
        ising = get_model("ising").modular_data
        data = [(e.name, e.modular_data) for e in entries] + [
            ("ising_ising", deligne(ising, ising))]
        for name, md in data:
            path = tmp_path / f"{name}.json"
            save_modular_data(md, path, exact_t=True)
            md = load_modular_data(path)
            dd = derive(md)
            tau = trace_table(md, dd)
            m_plus, m_minus = eigen_multiplicities(dd, tau)
            want = {"tau": np.stack((tau.real, tau.imag), -1).tolist(),
                    "nu": fs_indicators(md, dd, tau).tolist(),
                    "m_plus": m_plus.tolist(), "m_minus": m_minus.tolist()}
            code, out, _ = run(capsys, "--json", "bantay", str(path))
            assert code == 0, name
            assert out == json.dumps(want) + "\n", name


class TestCheckCommand:
    def test_negative_control(self, capsys, bad_ising_file):
        code, out, _ = run(capsys, "check", str(bad_ising_file))
        assert code == 1
        assert "st_cubed" in out or "mult_integer" in out

    def test_catalog_passes(self, capsys, ising_file):
        code, _, _ = run(capsys, "check", str(ising_file))
        assert code == 0

    def test_cauchy_count_is_no_deviation(self, capsys, tmp_path):
        # toric code with T_3 twisted by 1/12: the largest deviation is the
        # 9.014e-01 of twist_trace; the cauchy prime count 1 stays in the JSON
        toric = get_model("toric_code").modular_data
        T = toric.T.copy()
        T[3] *= phase_from_turns(Fraction(1, 12))
        path = tmp_path / "toric_twisted.json"
        save_modular_data(ModularData.from_matrices(toric.S, T, toric.labels), path)
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1
        assert "(max deviation 9.014e-01)" in out
        code, out, _ = run(capsys, "--json", "check", str(path))
        assert json.loads(out)["measurements"]["cauchy"] == 1.0

    def test_vanishing_vacuum_row_entry_is_strict_json(self, capsys, tmp_path):
        # S = 1 has S_01 = 0, so the Verlinde sum is undefined; --json must
        # still print RFC 8259 JSON, with no Infinity or NaN
        path = tmp_path / "identity_s.json"
        save_modular_data(ModularData.from_matrices(np.eye(2), [1.0, 1.0]), path)
        code, out, _ = run(capsys, "--json", "check", str(path))
        assert code == 1

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["measurements"]["verlinde_integrality"] == 1.0

    @pytest.mark.parametrize("cmd", ["check", "rmatrix"])
    def test_vanishing_twist_is_strict_json(self, capsys, tmp_path, cmd):
        # Fibonacci with T = (1, 0): w_1 = 0, so no trace is defined; the
        # report fails t_unimodular, with no Infinity or NaN and no warning
        fib = get_model("fibonacci").modular_data
        path = tmp_path / "fib_t1_zero.json"
        save_modular_data(ModularData.from_matrices(fib.S, [1.0, 0.0], fib.labels), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would raise here
            code, out, _ = run(capsys, "--json", cmd, str(path))
        assert code == 1

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["verdict"] == "fail"
        assert [d["check_id"] for d in doc["diagnostics"]] == ["t_unimodular", "st_cubed"]


class TestBrokenS:
    """Failure paths of the S-only checks and of derive's S steps: the
    verdict, check_ids, indices and messages of ``check --json`` and the
    InvalidModularData text of ``derive`` on data with a broken S, frozen
    from the per-check implementation that the one S-facts fill replaced."""

    @staticmethod
    def data(name):
        fib, semion, ising = (get_model(n).modular_data for n in ("fibonacci", "semion", "ising"))
        cycle = np.roll(np.eye(3), 1, axis=0)
        perm = np.eye(4)
        perm[1:, 1:] = cycle @ cycle  # S^2 is the 3-cycle on sectors 1, 2, 3
        bumped = ising.S.copy()
        bumped[0, 1] += 1e-3
        flip, phase = np.diag([1.0, -1.0]), np.diag([1.0, 1j])
        return {
            "non_unitary": (1.001 * fib.S, fib.T),
            "asymmetric": (bumped, ising.T),
            "column_swapped": (semion.S[:, ::-1], semion.T),
            "vanishing_s0r": ([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0]),
            "non_involutive": (perm, [1.0] * 4),
            "negative_verlinde": (flip @ fib.S @ flip, fib.T),  # N^1_{11} = -1
            "dims_below_1": ([[0.8, 0.6], [0.6, -0.8]], [1.0, 1.0]),
            "complex_s00": (1j * semion.S, semion.T),
            "negative_s00": (-semion.S, semion.T),
            "complex_dims": (phase @ semion.S @ phase, semion.T),
            "identity_s": (np.eye(2), [1.0, 1.0]),
        }[name]

    FROZEN = {
        'non_unitary': (
            'not modular: S^2 is not a conjugation (row 0 deviates by 2.001e-03)',
            [
                ('s_unitary', [[0, 0]], 'S S* deviates from identity by 2.001e-03'),
                ('charge_conjugation', [[0, 1]],
                 'S^2 is not a vacuum-fixing involutive permutation'),
                ('st_cubed', [[0, 0]], '(S T)^3 differs from S^2 by 1.002e-03 at (0,0)'),
                ('verlinde_integrality', [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0], [1, 1, 1]],
                 '5 fusion entries fail integrality/nonnegativity'),
            ]),
        'asymmetric': (
            'not modular: S^2 is not a conjugation (row 0 deviates by 7.071e-04)',
            [
                ('s_unitary', [[0, 0]], 'S S* deviates from identity by 1.415e-03'),
                ('s_symmetric', [[0, 1]], 'S is not symmetric: entry (0,1)'),
                ('charge_conjugation', [[0, 1, 2]],
                 'S^2 is not a vacuum-fixing involutive permutation'),
                ('st_cubed', [[2, 1]], '(S T)^3 differs from S^2 by 9.808e-04 at (2,1)'),
                ('verlinde_integrality', [[0, 0, 0], [0, 0, 2], [0, 2, 0], [2, 0, 0], [2, 2, 2]],
                 '5 fusion entries fail integrality/nonnegativity'),
            ]),
        'column_swapped': (
            'not modular: S^2 is not a conjugation (row 1 deviates by 2.000e+00)',
            [
                ('s_symmetric', [[0, 1]], 'S is not symmetric: entry (0,1)'),
                ('charge_conjugation', [[1, 0]],
                 'S^2 is not a vacuum-fixing involutive permutation'),
                ('st_cubed', [[1, 1]], '(S T)^3 differs from S^2 by 1.000e+00 at (1,1)'),
            ]),
        'vanishing_s0r': (
            'invalid dimension row: S_{0,0} vanishes',
            [
                ('st_cubed', [[0, 0]], '(S T)^3 differs from S^2 by 1.000e+00 at (0,0)'),
                ('verlinde_integrality', [], 'vanishing S_{0,r}: Verlinde sum undefined'),
                ('dims_row', [[0]], 'S_{0,i} must be real and > 0'),
            ]),
        'non_involutive': (
            'not modular: S^2 is not an involution fixing 0',
            [
                ('s_symmetric', [[1, 2]], 'S is not symmetric: entry (1,2)'),
                ('charge_conjugation', [[0, 3, 1, 2]],
                 'S^2 is not a vacuum-fixing involutive permutation'),
                ('st_cubed', [[1, 1]], '(S T)^3 differs from S^2 by 1.000e+00 at (1,1)'),
                ('verlinde_integrality', [], 'vanishing S_{0,r}: Verlinde sum undefined'),
                ('dims_row', [[1], [2], [3]], 'S_{0,i} must be real and > 0'),
            ]),
        'negative_verlinde': (
            'Verlinde integrality violation at (i,j,k) in [(1, 1, 1)] (max deviation 4.441e-16)',
            [
                ('verlinde_integrality', [[1, 1, 1]],
                 '1 fusion entries fail integrality/nonnegativity'),
                ('dims_row', [[1]], 'S_{0,i} must be real and > 0'),
            ]),
        'dims_below_1': (
            'Verlinde integrality violation at (i,j,k) in [(1, 1, 1)] (max deviation 4.167e-01)',
            [
                ('st_cubed', [[1, 1]], '(S T)^3 differs from S^2 by 1.800e+00 at (1,1)'),
                ('verlinde_integrality', [[1, 1, 1]],
                 '1 fusion entries fail integrality/nonnegativity'),
                ('dims_row', [[1]], 'quantum dimension below 1'),
            ]),
        'complex_s00': (
            'not modular: S^2 is not a conjugation (row 0 deviates by 2.000e+00)',
            [
                ('charge_conjugation', [[0, 1]],
                 'S^2 is not a vacuum-fixing involutive permutation'),
                ('st_cubed', [[0, 0]], '(S T)^3 differs from S^2 by 1.414e+00 at (0,0)'),
                ('dims_row', [[0], [1]], 'S_{0,i} must be real and > 0'),
            ]),
        'negative_s00': (
            'S_0,0 = (-0.7071067811865475-0j) is not real positive',
            [
                ('st_cubed', [[0, 0]], '(S T)^3 differs from S^2 by 2.000e+00 at (0,0)'),
                ('dims_row', [[0], [1]], 'S_{0,i} must be real and > 0'),
            ]),
        'complex_dims': (
            'invalid dimension row: S_0,1/S_0,0 = 1j is not real',
            [
                ('charge_conjugation', [[1, 0]],
                 'S^2 is not a vacuum-fixing involutive permutation'),
                ('st_cubed', [[0, 1]], '(S T)^3 differs from S^2 by 1.000e+00 at (0,1)'),
                ('verlinde_integrality', [[1, 1, 0]],
                 '1 fusion entries fail integrality/nonnegativity'),
                ('dims_row', [[1]], 'S_{0,i} must be real and > 0'),
            ]),
        'identity_s': (
            'Verlinde integrality violation: vanishing S_{0,r}',
            [
                ('verlinde_integrality', [], 'vanishing S_{0,r}: Verlinde sum undefined'),
                ('dims_row', [[1]], 'S_{0,i} must be real and > 0'),
            ]),
    }

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_reports_and_derive_errors_are_frozen(self, capsys, tmp_path, name):
        derive_error, diagnostics = self.FROZEN[name]
        md = ModularData.from_matrices(*self.data(name))
        with pytest.raises(InvalidModularData) as exc:
            derive(md)
        assert str(exc.value) == derive_error
        path = tmp_path / f"{name}.json"
        save_modular_data(md, path)
        code, out, _ = run(capsys, "--json", "check", str(path))
        doc = json.loads(out)
        assert (code, doc["verdict"]) == (1, "fail")
        assert [[d["check_id"], d["indices"], d["message"]]
                for d in doc["diagnostics"]] == [list(d) for d in diagnostics]


class TestFloatLimit:
    """Finite entries whose products leave the float range: S S*, S^2, the
    Verlinde sum and (S T)^3 overflow.  Each command fails with strict JSON,
    an overflowed deviation reported as the largest float, and no warning."""

    CASES = {
        # S S*, S^2 and the Verlinde sum overflow; derive fails on S^2
        "overflowing_s": (lambda: ([[1e300, 1e300], [1e300, -1e300]], [1.0, 1.0]),
                          ["s_unitary", "charge_conjugation", "st_cubed",
                           "verlinde_integrality"]),
        # the semion S with T_0 = 1e300: (S T)^3 overflows, and w_1 = 1e-300
        # leaves the traces undefined, so the trace checks are left out
        "overflowing_t0": (lambda: (get_model("semion").modular_data.S, [1e300, 1.0]),
                           ["t_unimodular", "st_cubed"]),
    }

    @pytest.mark.parametrize("cmd", ["validate", "check", "bantay", "rmatrix"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_strict_json_without_warnings(self, capsys, tmp_path, cmd, case):
        make, check_ids = self.CASES[case]
        S, T = make()
        path = tmp_path / f"{case}.json"
        save_modular_data(ModularData.from_matrices(S, T), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would raise here
            code, out, _ = run(capsys, "--json", cmd, str(path))
        assert code == 1

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["verdict"] == "fail"
        assert [d["check_id"] for d in doc["diagnostics"]] == check_ids
        assert doc["measurements"]["st_cubed"] == sys.float_info.max


class TestOutOfRangeNumbers:
    """JSON integers that no float or int64 holds, and one of more digits than
    Python converts (4,300 from Python 3.11): every command that reads them
    exits 2 with one ``error:`` line, not a traceback."""

    BIG = "1" + "0" * 400  # beyond the float range
    DIGITS = "9" * 5000  # beyond int()'s default digit limit from Python 3.11
    SEMION = '{"rank": 2, "S": [[%s, 0.7], [0.7, -0.7]], "T": [1, %s]}'
    DATA = {
        "huge_s": SEMION % (BIG, "[0, 1]"),
        "huge_t": SEMION % ("0.7", f"[{BIG}, 0]"),
        "huge_bare_t": SEMION % ("0.7", BIG),
        "huge_abs": SEMION % ("0.7", f'{{"abs": {BIG}, "arg_turns": "1/4"}}'),
        "many_digits": SEMION % (DIGITS, "[0, 1]"),
    }
    RINGS = {
        "huge_multiplicity": '{"rank": 1, "N": [[[%s]]]}' % ("1" + "0" * 30),
        "many_digits": '{"rank": 1, "N": [[[%s]]]}' % DIGITS,
    }

    @staticmethod
    def exits_two(capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2, err
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("cmd", ["validate", "check", "bantay", "rmatrix"])
    @pytest.mark.parametrize("case", sorted(DATA))
    def test_datum_exit_two(self, capsys, tmp_path, cmd, case):
        path = tmp_path / f"{case}.json"
        path.write_text(self.DATA[case])
        for flags in ((), ("--json",)):
            self.exits_two(capsys, *flags, cmd, str(path))

    @pytest.mark.parametrize("case", sorted(RINGS))
    def test_ring_exit_two(self, capsys, tmp_path, case):
        path = tmp_path / f"{case}.json"
        path.write_text(self.RINGS[case])
        self.exits_two(capsys, "search", str(path), "--out", str(tmp_path / "r"))
        assert not (tmp_path / "r").exists()

    def test_library_errors(self):
        from modata import FusionRingError
        from modata.modular_data import parse_complex

        for value in (10 ** 400, [10 ** 400, 0], [0.0, -10 ** 400],
                      {"abs": 10 ** 400, "arg_turns": "1/4"}):
            with pytest.raises(InvalidModularData, match="float range"):
                parse_complex(value)
        with pytest.raises(FusionRingError, match="out of range"):
            FusionRing(rank=1, N=[[[10 ** 30]]])


class TestSFactsFill:
    @pytest.mark.parametrize("cmd", ["check", "bantay", "rmatrix"])
    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["human", "json"])
    def test_one_fill_per_call(self, capsys, monkeypatch, ising_file, bad_ising_file,
                               cmd, flags):
        # the axiom checks, derive and the realizability pass of one call
        # read one S-facts fill, on passing and on failing data alike
        fills = []
        fill = modata.modular_data._fill_s_facts

        def counted(md, pol):
            fills.append(pol)
            return fill(md, pol)

        monkeypatch.setattr(modata.modular_data, "_fill_s_facts", counted)
        for path, want in ((ising_file, 0), (bad_ising_file, 1)):
            fills.clear()
            code, _, _ = run(capsys, *flags, cmd, str(path))
            assert code == want
            assert fills == [modata.DEFAULT_POLICY], (path.name, fills)


    def test_det_k_on_first_read(self, capsys, monkeypatch, ising_file, bad_ising_file):
        # det K is read only by the Cauchy check and the search's root
        # prune: validate, derive and the catalog load never form it, and
        # each check, bantay or rmatrix call forms it once, on passing and
        # on failing data alike
        dets = []
        det = modata.modular_data._casimir_det
        monkeypatch.setattr(modata.modular_data, "_casimir_det",
                            lambda N: dets.append(N) or det(N))
        load = modata.oracle._load_catalog_models  # a fresh catalog load
        monkeypatch.setattr(modata.oracle, "_load_catalog_models",
                            functools.lru_cache(maxsize=1)(load.__wrapped__))
        for m in catalog_models():
            modata.validate(m.modular_data)
            derive(m.modular_data)
        for path, want in ((ising_file, 0), (bad_ising_file, 1)):
            assert run(capsys, "validate", str(path))[0] == want
        assert dets == []
        for cmd in ("check", "bantay", "rmatrix"):
            for path, want in ((ising_file, 0), (bad_ising_file, 1)):
                dets.clear()
                assert run(capsys, cmd, str(path))[0] == want
                assert len(dets) == 1, (cmd, path.name)


class TestVanishingT0:
    """Fibonacci with T_0 = 0: the twists T_i/T_0 are undefined."""

    @pytest.fixture()
    def t0_zero_file(self, tmp_path):
        fib = get_model("fibonacci").modular_data
        path = tmp_path / "fib_t0_zero.json"
        save_modular_data(ModularData.from_matrices(fib.S, [0.0, fib.T[1]], fib.labels), path)
        return path

    @pytest.mark.parametrize("cmd", ["check", "rmatrix"])
    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["human", "json"])
    def test_fails_t_unimodular_without_warnings(self, capsys, t0_zero_file, cmd, flags):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would raise here
            code, out, err = run(capsys, *flags, cmd, str(t0_zero_file))
        assert code == 1
        assert "Traceback" not in err
        if flags:
            doc = json.loads(out)
            assert doc["verdict"] == "fail"
            assert [d["check_id"] for d in doc["diagnostics"]] == ["t_unimodular", "st_cubed"]
            assert all(math.isfinite(v) for v in doc["measurements"].values())
        else:
            assert "[error] t_unimodular at (0,): |T_0| = 0 is not 1" in out
            assert "derivation" not in out


class TestRmatrixCommand:
    def test_ising_blocks(self, capsys, ising_file):
        code, out, _ = run(capsys, "rmatrix", str(ising_file))
        assert code == 0
        assert "monodromy check: pass" in out

    def test_json_schema(self, capsys, ising_file):
        code, out, _ = run(capsys, "--json", "rmatrix", str(ising_file))
        doc = json.loads(out)
        assert doc["monodromy"]["verdict"] == "pass"
        forms = {b["form"] for b in doc["blocks"]}
        assert forms == {"scalar", "signed"}

    def test_not_realizable_exit_one(self, capsys, bad_ising_file):
        code, _, _ = run(capsys, "rmatrix", str(bad_ising_file))
        assert code == 1


class TestRealizabilityCommandsAgree:
    """check, bantay and rmatrix take their verdict from the same pass."""

    PRODUCTS = [("fibonacci", "z3"), ("ising", "semion"), ("toric_code", "su2_2"),
                ("conj-fibonacci", "fibonacci")]

    @pytest.fixture()
    def data_files(self, tmp_path, bad_ising_file, fs_fail_file, single_failure_data):
        files = {"bad_ising": bad_ising_file, "fs_fail": fs_fail_file}
        data = {e.name: e.modular_data for e in catalog_models()}
        for a, b in self.PRODUCTS:
            data[f"{a}*{b}"] = deligne(data[a], data[b])
        data.update(single_failure_data)
        for name, md in data.items():
            files[name] = tmp_path / f"{name.replace('*', '__')}.json"
            save_modular_data(md, files[name])
        return files

    def test_same_verdict(self, capsys, data_files):
        for name, path in data_files.items():
            codes = {cmd: run(capsys, "--json", cmd, str(path))[0]
                     for cmd in ("check", "bantay", "rmatrix")}
            assert set(codes.values()) <= {0, 1}, (name, codes)
            assert len(set(codes.values())) == 1, (name, codes)

    @pytest.mark.parametrize("cmd", ["check", "bantay", "rmatrix"])
    def test_each_stage_runs_once(self, capsys, monkeypatch, ising_file, cmd):
        import modata.bantay

        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # one stacked pass over a block of one row: the axiom checks, the
        # trace table and each realizability stage run once, the one-datum
        # validate not at all, and the report is built once; rmatrix then
        # derives the datum and builds and checks its R-blocks once, through
        # the public functions, and builds the monodromy report
        for mod, name in [(modata.cli, "validate"), (modata.cli, "derive"),
                          (modata.cli, "canonical_r"), (modata.cli, "monodromy_check"),
                          (modata.bantay, "_validate_rows"), (modata.bantay, "_trace_rows"),
                          (modata.bantay, "_trace_diagnostics"),
                          (modata.bantay, "_fs_diagnostics"),
                          (modata.bantay, "_multiplicity_diagnostics"),
                          (modata.axioms.AxiomReport, "__post_init__")]:
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        code, _, _ = run(capsys, cmd, str(ising_file))
        assert code == 0
        r_blocks = ({"derive": 1, "canonical_r": 1, "monodromy_check": 1, "__post_init__": 2}
                    if cmd == "rmatrix" else {"__post_init__": 1})
        assert calls == {"_validate_rows": 1, "_trace_rows": 1,
                         "_trace_diagnostics": 1, "_fs_diagnostics": 1,
                         "_multiplicity_diagnostics": 1, **r_blocks}

    @pytest.mark.parametrize("flags, factors", [((), [1 - 0.9e-9, 1 + 0.9e-9]),
                                                (("--tol", "0.01"), [1, 1.001])])
    def test_twists_off_the_unit_circle_within_tolerance(self, capsys, tmp_path,
                                                         flags, factors):
        # validate passes these twists, so the multiplicity pass and rmatrix's
        # square roots must take their phases instead of rejecting them
        fib = get_model("fibonacci").modular_data
        path = tmp_path / "fib_modulus.json"
        save_modular_data(ModularData.from_matrices(fib.S, fib.T * np.array(factors),
                                                    fib.labels), path)
        outs = {}
        for cmd in ("check", "bantay", "rmatrix"):
            code, out, err = run(capsys, *flags, "--json", cmd, str(path))
            assert code == 0, (cmd, err)
            outs[cmd] = json.loads(out)
        assert outs["bantay"]["nu"] == [1, 1]
        assert outs["rmatrix"]["monodromy"]["verdict"] == "pass"
        for block in outs["rmatrix"]["blocks"]:
            assert abs(abs(complex(*block["value"])) - 1.0) < 1e-12


def twisted_controls(seed=1):
    """The negative controls of the benchmark's check_products workload:
    Z_3 in the conjugate presentation, and each catalog model of rank > 1
    with one twist T_i multiplied by a seeded root of unity of order <= 12."""
    rng = random.Random(seed)
    z3 = get_model("z3").modular_data
    controls = {"z3_conjugate_presentation": ModularData.from_matrices(np.conj(z3.S), z3.T,
                                                                       z3.labels)}
    for e in catalog_models():
        md = e.modular_data
        if md.rank == 1:
            continue
        sector = rng.randrange(1, md.rank)
        q = rng.randint(2, 12)
        p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
        T = md.T.copy()
        T[sector] *= phase_from_turns(Fraction(p, q))
        controls[f"{e.name}_twisted"] = ModularData.from_matrices(md.S, T, md.labels)
    return controls


class TestOneFailingPath:
    """On failing data, bantay and rmatrix print the report check prints,
    exit 1, and in human mode name its first failing check on stderr."""

    @pytest.fixture()
    def failing_files(self, tmp_path, bad_ising_file, single_failure_data):
        data = {**twisted_controls(), **single_failure_data}
        for case, (make, _) in TestFloatLimit.CASES.items():
            data[case] = ModularData.from_matrices(*make())
        files = {"bad_ising": bad_ising_file}
        for name, md in data.items():
            files[name] = tmp_path / f"{name}.json"
            save_modular_data(md, files[name])
        return files

    def test_same_report_and_first_check(self, capsys, failing_files):
        # nine controls, the Ising control, two overflows and three single failures
        assert len(failing_files) == 15
        for name, path in failing_files.items():
            code, report, err = run(capsys, "--json", "check", str(path))
            assert (code, err) == (1, ""), name
            first = next(d["check_id"] for d in json.loads(report)["diagnostics"]
                         if d["severity"] == "error")
            _, human, _ = run(capsys, "check", str(path))
            for cmd in ("bantay", "rmatrix"):
                assert run(capsys, "--json", cmd, str(path)) == (1, report, ""), (name, cmd)
                assert run(capsys, cmd, str(path)) == (
                    1, human, f"data fails the {first} check; not realizable\n"), (name, cmd)


class TestParserReuse:
    def test_no_flag_leaks_into_the_next_call(self, capsys, tmp_path, single_failure_data):
        # z3 perturbed at 1e-10 fails at the default tolerance and passes at
        # --tol 1e-8, so a leaked --tol flips the verdict; a leaked --json or
        # --quiet changes the output
        path = tmp_path / "z3_perturbed.json"
        save_modular_data(single_failure_data["trace_conjugation"], path)
        f = str(path)
        calls = [("--tol", "1e-8", "check", f), ("check", f),
                 ("check", f, "--json"), ("check", f),
                 ("--quiet", "check", f), ("check", f),
                 ("bantay", f, "--tol", "1e-8", "--quiet"), ("bantay", f),
                 ("--json", "bantay", f, "--tol", "1e-8"), ("bantay", f, "--tol", "1e-8"),
                 ("validate", f, "--json", "--quiet"), ("validate", f)]
        fresh = []
        for argv in calls:
            modata.cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv)[:2])
        modata.cli.build_parser.cache_clear()
        assert [run(capsys, *argv)[:2] for argv in calls] == fresh
        assert modata.cli.build_parser.cache_info().misses == 1
        assert [code for code, _ in fresh] == [0, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0]


class TestCatalogCommand:
    def test_lists_at_least_nine(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert len(out.strip().splitlines()) >= 9

    def test_lookup_ising(self, capsys):
        code, out, _ = run(capsys, "catalog", "ising")
        assert code == 0
        assert "rank 3" in out and "2.000000" in out

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "catalog", "nope")
        assert code == 2
        assert err == f"error: no model named 'nope'; known: {KNOWN_MODELS}\n"

    def test_json_roundtrips_through_validate(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--json", "catalog", "fibonacci")
        assert code == 0
        path = tmp_path / "fib.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "validate", str(path))
        assert code == 0

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_pipe_exits_141_silently(self, tmp_path, unbuffered):
        # a real pipe whose reader is gone before the first write, as when
        # `modata catalog | head -3` outlives head; either stdout buffering
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
               "PYTHONPATH": str(Path(modata.__file__).resolve().parents[1])}
        err_path = tmp_path / "stderr.txt"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "modata.cli", "catalog"],
                                    stdout=subprocess.PIPE, stderr=err, env=env)
            proc.stdout.close()
            code = proc.wait(timeout=120)
        assert err_path.read_bytes() == b""
        assert code == 141


class TestOracleCommand:
    @pytest.mark.parametrize("name", ["fibonacci", "ising", "su2_2", "toric_code", "z3"])
    def test_models_match(self, capsys, name):
        code, out, _ = run(capsys, "oracle", name)
        assert code == 0
        assert "max |delta|" in out

    def test_unknown_model(self, capsys):
        code, _, err = run(capsys, "oracle", "unobtainium")
        assert code == 2
        assert err == f"error: no model named 'unobtainium'; known: {KNOWN_MODELS}\n"

    def test_json_max_delta(self, capsys):
        code, out, _ = run(capsys, "--json", "oracle", "fibonacci")
        doc = json.loads(out)
        assert doc["max_delta"] <= 1e-9


def plain(doc):
    """doc with its tuples as lists and its encoded texts decoded, as
    json.loads returns it."""
    if isinstance(doc, _Encoded):
        return json.loads(doc)
    if isinstance(doc, dict):
        return {k: plain(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [plain(v) for v in doc]
    return doc


class TestJsonOutput:
    """Every --json document is one line of JSON: the document the command built."""

    @pytest.mark.parametrize("argv", [
        ("check", "{ising}"),
        ("check", "{bad}"),
        ("bantay", "{ising}"),
        ("rmatrix", "{ising}"),
        ("catalog",),
        ("catalog", "fibonacci"),
        ("search", "{ring}", "--max-order", "16", "--out", "{out}"),
    ])
    def test_one_line_equal_to_the_built_document(self, capsys, monkeypatch, tmp_path,
                                                  rings_dir, ising_file, bad_ising_file,
                                                  argv):
        built = []

        def spy(doc, target, write=modata.cli._write_json):
            built.append(doc)
            write(doc, target)

        monkeypatch.setattr(modata.cli, "_write_json", spy)
        paths = {"ising": ising_file, "bad": bad_ising_file,
                 "ring": rings_dir / "ising_ring.json", "out": tmp_path / "r"}
        code, out, err = run(capsys, "--json", *(a.format(**paths) for a in argv))
        assert code == (1 if "{bad}" in argv else 0), err
        assert out.count("\n") == 1 and out.endswith("\n")
        assert len(built) == 1
        doc = json.loads(out)
        assert doc == plain(built[0])
        assert out == json.dumps(plain(built[0])) + "\n"
        if argv[0] == "search":
            assert doc["result_count"] == 24
            # each result's data is placed as the text its file holds
            for res in built[0]["results"]:
                assert isinstance(res["data"], _Encoded)
                assert Path(res["file"]).read_text() == res["data"] + "\n"


def reference_search_doc(fr, max_order, out_dir):
    """The ``search --json`` document built as one dict, each result's data
    as ``to_json_dict``; ``json.dumps`` of it is the expected output."""
    stats: dict = {}
    results = search_pipeline(fr, max_order=max_order, stats_out=stats)
    return {
        "rank": fr.rank,
        "max_order": max_order,
        "results": [{"provenance": list(res.provenance),
                     "file": str(out_dir / f"result_{idx:03d}.json"),
                     "data": res.md.to_json_dict()}
                    for idx, res in enumerate(results)],
        "result_count": len(results),
        "family_count": len({res.provenance[:2] for res in results}),
        "stats": stats,
    }


class TestSearchJsonText:
    """``search --json`` prints, and writes to each result file, the text
    json.dumps makes of the document built the plain way."""

    @pytest.mark.parametrize("factors, max_order, s_candidates", [
        (("toric_code",), 8, 4),
        (("fibonacci", "z3"), 15, 2),
    ], ids=["toric_code", "fibonacci_z3"])
    def test_equal_to_json_dumps_of_the_reference(self, capsys, tmp_path, factors,
                                                  max_order, s_candidates):
        rings = [FusionRing(rank=md.rank, N=verlinde_fusion(md))
                 for md in (get_model(name).modular_data for name in factors)]
        fr = functools.reduce(deligne, rings)
        ring, out_dir = tmp_path / "ring.json", tmp_path / "results"
        save_fusion_ring(fr, ring)
        code, out, _ = run(capsys, "--json", "search", str(ring),
                           "--max-order", str(max_order), "--out", str(out_dir))
        assert code == 0
        ref = reference_search_doc(fr, max_order, out_dir)
        assert ref["stats"]["s_candidates"] == s_candidates
        assert out == json.dumps(ref) + "\n"
        for res in ref["results"]:
            assert Path(res["file"]).read_text() == json.dumps(res["data"]) + "\n"


class TestSearchCommand:
    def test_fibonacci_ring_files(self, capsys, tmp_path, rings_dir):
        out_dir = tmp_path / "results"
        code, out, _ = run(capsys, "search", str(rings_dir / "fibonacci_ring.json"),
                           "--max-order", "10", "--out", str(out_dir))
        assert code == 0
        files = sorted(out_dir.glob("*.json"))
        assert len(files) == 6
        # 32 roots of order <= 10; det K = 5 admits the 5 of order 1 or 5, and
        # the balancing equations leave 2 to cube; the nominal skip counts
        # stay in --json only
        assert ("(1 S candidate(s); 2 twist assignments cubed, the others pruned by the "
                "Cauchy theorem and the balancing equations; 6 T candidates filtered)") in out
        assert "skipped" not in out

    def test_earlier_results_are_deleted(self, capsys, tmp_path, rings_dir):
        out_dir = tmp_path / "results"
        run(capsys, "search", str(rings_dir / "ising_ring.json"),
            "--max-order", "16", "--out", str(out_dir))
        assert len(list(out_dir.glob("result_*.json"))) == 24
        (out_dir / "notes.txt").write_text("kept")
        (out_dir / "result_7.json").write_text("kept")  # not a name search writes
        code, out, _ = run(capsys, "search", str(rings_dir / "fibonacci_ring.json"),
                           "--max-order", "10", "--out", str(out_dir))
        assert code == 0
        assert out.startswith("6 admissible data")
        assert sorted(p.name for p in out_dir.glob("result_*.json")) == (
            [f"result_{i:03d}.json" for i in range(6)] + ["result_7.json"])
        assert all(load_modular_data(out_dir / f"result_{i:03d}.json").rank == 2
                   for i in range(6))
        assert (out_dir / "notes.txt").read_text() == "kept"

    @pytest.mark.parametrize("out", [".", ""], ids=["dot", "empty"])
    def test_out_in_the_working_directory(self, capsys, tmp_path, monkeypatch, rings_dir,
                                          out):
        # the stale-result sweep must keep what this search wrote, and the
        # printed paths are str(Path(out) / name)
        monkeypatch.chdir(tmp_path)
        ring = rings_dir / "fibonacci_ring.json"
        code, out_json, _ = run(capsys, "--json", "search", str(ring),
                                "--max-order", "10", "--out", out)
        assert code == 0
        ref = reference_search_doc(load_fusion_ring(ring), 10, Path(out))
        assert out_json == json.dumps(ref) + "\n"
        assert sorted(p.name for p in tmp_path.glob("result_*.json")) == [
            f"result_{i:03d}.json" for i in range(6)]
        for res in ref["results"]:
            assert res["file"].startswith("result_")
            assert Path(res["file"]).read_text() == json.dumps(res["data"]) + "\n"
        code, out_text, _ = run(capsys, "search", str(ring), "--max-order", "10",
                                "--out", out)
        assert code == 0
        assert out_text.splitlines()[2].endswith("-> result_000.json")
        assert len(list(tmp_path.glob("result_*.json"))) == 6

    def test_result_files_validate(self, capsys, tmp_path, rings_dir):
        out_dir = tmp_path / "results"
        run(capsys, "search", str(rings_dir / "fibonacci_ring.json"),
            "--max-order", "10", "--out", str(out_dir))
        for f in sorted(out_dir.glob("*.json")):
            code, _, _ = run(capsys, "validate", str(f))
            assert code == 0, f

    @pytest.mark.parametrize("cmd, text", [
        ("search", '{"rank": "2", "N": [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]}'),
        ("validate", '{"rank": 2, "labels": "ab", "S": [[1, 0], [0, 1]], "T": [1, 1]}'),
    ])
    def test_malformed_rank_or_labels_exit_two(self, capsys, tmp_path, cmd, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        args = ("--out", str(tmp_path / "r")) if cmd == "search" else ()
        code, out, err = run(capsys, cmd, str(path), *args)
        assert code == 2
        assert out == ""
        assert "must be" in err

    @pytest.mark.parametrize("cmd", ["validate", "search"])
    @pytest.mark.parametrize("data, msg", [
        (b"\xff\xfe{}", "not UTF-8 text"),
        (b"[" * 100_000 + b"]" * 100_000, "malformed JSON"),
    ], ids=["not-utf8", "nested-100000-deep"])
    def test_unreadable_bytes_exit_two(self, capsys, tmp_path, cmd, data, msg):
        # a decode error and a RecursionError from the JSON decoder are
        # parse failures, not tracebacks
        path = tmp_path / "input.json"
        path.write_bytes(data)
        args = ("--out", str(tmp_path / "r")) if cmd == "search" else ()
        code, out, err = run(capsys, cmd, str(path), *args)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {msg}")

    def test_rank_above_search_bound_exit_two(self, capsys, tmp_path):
        # pointed Z_13, one rank above the search bound of 12
        n = 13
        ring = tmp_path / "z13.json"
        N = [[[int((a + b) % n == c) for c in range(n)] for b in range(n)] for a in range(n)]
        ring.write_text(json.dumps({"rank": n, "N": N}))
        code, out, err = run(capsys, "search", str(ring), "--out", str(tmp_path / "r"))
        assert code == 2
        assert out == ""
        assert "exceeds the search bound 12" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("N, msg", [
        ([[[1, 0], [0, 1]]], "N must be rank^3 = (2, 2, 2), got (1, 2, 2)"),
        ([[[1, 0], [0, 1]], [[0, 1], [1, -1]]], "fusion multiplicities must be nonnegative"),
        ([[[1, 0], [0, 1]], [[0, 1], [0, 1]]], "vacuum row N^0 is not a permutation"),
    ], ids=["shape", "negative", "vacuum-row"])
    def test_malformed_ring_exit_two(self, capsys, tmp_path, N, msg):
        ring = tmp_path / "ring.json"
        ring.write_text(json.dumps({"rank": 2, "N": N}))
        code, out, err = run(capsys, "search", str(ring), "--out", str(tmp_path / "r"))
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: {msg}"]

    def test_non_integer_multiplicity_exit_two(self, capsys, tmp_path):
        ring = tmp_path / "ring.json"
        ring.write_text('{"rank": 2, "N": [[[1, 0], [0, 1]], [[0, 1], [1, 1.7]]]}')
        code, out, err = run(capsys, "search", str(ring), "--out", str(tmp_path / "r"))
        assert code == 2
        assert out == ""
        assert "must be integers" in err

    def test_json_reports_counts(self, capsys, tmp_path, rings_dir):
        code, out, _ = run(capsys, "--json", "search",
                           str(rings_dir / "ising_ring.json"),
                           "--max-order", "16", "--out", str(tmp_path / "r"))
        doc = json.loads(out)
        assert doc["result_count"] == 24
        assert doc["family_count"] == 8

    def test_loose_tolerance_high_order_fibonacci(self, capsys, tmp_path, rings_dir):
        # the relation test and the cube-root lift run at one policy, the
        # default, so a loose --tol neither breaks the lift nor loses the data
        code, out, err = run(capsys, "--json", "--tol", "0.01", "search",
                             str(rings_dir / "fibonacci_ring.json"), "--max-order", "40",
                             "--out", str(tmp_path / "r"))
        assert code == 0, err
        fib = get_model("fibonacci").modular_data
        assert any(load_modular_data(r["file"]).approx_eq(fib)
                   for r in json.loads(out)["results"])

    def test_loose_policy_su2_5(self, capsys, tmp_path):
        # the twist walk runs at the default tolerances under any --tol, so a
        # loose policy cubes the default's 4 rows on the SU(2)_5 ring and
        # finds its 12 data
        ring = tmp_path / "su2_5_ring.json"
        save_fusion_ring(su2_ring(5), ring)
        code, out, err = run(capsys, "--tol", "0.05", "--int-tol", "0.05", "--json", "search",
                             str(ring), "--max-order", "28", "--out", str(tmp_path / "r"))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["result_count"], doc["stats"]["rows_cubed"]) == (12, 4)

    @pytest.mark.parametrize("q", ["0", "-3"])
    def test_max_order_below_one_exit_two(self, capsys, tmp_path, rings_dir, q):
        code, out, err = run(capsys, "search", str(rings_dir / "fibonacci_ring.json"),
                             "--max-order", q, "--out", str(tmp_path / "r"))
        assert code == 2
        assert out == ""
        assert "--max-order" in err
        assert not (tmp_path / "r").exists()

    def test_max_order_above_bound_exit_two(self, capsys, tmp_path, rings_dir):
        # the root table would grow as q^2; refused before the ring is read
        q = MAX_SEARCH_ORDER + 1
        code, out, err = run(capsys, "search", str(rings_dir / "fibonacci_ring.json"),
                             "--max-order", str(q), "--out", str(tmp_path / "r"))
        assert (code, out) == (2, "")
        assert err == f"error: --max-order must be between 1 and {MAX_SEARCH_ORDER}, got {q}\n"
        assert not (tmp_path / "r").exists()
