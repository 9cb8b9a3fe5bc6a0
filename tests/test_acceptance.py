"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion,
or ``-s`` to see the explicit ACCEPTANCE lines.  Tolerances are pinned in
the assertions, not configurable.
"""
import json
import time

import numpy as np
import pytest

from modata import (
    brute_trace,
    canonical_r,
    catalog_models,
    derive,
    eigen_multiplicities,
    fs_indicators,
    get_model,
    monodromy_check,
    principal_sqrt,
    realizability_report,
    trace_table,
    validate,
)
from modata.bantay import _fs_sums
from modata.cli import main
from modata.oracle import catalog_models
from modata.search import FusionRing, search_pipeline


def note(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


@pytest.fixture(scope="module")
def fib_results():
    md = get_model("fibonacci").modular_data
    from modata import verlinde_fusion

    fr = FusionRing(rank=md.rank, N=verlinde_fusion(md))
    t0 = time.perf_counter()
    res = search_pipeline(fr, max_order=10)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ising_results():
    md = get_model("ising").modular_data
    from modata import verlinde_fusion

    fr = FusionRing(rank=md.rank, N=verlinde_fusion(md))
    t0 = time.perf_counter()
    res = search_pipeline(fr, max_order=16)
    return res, time.perf_counter() - t0


def test_criterion_01_axiom_suite_all_entries_below_1e10():
    entries = catalog_models()
    assert len(entries) >= 9
    t0 = time.perf_counter()
    worst = 0.0
    for e in entries:
        report = validate(e.modular_data)
        assert report.verdict == "pass", e.name
        worst = max(worst, report.max_deviation)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10, worst
    assert elapsed < 1.0, elapsed
    note(1, f"{len(entries)} catalog entries validate, max deviation "
            f"{worst:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_02_oracle_equivalence_every_model_every_channel():
    worst = 0.0
    n_channels = 0
    for m in catalog_models():
        dd = derive(m.modular_data)
        tau = trace_table(m.modular_data, dd)
        for i in range(m.rank):
            for k in range(m.rank):
                delta = abs(tau[k, i] - brute_trace(m, i, k))
                worst = max(worst, delta)
                n_channels += 1
    assert worst <= 1e-9, worst
    note(2, f"definition vs formula on {n_channels} channels across "
            f"{len(catalog_models())} models, max |delta| {worst:.2e}")


def test_criterion_03_fs_indicator_fixtures():
    fixtures = {
        "ising": ("sigma", 1, 1),
        "su2_2": ("sigma", 1, -1),
        "fibonacci": ("tau", 1, 1),
        "semion": ("s", 1, -1),
    }
    for name, (label, idx, expected) in fixtures.items():
        md = get_model(name).modular_data
        dd = derive(md)
        nu = fs_indicators(md, dd, trace_table(md, dd))
        assert nu[idx] == expected, (name, nu)
        assert md.labels[idx] == label
    z3 = get_model("z3").modular_data
    dd = derive(z3)
    nu = fs_indicators(z3, dd, trace_table(z3, dd))
    assert nu.tolist() == [1, 0, 0]
    note(3, "nu_sigma(ising)=+1, nu_sigma(su2_2)=-1, nu_tau(fibonacci)=+1, "
            "nu(semion)=-1, nu(z3 non-self-dual)=0")


def test_criterion_04_fs_routes_agree_on_catalog_and_search_outputs(
        fib_results, ising_results):
    data = [e.modular_data for e in catalog_models()]
    data += [r.md for r in fib_results[0]]
    data += [r.md for r in ising_results[0]]
    worst = 0.0
    for md in data:
        dd = derive(md)
        tau = trace_table(md, dd)
        via_sum = _fs_sums(md.S[:, 0], dd.fusion, dd.twists)
        gap = np.max(np.abs(dd.twists * tau[0, :] - via_sum))
        worst = max(worst, float(gap))
    assert worst <= 1e-9, worst
    note(4, f"both FS routes agree on {len(data)} data sets, max gap {worst:.2e}")


def test_criterion_05_trace_conjugation_symmetry():
    worst = 0.0
    for e in catalog_models():
        dd = derive(e.modular_data)
        tau = trace_table(e.modular_data, dd)
        conj = dd.conj
        dev = float(np.max(np.abs(tau - tau[np.ix_(conj, conj)])))
        worst = max(worst, dev)
    assert worst <= 1e-9, worst
    note(5, f"tau[k][i] = tau[kbar][ibar] on all entries, max deviation {worst:.2e}")


def test_criterion_06_realizability_constraints_and_branch_invariance(other_branch):
    for e in catalog_models():
        dd = derive(e.modular_data)
        tau = trace_table(e.modular_data, dd)
        n = e.modular_data.rank
        for k in range(n):
            for i in range(n):
                m = int(dd.fusion[i, i, k])
                t = dd.twists[i] / principal_sqrt(dd.twists[k]) * tau[k, i]
                if m == 0:
                    assert abs(t) <= 1e-9, (e.name, k, i)
                    continue
                assert abs(t.imag) <= 1e-9, (e.name, k, i)
                ti = round(t.real)
                assert abs(t.real - ti) <= 1e-9, (e.name, k, i)
                assert abs(ti) <= m and (ti - m) % 2 == 0, (e.name, k, i)
        m_plus, m_minus = eigen_multiplicities(dd, tau)
        assert np.all(m_plus >= 0) and np.all(m_minus >= 0)
        diag_n = np.array([[dd.fusion[i, i, k] for i in range(n)] for k in range(n)])
        assert np.array_equal(m_plus + m_minus, diag_n)
        # verdict invariant under the square-root branch swap
        assert realizability_report(e.modular_data).verdict == "pass"
        with other_branch():
            assert realizability_report(e.modular_data).verdict == "pass"
            _, flipped_minus = eigen_multiplicities(dd, tau)
        assert np.array_equal(m_plus, flipped_minus)
    note(6, "t real-integral with range and parity, m+/m- >= 0 summing to "
            "N^k_ii, verdict branch-invariant on all entries")


def test_criterion_07_negative_control_fails_cmd_check(tmp_path, capsys):
    from modata import save_modular_data

    path = tmp_path / "ising.json"
    save_modular_data(get_model("ising").modular_data, path, exact_t=True)
    doc = json.loads(path.read_text())
    doc["T"][1] = {"abs": 1.0, "arg_turns": "1/8"}  # T_sigma -> e^{i pi/4}
    bad = tmp_path / "ising_bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["--json", "check", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    report = json.loads(out)
    ids = {d["check_id"] for d in report["diagnostics"] if d["severity"] == "error"}
    assert ids & {"st_cubed", "mult_integer", "mult_real", "mult_parity", "mult_range"}
    note(7, f"ising with T_sigma = e^(i pi/4) exits 1 with diagnostics {sorted(ids)}")


def test_criterion_08_canonical_r_monodromy_and_signed_traces():
    worst = 0.0
    for e in catalog_models():
        dd = derive(e.modular_data)
        tau = trace_table(e.modular_data, dd)
        blocks = canonical_r(dd, *eigen_multiplicities(dd, tau))
        report = monodromy_check(blocks, dd)
        assert report.verdict == "pass", e.name
        signed = blocks.I == blocks.J
        K, I = blocks.K[signed], blocks.I[signed]
        trace = blocks.values[signed] * (blocks.dim_plus[signed] - blocks.dim_minus[signed])
        dev = float(np.abs(trace - tau[K, I]).max())
        worst = max(worst, dev)
        assert dev <= 1e-9, e.name
    note(8, f"monodromy passes and signed-block traces reproduce tau, "
            f"max deviation {worst:.2e}")


def test_criterion_09_search_regression(fib_results, ising_results):
    cat = {e.name: e.modular_data for e in catalog_models()}
    fib, fib_time = fib_results
    assert any(r.md.approx_eq(cat["fibonacci"]) for r in fib)
    assert any(r.md.approx_eq(cat["conj-fibonacci"]) for r in fib)
    isg, ising_time = ising_results
    assert any(r.md.approx_eq(cat["ising"]) for r in isg)
    assert any(r.md.approx_eq(cat["su2_2"]) for r in isg)
    families = {r.provenance[:2] for r in isg}
    # frozen regression from an exhaustive run: 8 twist families, each with
    # its three central-charge lifts
    assert len(families) == 8
    assert len(isg) == 24
    assert fib_time + ising_time < 10.0
    note(9, f"fibonacci ring -> catalog entry + conjugate ({fib_time:.2f}s); "
            f"ising ring -> ising + su2_2, 8 families / 24 data "
            f"({ising_time:.2f}s)")


def test_criterion_10_search_determinism_repeated_runs(tmp_path, capsys, rings_dir):
    ring = str(rings_dir / "ising_ring.json")
    code1 = main(["--json", "search", ring, "--max-order", "16",
                  "--out", str(tmp_path / "a")])
    out1 = capsys.readouterr().out
    code2 = main(["--json", "search", ring, "--max-order", "16",
                  "--out", str(tmp_path / "b")])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    canon1 = out1.replace(str(tmp_path / "a"), "OUT")
    canon2 = out2.replace(str(tmp_path / "b"), "OUT")
    assert canon1.encode() == canon2.encode()
    bytes_a = [p.read_bytes() for p in sorted((tmp_path / "a").glob("*.json"))]
    bytes_b = [p.read_bytes() for p in sorted((tmp_path / "b").glob("*.json"))]
    assert bytes_a == bytes_b and len(bytes_a) == 24
    note(10, "two identical searches emit byte-identical JSON and result files")
