"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Runs in seconds.  It checks that the frozen references hold on this checkout
for a small slice of every workload (Fibonacci q=10 and the toric ring; a few
model and product files and every negative control), that the checker
rejects wrong answers, that the tracer counts assignments, candidates and
reports and puts every binding back, and that BENCHMARK.json names exactly
the metrics the runner prints.  Exits 0 when all hold.
"""
from __future__ import annotations

import json
import sys

import run
import tracer as tr
import workloads as wl

# frozen counts: (result_count, family_count)
FROZEN_COUNTS = {
    "search fibonacci q=10": (6, 2),
    "search ising q=32": (24, 8),
    "search toric_code q=8": (48, 16),
    "search fibonacci_z3 q=15": (12, 4),
}
CHECK_SLICE = ("models/fibonacci", "models/z3", "products/fibonacci__ising",
               "products/semion__toric_code", "controls/")


def ops_for(modata, workload, keep):
    return [op for op in wl.make_ops(modata, workload, seed=7) if keep(op.key)]


def expect_pass(modata, workload, ops) -> None:
    check = wl.Checker(modata, workload)
    for op in ops:
        code, stdout, _, _, error = run.run_op(modata.cli, op)
        reason = error or check(op, code, stdout)
        assert reason is None, reason


def test_references(modata) -> None:
    refs = {}
    for workload in wl.WORKLOADS:
        refs.update(json.loads(wl.reference_path(workload).read_text(encoding="utf-8")))
    for key, (results, families) in FROZEN_COUNTS.items():
        out = refs[key]["stdout"]
        assert (out["result_count"], out["family_count"]) == (results, families), key
    # the rank-6 results include the Deligne product Fibonacci x Z_3 itself
    models = {m.name: m.modular_data for m in modata.oracle.catalog_models()}
    product = wl.product_data(modata, models["fibonacci"], models["z3"])
    want = product.to_json_dict()
    assert any(wl.mismatch({"S": want["S"], "T": want["T"]}, r["data"]) is None
               for r in refs["search fibonacci_z3 q=15"]["stdout"]["results"])


def test_slices(modata) -> None:
    expect_pass(modata, "search_catalog_rings", ops_for(
        modata, "search_catalog_rings", lambda k: "ising" not in k))
    expect_pass(modata, "check_products", ops_for(
        modata, "check_products", lambda k: any(s in k for s in CHECK_SLICE)))


def test_checker_rejects(modata) -> None:
    check = wl.Checker(modata, "check_products")
    ops = {op.key: op for op in wl.make_ops(modata, "check_products", seed=7)}
    op = ops["bantay products/fibonacci__ising"]
    code, stdout, _, _, _ = run.run_op(modata.cli, op)
    doc = json.loads(stdout)
    doc["tau"][1][1][0] += 1e-6
    assert check(op, code, json.dumps(doc)) is not None, "frozen reference missed 1e-6"
    assert check._brute_traces(op, doc) is not None, "brute-force oracle missed 1e-6"
    assert check(op, 1, stdout) is not None, "wrong exit code accepted"
    negative = ops["check controls/z3_conjugate_presentation"]
    code, stdout, _, _, _ = run.run_op(modata.cli, negative)
    assert check(negative, code, stdout) is None
    assert check(negative, 0, stdout) is not None, "negative control passing accepted"


def test_tracer(modata) -> None:
    original = modata.search.enumerate_t
    tracer = tr.Tracer(modata)
    op = ops_for(modata, "search_catalog_rings", lambda k: "fibonacci" in k)[0]
    tracer.install()
    try:
        assert modata.search.enumerate_t is not original
        code, _, _, _, error = run.run_op(modata.cli, op)
    finally:
        tracer.uninstall()
    assert code == 0 and error is None
    assert modata.search.enumerate_t is original, "binding not restored"
    m = tr.layer_metrics(tracer.spans, output_bytes=1)
    # one twist orbit, 32 roots of order <= 10; 2 assignments pass, 3 lifts each
    assert m["search.enumerate_t.assignments_tried"] == 32, m
    assert m["search.enumerate_t.assignments_kept"] == 2, m
    assert m["search.t_candidates"] == 6 and m["search.candidate_s.s_candidates"] == 1, m
    assert m["search.admissible_ratio"] == 1.0 and m["search.duplicates_dropped"] == 0, m
    assert m["bantay.realizability_report.calls"] == 6, m
    roots = [sp for sp in tracer.spans if sp[3] == -1]
    assert [sp[0] for sp in roots] == ["cli.main"], roots
    produced = set(m) | {"oracle.catalog_models.busy_s", "bench.trace_overhead"}
    assert produced == set(run.per_layer_units()), produced ^ set(run.per_layer_units())


def main() -> int:
    modata = wl.load_program()
    for test in (test_references, test_slices, test_checker_rejects, test_tracer):
        test(modata)
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
