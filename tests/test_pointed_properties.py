"""Property tests over the generated pointed family build_pointed_model(n, p).

Every nondegenerate quadratic form on Z_n (n <= 5) must give data that
passes the realizability report, whose formula traces match the literal
braiding scalars, and which the ring search finds again from Z_n fusion.
"""
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from modata import (
    FusionRing,
    brute_trace,
    build_pointed_model,
    derive,
    realizability_report,
    search_pipeline,
    trace_table,
)


@st.composite
def pointed_params(draw):
    """(n, p) with 1 <= n <= 5 and gcd(c, n) = 1, c the exponent the builder uses."""
    n = draw(st.integers(min_value=1, max_value=5))
    # p and p + 2n give the same model, so one period covers the family
    p = draw(st.integers(min_value=0, max_value=2 * n - 1).filter(
        lambda p: math.gcd(p if n % 2 == 0 else 2 * p, n) == 1))
    return n, p


@settings(max_examples=20, deadline=None)
@given(pointed_params())
def test_pointed_model_is_realizable(params):
    md = build_pointed_model(*params).modular_data
    rep = realizability_report(md)
    assert rep.passed, [d.check_id for d in rep.errors()]
    assert rep.measurements["cauchy"] == 0.0
    assert not [d for d in rep.diagnostics if d.check_id == "cauchy"], params


@settings(max_examples=20, deadline=None)
@given(pointed_params())
def test_pointed_traces_match_brute_force(params):
    model = build_pointed_model(*params)
    md = model.modular_data
    tau = trace_table(md, derive(md))
    for i in range(md.rank):
        for k in range(md.rank):
            assert abs(tau[k, i] - brute_trace(model, i, k)) <= 1e-9, (params, i, k)


@settings(max_examples=20, deadline=None)
@given(pointed_params())
def test_search_recovers_pointed_model(params):
    n, _ = params
    model = build_pointed_model(*params)
    # twists are (2n)-th roots of unity
    results = search_pipeline(FusionRing(rank=n, N=model.fusion), max_order=2 * n)
    assert any(r.md.approx_eq(model.modular_data) for r in results), params
