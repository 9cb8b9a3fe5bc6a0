import dataclasses
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from modata import (
    ModularData,
    canonical_r,
    deligne,
    derive,
    eigen_multiplicities,
    get_model,
    monodromy_check,
    trace_table,
)
from modata.axioms import CHECKS
from modata.numerics import phase_from_turns

TRIVIAL = ModularData.from_matrices([[1.0]], [1.0])


def turn(p, q):
    return phase_from_turns(Fraction(p, q))


def full_pipeline(md):
    dd = derive(md)
    tau = trace_table(md, dd)
    return dd, tau, canonical_r(dd, *eigen_multiplicities(dd, tau))


def by_channel(blocks):
    """(i, j, k) -> (value, size, dim_plus, dim_minus) of each block."""
    return {(i, j, k): rest for i, j, k, *rest in blocks}


def signed_traces(blocks):
    """Channels (K, I) and traces value * (dim_plus - dim_minus) of the signed blocks."""
    signed = blocks.I == blocks.J
    trace = blocks.values * (blocks.dim_plus - blocks.dim_minus)
    return blocks.K[signed], blocks.I[signed], trace[signed]


class TestCanonicalR:
    def test_trivial_single_signed_identity(self):
        _, _, blocks = full_pipeline(TRIVIAL)
        assert len(blocks) == 1
        value, size, plus, minus = by_channel(blocks)[0, 0, 0]
        assert abs(value - 1.0) < 1e-12
        assert (size, plus, minus) == (0, 1, 0)

    def test_ising_sigma_psi_channel_is_i(self):
        md = get_model("ising").modular_data
        _, _, blocks = full_pipeline(md)
        by = by_channel(blocks)
        value, size, _, _ = by[1, 2, 1]
        # w_sigma/(w_sigma w_psi) = -1 and principal sqrt(-1) = i
        assert size == 1
        assert abs(value - 1j) < 1e-12
        assert abs(by[2, 1, 1][0] - 1j) < 1e-12

    def test_fibonacci_tau_tau_tau_block(self):
        md = get_model("fibonacci").modular_data
        _, _, blocks = full_pipeline(md)
        value, size, plus, minus = by_channel(blocks)[1, 1, 1]
        assert abs(value - turn(-1, 5)) < 1e-12  # w_tau^{-1} sqrt(w_tau)
        assert (size, plus, minus) == (0, 0, 1)
        # the operator is -e^{-2 pi i/5} = e^{3 pi i/5}, the oracle scalar
        assert abs(value * (plus - minus) - turn(3, 10)) < 1e-12

    def test_one_block_per_nonzero_channel(self, entries):
        # in the row-major order of N's support: the JSON block order is output
        for e in entries:
            dd, _, blocks = full_pipeline(e.modular_data)
            n = e.modular_data.rank
            want = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
                    if dd.fusion[i, j, k] > 0]
            assert len(blocks) == len(want), e.name
            assert [(i, j, k) for i, j, k, *_ in blocks] == want, e.name

    def test_arrays_are_read_only(self):
        _, _, blocks = full_pipeline(get_model("ising").modular_data)
        for a in (blocks.I, blocks.J, blocks.K, blocks.values, blocks.size,
                  blocks.dim_plus, blocks.dim_minus):
            assert len(a) == len(blocks)
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_mismatched_multiplicities_rejected(self):
        md = get_model("ising").modular_data
        dd = derive(md)
        m_plus, m_minus = eigen_multiplicities(dd, trace_table(md, dd))
        other = get_model("fibonacci").modular_data
        dd_f = derive(other)
        with pytest.raises(ValueError, match="not realizable"):
            canonical_r(dd_f, m_plus, m_minus)

    def test_scalar_value_squares_to_monodromy(self, entries):
        for e in entries:
            dd, _, blocks = full_pipeline(e.modular_data)
            w, scalar = dd.twists, blocks.I != blocks.J
            I, J, K = blocks.I[scalar], blocks.J[scalar], blocks.K[scalar]
            dev = np.abs(blocks.values[scalar] ** 2 - w[K] / (w[I] * w[J]))
            assert dev.max(initial=0.0) <= 1e-9, e.name

    def test_signed_value_and_trace(self, entries):
        # value^2 = w_k/w_i^2 and trace ties back to the trace table
        for e in entries:
            dd, tau, blocks = full_pipeline(e.modular_data)
            w, signed = dd.twists, blocks.I == blocks.J
            K, I, trace = signed_traces(blocks)
            assert np.abs(blocks.values[signed] ** 2 - w[K] / w[I] ** 2).max() <= 1e-9, e.name
            assert np.abs(trace - tau[K, I]).max() <= 1e-9, e.name

    def test_blocks_are_unitary(self, entries):
        # each block is its value times a diagonal of signs: unitary exactly
        # when the value is a phase and the block has a dimension
        for e in entries:
            _, _, blocks = full_pipeline(e.modular_data)
            assert np.abs(np.abs(blocks.values) - 1.0).max() < 1e-9, e.name
            assert (blocks.size + blocks.dim_plus + blocks.dim_minus >= 1).all(), e.name

    def test_encoded_blocks_equal_json_dumps_of_the_dicts(self, entries):
        # rmatrix --json writes the blocks' text straight from the arrays; it
        # is json.dumps of these dicts, byte for byte
        for a, b in [(x, y) for x in entries for y in entries][::7]:
            _, _, blocks = full_pipeline(deligne(a.modular_data, b.modular_data))
            rows = zip(*(x.tolist() for x in (blocks.I, blocks.J, blocks.K, blocks.values,
                                              blocks.size, blocks.dim_plus, blocks.dim_minus)))
            want = json.dumps([
                {"channel": [i, j, k], "form": "scalar", "value": [v.real, v.imag], "size": size}
                if i != j else
                {"channel": [i, j, k], "form": "signed", "value": [v.real, v.imag],
                 "dim_plus": plus, "dim_minus": minus}
                for i, j, k, v, size, plus, minus in rows])
            assert blocks.encode() == want, (a.name, b.name)

    def test_serialization_schema(self):
        md = get_model("ising").modular_data
        _, _, blocks = full_pipeline(md)
        docs = json.loads(blocks.encode())
        assert len(docs) == len(blocks)
        for d in docs:
            assert d["form"] in ("scalar", "signed")
            assert len(d["channel"]) == 3 and len(d["value"]) == 2
            assert ("size" in d) == (d["form"] == "scalar")


class TestAgainstOracle:
    def test_blocks_match_r_scalars_at_product_ranks(self, models):
        # not true by construction: the blocks come from S and T alone, the
        # r scalars from the explicit models
        products = list(models) + [deligne(a, b) for a, b in
                                   itertools.combinations_with_replacement(models, 2)]
        assert len(products) == 9 + 45
        for m in products:
            r = m.r_scalars
            _, _, blocks = full_pipeline(m.modular_data)
            assert len(blocks) == len(r), m.name
            for i, j, k, value, _, plus, minus in blocks:
                if i == j:
                    assert plus + minus == 1, m.name
                    sign = 1 if plus else -1
                    assert abs(value * sign - r[i, i, k]) <= 1e-9, (m.name, (i, j, k))
                else:
                    assert abs(value ** 2 - r[i, j, k] * r[j, i, k]) <= 1e-9, (m.name, (i, j, k))


class TestMonodromyCheck:
    def test_catalog_passes(self, entries):
        for e in entries:
            dd, _, blocks = full_pipeline(e.modular_data)
            report = monodromy_check(blocks, dd)
            assert report.verdict == "pass", e.name
            assert report.max_deviation < 1e-9

    def test_trivial_passes(self):
        dd, _, blocks = full_pipeline(TRIVIAL)
        assert monodromy_check(blocks, dd).verdict == "pass"

    def test_corrupted_scalar_block_caught(self):
        md = get_model("ising").modular_data
        dd, _, blocks = full_pipeline(md)
        values = blocks.values.copy()
        values[[(i, j, k) for i, j, k, *_ in blocks].index((1, 2, 1))] *= -1
        report = monodromy_check(dataclasses.replace(blocks, values=values), dd)
        assert report.verdict == "fail"
        flagged = {d.indices[0] for d in report.errors()}
        assert (1, 2, 1) in flagged
        # every R-block check of the registry fires; the measurements follow its order
        ids = [d.check_id for d in report.diagnostics]
        rblock = [c for c, stage in CHECKS.items() if stage == "rblock"]
        assert sorted(set(ids)) == sorted(rblock)
        assert list(report.measurements) == rblock

    def test_missing_mirror_block_caught(self):
        # with the block (0, 1, 1) dropped, its mirror (1, 0, 1) has none
        dd, _, blocks = full_pipeline(get_model("ising").modular_data)
        keep = ~((blocks.I == 0) & (blocks.J == 1) & (blocks.K == 1))
        arrays = {name: a[keep] for name, a in vars(blocks).items()}
        report = monodromy_check(dataclasses.replace(blocks, **arrays), dd)
        assert [(d.check_id, d.indices, d.message) for d in report.errors()] == [
            ("monodromy", ((1, 0, 1),), "missing mirror block for channel (1,0,1)")]

    def test_mismatched_signed_projections_caught(self):
        # the signed channel (1, 1, 0) listed twice, the copy with E+ and E-
        # swapped: each copy is the other's mirror, and the first differs
        dd, _, blocks = full_pipeline(get_model("ising").modular_data)
        x = np.flatnonzero((blocks.I == 1) & (blocks.J == 1) & (blocks.K == 0))[0]
        arrays = {name: np.append(a, a[x]) for name, a in vars(blocks).items()}
        arrays["dim_plus"][-1], arrays["dim_minus"][-1] = blocks.dim_minus[x], blocks.dim_plus[x]
        assert arrays["dim_plus"][-1] != arrays["dim_plus"][x]
        report = monodromy_check(dataclasses.replace(blocks, **arrays), dd)
        assert [(d.check_id, d.indices, d.message) for d in report.errors()] == [
            ("monodromy", ((1, 1, 0),), "mirror block has mismatched projections")]

    def test_branch_covariant(self, entries, other_branch):
        # the opposite square-root branch flips block values but monodromy
        # products and signed traces are branch independent
        for e in entries:
            dd = derive(e.modular_data)
            tau = trace_table(e.modular_data, dd)
            with other_branch():
                blocks = canonical_r(dd, *eigen_multiplicities(dd, tau))
            assert monodromy_check(blocks, dd).verdict == "pass", e.name
            K, I, trace = signed_traces(blocks)
            assert np.abs(trace - tau[K, I]).max() <= 1e-9, e.name
