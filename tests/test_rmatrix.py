from fractions import Fraction

import numpy as np
import pytest

from modata import (
    ModularData,
    canonical_r,
    derive,
    eigen_multiplicities,
    get_model,
    monodromy_check,
    r_op,
    trace_table,
)
from modata.numerics import phase_from_turns
from modata.rmatrix import RBlock

TRIVIAL = ModularData.from_matrices([[1.0]], [1.0])


def turn(p, q):
    return phase_from_turns(Fraction(p, q))


def full_pipeline(md):
    dd = derive(md)
    tt = trace_table(md, dd)
    mt = eigen_multiplicities(md, dd, tt)
    return dd, tt, mt, canonical_r(md, dd, mt)


class TestRBlock:
    def test_scalar_needs_distinct_sectors(self):
        with pytest.raises(ValueError):
            RBlock((1, 1, 0), "scalar", 1.0, size=1)

    def test_signed_needs_equal_sectors(self):
        with pytest.raises(ValueError):
            RBlock((0, 1, 1), "signed", 1.0, dim_plus=1)

    def test_value_must_be_unimodular(self):
        with pytest.raises(ValueError):
            RBlock((0, 1, 1), "scalar", 2.0, size=1)

    def test_as_matrix_orders_plus_first(self):
        b = RBlock((1, 1, 0), "signed", 1j, dim_plus=1, dim_minus=2)
        assert np.allclose(np.diag(b.as_matrix()), [1j, -1j, -1j])

    def test_unitary_as_matrix(self):
        b = RBlock((0, 1, 1), "scalar", turn(3, 7), size=2)
        M = b.as_matrix()
        assert np.allclose(M @ M.conj().T, np.eye(2))


class TestCanonicalR:
    def test_trivial_single_signed_identity(self):
        dd, tt, mt, blocks = full_pipeline(TRIVIAL)
        assert len(blocks) == 1
        b = blocks[0]
        assert b.channel == (0, 0, 0) and b.form == "signed"
        assert abs(b.value - 1.0) < 1e-12
        assert (b.dim_plus, b.dim_minus) == (1, 0)

    def test_ising_sigma_psi_channel_is_i(self):
        md = get_model("ising").modular_data
        _, _, _, blocks = full_pipeline(md)
        by = {b.channel: b for b in blocks}
        b = by[(1, 2, 1)]
        # w_sigma/(w_sigma w_psi) = -1 and principal sqrt(-1) = i
        assert b.form == "scalar" and b.size == 1
        assert abs(b.value - 1j) < 1e-12
        assert abs(by[(2, 1, 1)].value - 1j) < 1e-12

    def test_fibonacci_tau_tau_tau_block(self):
        md = get_model("fibonacci").modular_data
        _, tt, _, blocks = full_pipeline(md)
        by = {b.channel: b for b in blocks}
        b = by[(1, 1, 1)]
        assert b.form == "signed"
        assert abs(b.value - turn(-1, 5)) < 1e-12  # w_tau^{-1} sqrt(w_tau)
        assert (b.dim_plus, b.dim_minus) == (0, 1)
        # the operator is -e^{-2 pi i/5} = e^{3 pi i/5}, the oracle scalar
        assert abs(b.trace() - turn(3, 10)) < 1e-12

    def test_one_block_per_nonzero_channel(self, entries):
        for e in entries:
            dd, tt, mt, blocks = full_pipeline(e.md)
            n = e.md.rank
            want = {(i, j, k) for i in range(n) for j in range(n) for k in range(n)
                    if dd.fusion[i, j, k] > 0}
            assert {b.channel for b in blocks} == want, e.name

    def test_mismatched_multiplicities_rejected(self):
        md = get_model("ising").modular_data
        dd = derive(md)
        tt = trace_table(md, dd)
        mt = eigen_multiplicities(md, dd, tt)
        other = get_model("fibonacci").modular_data
        dd_f = derive(other)
        with pytest.raises(ValueError, match="not realizable"):
            canonical_r(other, dd_f, mt)

    def test_scalar_value_squares_to_monodromy(self, entries):
        for e in entries:
            dd, _, _, blocks = full_pipeline(e.md)
            w = dd.twists
            for b in blocks:
                i, j, k = b.channel
                if b.form == "scalar":
                    assert abs(b.value ** 2 - w[k] / (w[i] * w[j])) <= 1e-9, e.name

    def test_signed_value_and_trace(self, entries):
        # value^2 = w_k/w_i^2 and trace ties back to the trace table
        for e in entries:
            dd, tt, _, blocks = full_pipeline(e.md)
            w = dd.twists
            for b in blocks:
                i, j, k = b.channel
                if b.form == "signed":
                    assert abs(b.value ** 2 - w[k] / w[i] ** 2) <= 1e-9, e.name
                    assert abs(b.trace() - tt.tau[k, i]) <= 1e-9, e.name

    def test_blocks_are_unitary(self, entries):
        for e in entries:
            _, _, _, blocks = full_pipeline(e.md)
            for b in blocks:
                M = b.as_matrix()
                assert np.max(np.abs(M @ M.conj().T - np.eye(b.dim))) < 1e-9, e.name

    def test_serialization_schema(self):
        md = get_model("ising").modular_data
        _, _, _, blocks = full_pipeline(md)
        docs = [b.to_json_dict() for b in blocks]
        for d in docs:
            assert d["form"] in ("scalar", "signed")
            assert len(d["channel"]) == 3 and len(d["value"]) == 2
            assert ("size" in d) == (d["form"] == "scalar")


class TestROp:
    def test_trivial(self):
        dd, _, _, blocks = full_pipeline(TRIVIAL)
        assert abs(r_op(blocks[0], dd).value - 1.0) < 1e-12

    def test_fibonacci_vacuum_channel(self):
        md = get_model("fibonacci").modular_data
        dd, _, _, blocks = full_pipeline(md)
        by = {b.channel: b for b in blocks}
        b = by[(1, 1, 0)]
        assert abs(b.value - turn(-2, 5)) < 1e-12       # R = e^{-4 pi i/5}
        assert abs(r_op(b, dd).value - turn(2, 5)) < 1e-12  # R^op = w_tau^2 R

    def test_op_of_mirror_inverts(self, entries):
        for e in entries:
            dd, _, _, blocks = full_pipeline(e.md)
            by = {b.channel: b for b in blocks}
            for b in blocks:
                i, j, k = b.channel
                mirror = by[(j, i, k)]
                assert abs(r_op(mirror, dd).value * b.value - 1.0) <= 1e-9, e.name


class TestMonodromyCheck:
    def test_catalog_passes(self, entries):
        for e in entries:
            dd, _, _, blocks = full_pipeline(e.md)
            report = monodromy_check(blocks, dd)
            assert report.verdict == "pass", e.name
            assert report.max_deviation < 1e-9

    def test_trivial_passes(self):
        dd, _, _, blocks = full_pipeline(TRIVIAL)
        assert monodromy_check(blocks, dd).verdict == "pass"

    def test_corrupted_scalar_block_caught(self):
        md = get_model("ising").modular_data
        dd, _, _, blocks = full_pipeline(md)
        bad = []
        for b in blocks:
            if b.channel == (1, 2, 1):
                b = RBlock(b.channel, b.form, -b.value, size=b.size)
            bad.append(b)
        report = monodromy_check(bad, dd)
        assert report.verdict == "fail"
        flagged = {d.indices[0] for d in report.errors()}
        assert (1, 2, 1) in flagged

    def test_branch_covariant(self, entries, other_branch):
        # the opposite square-root branch flips block values but monodromy
        # products and signed traces are branch independent
        for e in entries:
            dd = derive(e.md)
            tt = trace_table(e.md, dd)
            with other_branch():
                mt = eigen_multiplicities(e.md, dd, tt)
                blocks = canonical_r(e.md, dd, mt)
            assert monodromy_check(blocks, dd).verdict == "pass", e.name
            for b in blocks:
                i, j, k = b.channel
                if b.form == "signed":
                    assert abs(b.trace() - tt.tau[k, i]) <= 1e-9, e.name
