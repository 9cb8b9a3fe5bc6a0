import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from modata import (
    ExplicitModel,
    ModularData,
    canonical_r,
    derive,
    eigen_multiplicities,
    get_model,
    monodromy_check,
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
        # in the row-major order of N's support: the JSON block order is output
        for e in entries:
            dd, tt, mt, blocks = full_pipeline(e.md)
            n = e.md.rank
            want = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
                    if dd.fusion[i, j, k] > 0]
            assert [b.channel for b in blocks] == want, e.name

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

    def test_encoded_blocks_equal_json_dumps_of_the_dicts(self, entries):
        # rmatrix --json writes the blocks' text straight from the arrays; it
        # is json.dumps of the RBlock dicts, byte for byte
        from modata.rmatrix import _canonical_blocks

        for a, b in [(x, y) for x in entries for y in entries][::7]:
            md = ModularData.from_matrices(np.kron(a.md.S, b.md.S), np.kron(a.md.T, b.md.T))
            dd, _, mt, blocks = full_pipeline(md)
            want = json.dumps([blk.to_json_dict() for blk in blocks])
            assert _canonical_blocks(dd, mt).encode() == want, (a.name, b.name)

    def test_serialization_schema(self):
        md = get_model("ising").modular_data
        _, _, _, blocks = full_pipeline(md)
        docs = [b.to_json_dict() for b in blocks]
        for d in docs:
            assert d["form"] in ("scalar", "signed")
            assert len(d["channel"]) == 3 and len(d["value"]) == 2
            assert ("size" in d) == (d["form"] == "scalar")


def explicit_product(a, b):
    """The Deligne product of two explicit models: r = r_a r_b on kron indices."""
    nb = b.rank
    r = {(i * nb + i2, j * nb + j2, k * nb + k2): va * vb
         for (i, j, k), va in a.r_scalars.items()
         for (i2, j2, k2), vb in b.r_scalars.items()}
    md = ModularData.from_matrices(np.kron(a.modular_data.S, b.modular_data.S),
                                   np.kron(a.modular_data.T, b.modular_data.T),
                                   [f"{x}*{y}" for x in a.labels for y in b.labels])
    fusion = np.einsum("ace,bdf->abcdef", a.fusion, b.fusion).reshape((a.rank * nb,) * 3)
    return ExplicitModel(name=f"{a.name}*{b.name}", labels=md.labels, fusion=fusion,
                         twists=np.kron(a.twists, b.twists), r_scalars=r, modular_data=md)


class TestAgainstOracle:
    def test_blocks_match_r_scalars_at_product_ranks(self, models):
        # not true by construction: the blocks come from S and T alone, the
        # r scalars from the explicit models
        products = list(models) + [explicit_product(a, b) for a, b in
                                   itertools.combinations_with_replacement(models, 2)]
        assert len(products) == 9 + 45
        for m in products:
            r = m.r_scalars
            _, _, _, blocks = full_pipeline(m.modular_data)
            assert len(blocks) == len(r), m.name
            for b in blocks:
                i, j, k = b.channel
                if b.form == "signed":
                    assert b.dim == 1, m.name
                    sign = 1 if b.dim_plus else -1
                    assert abs(b.value * sign - r[i, i, k]) <= 1e-9, (m.name, b.channel)
                else:
                    assert abs(b.value ** 2 - r[i, j, k] * r[j, i, k]) <= 1e-9, (m.name, b.channel)


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
