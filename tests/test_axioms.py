import numpy as np
import pytest

from modata import (
    ModularData,
    get_model,
    load_modular_data,
    realizability_report,
    validate,
)
from modata.axioms import CHECKS, WARNINGS, AxiomReport, Diagnostic

TRIVIAL = ModularData.from_matrices([[1.0]], [1.0])


class TestDiagnostic:
    def test_severity_checked(self):
        with pytest.raises(ValueError, match="bad severity 'fatal'"):
            Diagnostic("st_cubed", "fatal", (), 0.0, "")

    def test_negative_deviation_rejected(self):
        with pytest.raises(ValueError, match="measured deviation"):
            Diagnostic("st_cubed", "error", (), -1.0, "")

    def test_unknown_check_id_rejected(self):
        with pytest.raises(ValueError, match="unknown check id 'x'"):
            Diagnostic("x", "error", (), 0.0, "")

    def test_warning_on_an_error_only_check_rejected(self):
        for check_id in CHECKS:
            if check_id not in WARNINGS:
                with pytest.raises(ValueError, match="bad severity 'warning'"):
                    Diagnostic(check_id, "warning", (), 0.0, "")

    @pytest.mark.parametrize("check_id", WARNINGS)
    def test_the_two_warning_checks_take_both_severities(self, check_id):
        for severity in ("error", "warning"):
            assert Diagnostic(check_id, severity, (), 0.0, "").severity == severity


class TestAxiomReport:
    ERROR = Diagnostic("st_cubed", "error", ((0, 1),), 1.0, "")
    WARNING = Diagnostic("twist_trace", "warning", ((1,),), 1e-3, "")

    @pytest.mark.parametrize("diagnostics, verdict", [
        ([], "pass"), ([WARNING], "pass"), ([ERROR], "fail"), ([WARNING, ERROR], "fail")])
    def test_verdict_from_the_diagnostics(self, diagnostics, verdict):
        # "fail" exactly when some diagnostic is an error; a list is stored as a tuple
        report = AxiomReport(diagnostics)
        assert (report.verdict, report.passed) == (verdict, verdict == "pass")
        assert type(report.diagnostics) is tuple and report.diagnostics == tuple(diagnostics)
        assert (report.convention_note, report.measurements) == (None, {})
        assert list(report.to_json_dict()) == ["verdict", "diagnostics", "convention_note",
                                               "measurements"]
        assert report.to_json_dict()["verdict"] == verdict


class TestRegistry:
    def test_stages_and_warnings(self):
        assert set(CHECKS.values()) == {"S", "T", "trace", "rblock"}
        assert WARNINGS == ("cauchy", "twist_trace")
        assert all(CHECKS[c] == "trace" for c in WARNINGS)
        # the stages come in report order: S and T interleaved, then trace, then rblock
        stages = list(CHECKS.values())
        assert stages.index("trace") > max(i for i, s in enumerate(stages) if s in ("S", "T"))
        assert stages.index("rblock") > max(i for i, s in enumerate(stages) if s == "trace")

    def test_public_in_axioms_only(self):
        import modata
        from modata import axioms

        assert "CHECKS" in axioms.__all__
        assert not hasattr(modata, "CHECKS") and "CHECKS" not in modata.__all__

    def test_validate_measures_the_s_and_t_checks_in_registry_order(self, entries):
        for e in entries:
            assert list(validate(e.modular_data).measurements) == [
                c for c, stage in CHECKS.items() if stage in ("S", "T")], e.name


class TestValidate:
    def test_trivial_passes_clean(self):
        report = validate(TRIVIAL)
        assert report.verdict == "pass"
        assert report.diagnostics == ()

    def test_all_catalog_entries_pass(self, entries):
        for e in entries:
            report = validate(e.modular_data)
            assert report.verdict == "pass", (e.name, [d.message for d in report.diagnostics])
            assert report.max_deviation < 1e-10, e.name

    def test_bad_twist_fails_st_cubed(self, bad_ising_file):
        report = validate(load_modular_data(bad_ising_file))
        assert report.verdict == "fail"
        assert any(d.check_id == "st_cubed" for d in report.errors())

    def test_perturbing_any_single_entry_fails(self, entries):
        md = get_model("toric_code").modular_data
        for i in range(md.rank):
            for j in range(md.rank):
                S = md.S.copy()
                S[i, j] += 1e-3
                bumped = ModularData.from_matrices(S, md.T)
                assert validate(bumped).verdict == "fail", (i, j)

    def test_deterministic(self):
        md = get_model("su2_2").modular_data
        r1, r2 = validate(md), validate(md)
        assert r1 == r2

    def test_failures_accumulate(self):
        # break unitarity and symmetry at once; both diagnostics must appear
        S = np.array([[0.4, 0.9], [0.8, -0.5]])
        md = ModularData.from_matrices(S, [1.0, 1j])
        ids = {d.check_id for d in validate(md).errors()}
        assert "s_unitary" in ids and "s_symmetric" in ids

    def test_nonunimodular_t_flagged(self):
        md = ModularData.from_matrices([[1.0]], [0.5])
        ids = {d.check_id for d in validate(md).errors()}
        assert "t_unimodular" in ids

    def test_report_serializes(self):
        doc = validate(get_model("z3").modular_data).to_json_dict()
        assert doc["verdict"] == "pass"
        assert isinstance(doc["measurements"], dict)


class TestDetectConvention:
    """The convention note of ``validate``, which every ``check`` report carries."""

    def test_catalog_convention_holds(self):
        assert validate(get_model("ising").modular_data).convention_note is None

    def test_trivial_conventions_coincide(self):
        assert validate(TRIVIAL).convention_note is None

    def test_conjugated_z3_gets_note(self):
        md = get_model("z3").modular_data
        flipped = ModularData.from_matrices(np.conj(md.S), md.T)
        report = validate(flipped)
        assert report.verdict == "fail"
        assert report.convention_note is not None and "conjugate" in report.convention_note
        assert realizability_report(flipped).convention_note == report.convention_note

    def test_real_s_conjugation_is_identity(self):
        # the Ising S is real and its C is the identity, so conjugating S
        # changes nothing and both conventions coincide: still a pass
        md = get_model("ising").modular_data
        flipped = ModularData.from_matrices(np.conj(md.S), md.T)
        report = validate(flipped)
        assert report.verdict == "pass" and report.convention_note is None

    def test_data_never_mutated(self):
        md = get_model("z3").modular_data
        flipped = ModularData.from_matrices(np.conj(md.S), md.T)
        before = flipped.S.copy()
        assert validate(flipped).convention_note is not None
        assert np.array_equal(before, flipped.S)
