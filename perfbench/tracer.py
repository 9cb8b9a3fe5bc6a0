"""Spans around modata's public functions, recorded from outside the package.

``Tracer.install`` replaces every binding of a traced function -- in the
module that defines it, in every module that imported it, and in the package
namespace -- with a wrapper that records a span (name, start, end, parent,
info).  The program's source is not touched; ``uninstall`` puts the original
objects back.  Single-threaded use only: the parent of a span is whatever
span is open when it starts.

Counts come from public return values only: ``TEnumeration`` from
``enumerate_t``, the list from ``candidate_s``, the ``AxiomReport`` from
``realizability_report`` and the results of ``search_pipeline``.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

TRACED_MODULES = ("search", "bantay", "axioms", "modular_data", "rmatrix", "oracle", "cli")
# per-matrix-entry converters: wrapping them would time the tracer, not the layer
UNTRACED = {"parse_complex", "complex_to_json"}

# every error check_id the seed code can emit; any other id is counted under
# "other" and listed by name in the run's detail line
KNOWN_CHECKS = (
    "s_unitary", "s_symmetric", "t_unimodular", "charge_conjugation", "st_cubed",
    "verlinde_integrality", "vacuum_fusion", "dims_row", "conjugate_symmetry",
    "derivation", "trace_zero_channel", "fs_route_agreement", "fs_selfdual_pattern",
    "fs_value", "mult_real", "mult_integer", "mult_range", "mult_parity",
    "trace_conjugation",
)


def _enumeration_info(enum):
    kept = len(set(enum.assignments))
    return {"kept": kept, "tried": kept + enum.skipped, "diagonals": len(enum.diagonals)}


def _report_info(report):
    first = next((d.check_id for d in report.diagnostics if d.severity == "error"), None)
    return {"passed": report.passed, "reject": first}


INFO = {
    "search.enumerate_t": _enumeration_info,
    "search.candidate_s": lambda out: {"count": len(out)},
    "search.search_pipeline": lambda out: {"count": len(out)},
    "bantay.realizability_report": _report_info,
    "rmatrix.canonical_r": lambda out: {"count": len(out)},
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []   # [name, start, end, parent index, info]
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        info = INFO.get(name)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()
            if info is not None:
                span[4] = info(out)
            return out
        return traced

    def _targets(self):
        """(span name, function) for every public function a traced module defines.

        Of cli only ``main`` is traced, so that its self time is the whole
        read/print path of a command.
        """
        for short in TRACED_MODULES:
            mod = getattr(self.package, short)
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNTRACED
                        and (short != "cli" or attr == "main")):
                    yield f"{short}.{attr}", fn

    def install(self) -> None:
        pkg = self.package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        for name, fn in self._targets():
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()


def summarize(spans: list[list]) -> tuple[Counter, defaultdict, defaultdict]:
    """(calls, busy time, self time) by span name.

    Busy time is the union of a name's spans (a span nested in one of the
    same name is not counted twice); self time is a span's duration minus
    the durations of its direct children.
    """
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    self_time: defaultdict = defaultdict(float)
    for name, start, end, parent, _ in spans:
        dur = end - start
        calls[name] += 1
        self_time[name] += dur
        if parent >= 0:
            self_time[spans[parent][0]] -= dur
        if not _ancestor_named(spans, parent, name):
            busy[name] += dur
    return calls, busy, self_time


def _ancestor_named(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _infos(spans, name):
    return [(i, sp[4]) for i, sp in enumerate(spans) if sp[0] == name and sp[4]]


def layer_metrics(spans: list[list], output_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one pass, from the spans recorded during it."""
    calls, busy, self_time = summarize(spans)
    enum = [info for _, info in _infos(spans, "search.enumerate_t")]
    tried = sum(e["tried"] for e in enum)
    kept = sum(e["kept"] for e in enum)
    t_candidates = sum(e["diagonals"] for e in enum)
    reports = _infos(spans, "bantay.realizability_report")
    admissible = sum(1 for i, info in reports if info["passed"]
                     and _ancestor_named(spans, spans[i][3], "search.search_pipeline"))
    results = sum(info["count"] for _, info in _infos(spans, "search.search_pipeline"))
    rejects = reject_histogram(spans)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "search.enumerate_t.busy_s": busy["search.enumerate_t"],
        "search.enumerate_t.assignments_tried": tried,
        "search.enumerate_t.assignments_kept": kept,
        "search.enumerate_t.kept_ratio": ratio(kept, tried),
        "search.enumerate_t.assignments_per_s": ratio(tried, busy["search.enumerate_t"]),
        "search.candidate_s.busy_s": busy["search.candidate_s"],
        "search.candidate_s.s_candidates": sum(
            info["count"] for _, info in _infos(spans, "search.candidate_s")),
        "search.search_pipeline.self_s": self_time["search.search_pipeline"],
        "search.t_candidates": t_candidates,
        "search.admissible_ratio": ratio(admissible, t_candidates),
        "search.duplicates_dropped": admissible - results,
        "bantay.realizability_report.busy_s": busy["bantay.realizability_report"],
        "bantay.realizability_report.self_s": self_time["bantay.realizability_report"],
        "bantay.realizability_report.calls": calls["bantay.realizability_report"],
        "bantay.realizability_report.passed": sum(1 for _, info in reports if info["passed"]),
    }
    for check in KNOWN_CHECKS:
        m[f"bantay.realizability_report.reject.{check}"] = rejects.get(check, 0)
    m["bantay.realizability_report.reject.other"] = sum(
        n for check, n in rejects.items() if check not in KNOWN_CHECKS)
    m.update({
        "axioms.validate.busy_s": busy["axioms.validate"],
        "modular_data.derive.busy_s": busy["modular_data.derive"],
        "modular_data.verlinde_fusion.calls": calls["modular_data.verlinde_fusion"],
        "modular_data.charge_conjugation.calls": calls["modular_data.charge_conjugation"],
        "bantay.trace_table.busy_s": busy["bantay.trace_table"],
        "bantay.fs_indicators.busy_s": busy["bantay.fs_indicators"],
        "bantay.eigen_multiplicities.busy_s": busy["bantay.eigen_multiplicities"],
        "rmatrix.canonical_r.busy_s": busy["rmatrix.canonical_r"],
        "rmatrix.monodromy_check.busy_s": busy["rmatrix.monodromy_check"],
        "rmatrix.blocks": sum(info["count"] for _, info in _infos(spans, "rmatrix.canonical_r")),
        "modular_data.load_modular_data.busy_s": busy["modular_data.load_modular_data"],
        "modular_data.save_modular_data.busy_s": busy["modular_data.save_modular_data"],
        "cli.main.self_s": self_time["cli.main"],
        "cli.output_bytes": output_bytes,
    })
    return m


def reject_histogram(spans: list[list]) -> Counter:
    """First-error check_id of every failing realizability_report, by name."""
    return Counter(info["reject"] for _, info in _infos(spans, "bantay.realizability_report")
                   if not info["passed"])
