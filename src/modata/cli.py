"""Command-line front end.

Commands: validate, bantay, rmatrix, check, catalog, oracle, search.
``check``, ``bantay`` and ``rmatrix`` run the same realizability pass.
``bantay`` and ``rmatrix`` print tables only for data that ``check`` passes;
otherwise they print the report ``check`` prints, name its first failing
check on stderr in human mode, and exit 1.
Exit codes: 0 success/pass, 1 mathematical failure, 2 I/O or parse failure,
141 (128 + SIGPIPE) when the reader of stdout goes away early, as in
``modata catalog | head -3``; nothing is printed to stderr then.
Human tables print phases both as decimals and, when they are roots of
unity, as turn fractions p/q (q <= 240).
"""
from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from pathlib import Path

from . import __version__
from .axioms import AxiomReport, validate
from .bantay import _realizability_pass, realizability_report, trace_table
from .modular_data import (
    InvalidModularData,
    _encode_datum,
    _Spliced,
    _write_json,
    derive,
    load_modular_data,
    save_modular_data,
    twists,
)
from .numerics import DEFAULT_POLICY, TolerancePolicy, turns_fraction
from .oracle import _NOTES, brute_trace, catalog_models, get_model
from .rmatrix import canonical_r, monodromy_check
from .search import MAX_SEARCH_ORDER, FusionRingError, load_fusion_ring, search_pipeline

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_PIPE = 128 + 13  # SIGPIPE, as a shell reports a writer killed by it


def fmt_complex(z: complex, pol: TolerancePolicy = DEFAULT_POLICY) -> str:
    """Decimal form plus the nearest turn fraction when within tolerance."""
    z = complex(z)
    if abs(z) <= pol.eq_tol:
        return "0"
    if abs(z.imag) <= pol.eq_tol:
        return f"{z.real:+.6f}"
    body = f"{z.real:+.6f}{z.imag:+.6f}i"
    frac = turns_fraction(z / abs(z), 240, pol)
    if frac is not None:
        mag = "" if abs(abs(z) - 1.0) <= pol.int_tol else f"{abs(z):.6f}*"
        return f"{body} ({mag}e[{frac.numerator}/{frac.denominator} turn])"
    return f"{body} (approx)"


def _print_matrix(name: str, M, labels, pol) -> None:
    print(f"{name}:")
    width = max(len(x) for x in labels)
    for i, row in enumerate(M):
        cells = "  ".join(fmt_complex(z, pol) for z in row)
        print(f"  {labels[i]:>{width}} | {cells}")


def _print_int_matrix(name: str, M, labels) -> None:
    print(f"{name}:")
    width = max(len(x) for x in labels)
    for i, row in enumerate(M):
        cells = " ".join(f"{int(v):>3d}" for v in row)
        print(f"  {labels[i]:>{width}} | {cells}")


def _print_report(report: AxiomReport, quiet: bool) -> None:
    print(f"verdict: {report.verdict}", f"(max deviation {report.max_deviation:.3e})")
    if report.convention_note:
        print(f"note: {report.convention_note}")
    if quiet:
        return
    for d in report.diagnostics:
        idx = ",".join(str(t) for t in d.indices)
        print(f"  [{d.severity}] {d.check_id} at {idx}: {d.message} "
              f"(deviation {d.measured:.3e})")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _emit_report(report: AxiomReport, args) -> int:
    if args.json:
        _write_json(report.to_json_dict(), sys.stdout)
    else:
        _print_report(report, args.quiet)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_validate(args, pol) -> int:
    return _emit_report(validate(load_modular_data(args.file), pol), args)


def cmd_check(args, pol) -> int:
    return _emit_report(realizability_report(load_modular_data(args.file), pol), args)


def _print_failure(report: AxiomReport, args) -> int:
    """Print a failing report, naming its first failing check on stderr in
    human mode; exit 1."""
    if not args.json:
        print(f"data fails the {report.errors()[0].check_id} check; not realizable",
              file=sys.stderr)
    return _emit_report(report, args)


def cmd_bantay(args, pol) -> int:
    md = load_modular_data(args.file)
    (report,), (tables,) = _realizability_pass(md, md.T[None], pol)
    if tables is None:
        return _print_failure(report, args)
    tau, nu, m_plus, m_minus = tables
    if args.json:
        # each tau[k][i] as [re, im]
        _write_json({"tau": [[[z.real, z.imag] for z in row] for row in tau.tolist()],
                     "nu": nu.tolist(), "m_plus": m_plus.tolist(), "m_minus": m_minus.tolist()},
                    sys.stdout)
        return EXIT_PASS
    labels = list(md.labels)
    _print_matrix("self-braiding traces tau[k][i] (rows k, columns i)", tau, labels, pol)
    print("Frobenius-Schur indicators:")
    for i, v in enumerate(nu):
        print(f"  {labels[i]:>8} : {v:+d}" if v else f"  {labels[i]:>8} :  0")
    if not args.quiet:
        _print_int_matrix("m_plus[k][i]", m_plus, labels)
        _print_int_matrix("m_minus[k][i]", m_minus, labels)
        # |t| and parity let the user re-derive the labels under the other
        # square-root branch (which just swaps m+ and m-)
        print("self-braiding channels (k, i): t = m+ - m-, N = N^k_ii:")
        n_ch = m_plus + m_minus
        for k, i in zip(*n_ch.nonzero()):
            t = int(m_plus[k, i] - m_minus[k, i])
            parity = "even" if n_ch[k, i] % 2 == 0 else "odd"
            print(f"  ({labels[k]},{labels[i]}): t = {t:+d}, |t| = {abs(t)}, "
                  f"N = {n_ch[k, i]} ({parity})")
    return EXIT_PASS


def cmd_rmatrix(args, pol) -> int:
    md = load_modular_data(args.file)
    (report,), (tables,) = _realizability_pass(md, md.T[None], pol)
    if tables is None:
        return _print_failure(report, args)
    dd = derive(md, pol)
    blocks = canonical_r(dd, *tables[2:])
    mono = monodromy_check(blocks, dd, pol)
    if args.json:
        _write_json(_Spliced(blocks=blocks.encode(), monodromy=mono.to_json_dict()), sys.stdout)
        return EXIT_PASS if mono.passed else EXIT_FAIL
    labels = list(md.labels)
    for i, j, k, value, size, plus, minus in blocks:
        ch = f"({labels[i]},{labels[j]};{labels[k]})"
        if i != j:
            print(f"  {ch:>18}  scalar  {fmt_complex(value, pol)}  x 1_{size}")
        else:
            print(f"  {ch:>18}  signed  {fmt_complex(value, pol)}  "
                  f"(E+ rank {plus}, E- rank {minus})")
    print("monodromy check:", mono.verdict,
          f"(max deviation {mono.max_deviation:.3e})")
    return EXIT_PASS if mono.passed else EXIT_FAIL


def _lookup(name: str):
    """The catalog model ``name``, or None after one error line on stderr."""
    try:
        return get_model(name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return None


def cmd_catalog(args, pol) -> int:
    if args.name is None:
        if args.json:
            _write_json([{"name": m.name, "rank": m.rank, "notes": _NOTES[m.name]}
                         for m in catalog_models()], sys.stdout)
        else:
            for m in catalog_models():
                dd = derive(m.modular_data, pol)
                print(f"  {m.name:<16} rank {m.rank}  |sigma| = "
                      f"{dd.total_dim:.6f}  {_NOTES[m.name]}")
        return EXIT_PASS
    model = _lookup(args.name)
    if model is None:
        return EXIT_PARSE
    md = model.modular_data
    if args.json:
        _write_json(_encode_datum(md, exact_t=True), sys.stdout)
    else:
        dd = derive(md, pol)
        print(f"{model.name}: rank {md.rank}, |sigma| = {dd.total_dim:.6f}")
        print(f"notes: {_NOTES[model.name]}")
        _print_matrix("S", md.S, list(md.labels), pol)
        print("T diagonal:")
        for i, z in enumerate(md.T):
            print(f"  {md.labels[i]:>8} : {fmt_complex(z, pol)}")
    return EXIT_PASS


def cmd_oracle(args, pol) -> int:
    model = _lookup(args.model)
    if model is None:
        return EXIT_PARSE
    md = model.modular_data
    dd = derive(md, pol)
    tau = trace_table(md, dd, pol)
    rows = []
    worst = 0.0
    for i in range(md.rank):
        for k in range(md.rank):
            b = brute_trace(model, i, k)
            f = tau[k, i]
            delta = abs(f - b)
            worst = max(worst, delta)
            rows.append((i, k, b, f, delta))
    if args.json:
        _write_json({
            "model": model.name,
            "channels": [{"i": i, "k": k, "brute": [b.real, b.imag],
                          "formula": [f.real, f.imag], "delta": d}
                         for i, k, b, f, d in rows],
            "max_delta": worst,
        }, sys.stdout)
    else:
        if not args.quiet:
            print(f"model {model.name}: definition vs modular-data formula")
            for i, k, b, f, d in rows:
                print(f"  (i={model.labels[i]}, k={model.labels[k]})  "
                      f"brute {fmt_complex(b, pol):<40} formula "
                      f"{fmt_complex(f, pol):<40} |delta| {d:.3e}")
        print(f"max |delta| = {worst:.3e}")
    return EXIT_PASS if worst <= pol.eq_tol else EXIT_FAIL


def cmd_search(args, pol) -> int:
    if not 1 <= args.max_order <= MAX_SEARCH_ORDER:
        print(f"error: --max-order must be between 1 and {MAX_SEARCH_ORDER}, "
              f"got {args.max_order}", file=sys.stderr)
        return EXIT_PARSE
    fr = load_fusion_ring(args.file)
    stats: dict = {}
    results = search_pipeline(fr, max_order=args.max_order, pol=pol, stats_out=stats)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files, texts = [], []
    for idx, res in enumerate(results):
        path = out_dir / f"result_{idx:03d}.json"
        texts.append(save_modular_data(res.md, path))
        files.append(str(path))
    # the results of an earlier search into the same directory go
    written = set(files)
    for path in out_dir.glob("result_*.json"):
        if re.fullmatch(r"result_\d{3,}\.json", path.name) and str(path) not in written:
            path.unlink()
    families = sorted({res.provenance[:2] for res in results})
    if args.json:
        # each result's data is the text of its file, placed verbatim
        _write_json(_Spliced({
            "rank": fr.rank,
            "max_order": args.max_order,
            "results": [_Spliced(provenance=list(res.provenance), file=f, data=text)
                        for res, f, text in zip(results, files, texts)],
            "result_count": len(results),
            "family_count": len(families),
            "stats": stats,
        }), sys.stdout)
    else:
        print(f"{len(results)} admissible data in {len(families)} twist families "
              f"-> {out_dir}")
        # the work done; the nominal skip counts, up to 10^32, are in --json
        print(f"({stats['s_candidates']} S candidate(s); {stats['rows_cubed']} twist "
              f"assignments cubed, the others pruned by the Cauchy theorem and the "
              f"balancing equations; {stats['t_candidates']} T candidates filtered)")
        if not args.quiet:
            for res, f in zip(results, files):
                w = twists(res.md, pol)
                tw = ", ".join(fmt_complex(z, pol) for z in w[1:])
                print(f"  {res.provenance}  twists ({tw})  -> {f}")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _common_flags(parser: argparse.ArgumentParser, top: bool) -> None:
    # on subparsers the defaults are SUPPRESS so flags given before the
    # subcommand are not clobbered by unset subcommand-level copies
    kw = {} if top else {"default": argparse.SUPPRESS}
    parser.add_argument("--tol", type=float, metavar="EPS",
                        help="override eq_tol (default 1e-9)",
                        **({"default": None} if top else kw))
    parser.add_argument("--int-tol", type=float, metavar="EPS",
                        help="override int_tol (default 1e-6)",
                        **({"default": None} if top else kw))
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output", **kw)
    parser.add_argument("--quiet", action="store_true",
                        help="suppress detail rows", **kw)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="modata",
        description="modular-data toolkit: validation, self-braiding traces, "
                    "FS indicators, canonical R-matrices and small-rank search",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    _common_flags(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, func, with_file=True):
        p = sub.add_parser(name, help=help_text)
        if with_file:
            p.add_argument("file")
        _common_flags(p, top=False)
        p.set_defaults(func=func)
        return p

    add("validate", "check a modular-data file against the axioms", cmd_validate)
    add("bantay", "trace table, FS indicators and multiplicities", cmd_bantay)
    add("rmatrix", "canonical R blocks plus monodromy check", cmd_rmatrix)
    add("check", "full realizability report", cmd_check)

    p = add("catalog", "list or show shipped modular data", cmd_catalog, with_file=False)
    p.add_argument("name", nargs="?", default=None)

    p = add("oracle", "brute-force vs formula trace comparison", cmd_oracle, with_file=False)
    p.add_argument("model")

    p = add("search", "search a fusion ring for admissible data", cmd_search)
    p.add_argument("--max-order", type=int, default=16, metavar="Q",
                   help=f"largest twist denominator, 1 to {MAX_SEARCH_ORDER} (default 16)")
    p.add_argument("--out", default="search-results", metavar="DIR",
                   help="directory for result files; result_NNN.json files of an "
                        "earlier search there are deleted (default ./search-results)")
    return parser


def make_policy(args) -> TolerancePolicy:
    if args.tol is None and args.int_tol is None:
        return DEFAULT_POLICY
    eq = args.tol if args.tol is not None else DEFAULT_POLICY.eq_tol
    it = args.int_tol if args.int_tol is not None else max(eq, DEFAULT_POLICY.int_tol)
    return TolerancePolicy(eq_tol=eq, int_tol=it)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        pol = make_policy(args)
    except ValueError as exc:
        print(f"bad tolerance: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        code = args.func(args, pol)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # point fd 1 at devnull so the flush at shutdown cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (InvalidModularData, FusionRingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
