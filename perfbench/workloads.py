"""The three workloads: inputs built from the seed, the CLI calls, and the
expected output of every call.

Every op is one ``modata.cli.main([...])`` call.  The program only ever sees
the files written here; the seed chooses the op order and, in
``check_products``, the negative controls, and is never passed to modata.

Workloads, and why each is in the benchmark:

* ``search_catalog_rings`` -- ``search`` on the Fibonacci ring (q=10), the
  Ising ring (q=32) and the toric-code ring (q=8).  Twist enumeration is
  ~90% of the time; the toric ring has 48 results, so it also covers result
  deduplication and the result-file writes.
* ``search_rank6`` -- ``search`` on the rank-6 Fibonacci x Z_3 ring (q=15):
  the advertised rank bound, 720 column orderings in ``candidate_s`` and
  ~746k twist assignments.  The only workload where ``candidate_s`` runs at
  full size.
* ``check_products`` -- ``check``, ``bantay`` and ``rmatrix`` on the nine
  catalog models, their 45 Deligne products (ranks 1-16), the conjugate
  presentation of Z_3 and one twisted negative control per model.  No search
  code runs; the per-candidate pipeline and the CLI read/print path do.

Expected outputs: passing ops compare against the frozen references in
``reference/<workload>.json``, written by ``freeze.py`` from the code of the
commit that added the benchmark.  Numbers match within 1e-9, and the output
may carry keys the reference lacks, so an added measurement or counter does
not count as a wrong answer.
Negative controls are checked by rule: exit code 1, verdict "fail", an
``st_cubed`` error.  ``bantay`` traces are also checked channel by channel
against ``brute_trace`` on an explicit model, including explicit product
models whose braiding scalars are r(i,j,k) r'(i',j',k') on kron indices.
"""
from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
REFERENCE_DIR = BENCH_DIR / "reference"

WORKLOADS = ("search_catalog_rings", "search_rank6", "check_products")
TOL = 1e-9
# every (sector, root) choice with q <= 12 breaks (S T)^3 = S^2 on every
# catalog model, so each twisted control must fail with st_cubed
CONTROL_MAX_ORDER = 12


class ProgramMissing(RuntimeError):
    """The modata sources are not in this checkout."""


def load_program():
    """Import modata from ``src/`` of this checkout and nowhere else."""
    if not (SRC / "modata" / "__init__.py").is_file():
        raise ProgramMissing(f"no modata package under {SRC}")
    sys.path.insert(0, str(SRC))
    import modata
    import modata.cli  # noqa: F401  (loads every submodule)

    if Path(modata.__file__).resolve().parent != (SRC / "modata").resolve():
        raise ProgramMissing(f"imported modata from {modata.__file__}, not {SRC}")
    return modata


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output is checked against."""

    key: str                    # stable id; names the frozen reference
    argv: tuple[str, ...]
    expect: str                 # "frozen" | "negative"
    oracle: tuple[str, ...] = ()  # catalog names whose product the trace must match
    out_dir: str | None = None  # search: result directory, emptied before the call


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def make_ops(modata, workload: str, seed: int) -> list[Op]:
    """Write the workload's input files and return its ops in seeded order."""
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = random.Random(seed)
    ops = {"search_catalog_rings": _search_catalog_rings,
           "search_rank6": _search_rank6,
           "check_products": _check_products}[workload](modata, work, rng)
    rng.shuffle(ops)
    return ops


def _search_op(key: str, ring: Path, max_order: int, work: Path) -> Op:
    out = work / f"results_{key.split()[1]}"
    return Op(key=key, argv=("--json", "search", str(ring), "--max-order", str(max_order),
                             "--out", str(out)),
              expect="frozen", out_dir=str(out))


def _ring_of(modata, md):
    return modata.search.FusionRing(rank=md.rank, N=modata.modular_data.verlinde_fusion(md))


def _search_catalog_rings(modata, work: Path, rng) -> list[Op]:
    models = {m.name: m for m in modata.oracle.catalog_models()}
    toric = work / "toric_code_ring.json"
    modata.search.save_fusion_ring(_ring_of(modata, models["toric_code"].modular_data), toric)
    rings = SRC / "modata" / "data" / "rings"
    return [_search_op("search fibonacci q=10", rings / "fibonacci_ring.json", 10, work),
            _search_op("search ising q=32", rings / "ising_ring.json", 32, work),
            _search_op("search toric_code q=8", toric, 8, work)]


def _search_rank6(modata, work: Path, rng) -> list[Op]:
    import numpy as np

    models = {m.name: m for m in modata.oracle.catalog_models()}
    fib, z3 = (_ring_of(modata, models[n].modular_data) for n in ("fibonacci", "z3"))
    N = np.einsum("ace,bdf->abcdef", fib.N, z3.N).reshape(6, 6, 6)
    ring = work / "fibonacci_z3_ring.json"
    modata.search.save_fusion_ring(modata.search.FusionRing(rank=6, N=N), ring)
    return [_search_op("search fibonacci_z3 q=15", ring, 15, work)]


def product_data(modata, a, b):
    """The Deligne product of two modular data: kron(S_a, S_b), kron(T_a, T_b)."""
    import numpy as np

    labels = [f"{x}*{y}" for x in a.labels for y in b.labels]
    return modata.modular_data.ModularData.from_matrices(
        np.kron(a.S, b.S), np.kron(a.T, b.T), labels)


def _check_products(modata, work: Path, rng) -> list[Op]:
    import numpy as np

    save = modata.modular_data.save_modular_data
    models = modata.oracle.catalog_models()
    inputs: list[tuple[str, object, tuple[str, ...]]] = []
    for m in models:
        inputs.append((f"models/{m.name}", m.modular_data, (m.name,)))
    for a, b in itertools.combinations_with_replacement(models, 2):
        inputs.append((f"products/{a.name}__{b.name}",
                       product_data(modata, a.modular_data, b.modular_data),
                       (a.name, b.name)))
    controls: list[tuple[str, object]] = []
    z3 = next(m.modular_data for m in models if m.name == "z3")
    controls.append(("controls/z3_conjugate_presentation",
                     modata.modular_data.ModularData.from_matrices(
                         np.conj(z3.S), z3.T, z3.labels)))
    for m in models:
        md = m.modular_data
        if md.rank == 1:
            continue
        sector = rng.randrange(1, md.rank)
        q = rng.randint(2, CONTROL_MAX_ORDER)
        p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
        T = md.T.copy()
        T[sector] *= modata.numerics.phase_from_turns(Fraction(p, q))
        controls.append((f"controls/{m.name}_twisted",
                         modata.modular_data.ModularData.from_matrices(md.S, T, md.labels)))
    for sub in ("models", "products", "controls"):
        (work / sub).mkdir()
    ops = []
    for name, md, oracle in inputs:
        path = work / f"{name}.json"
        save(md, path, exact_t=True)
        for cmd in ("check", "bantay", "rmatrix"):
            ops.append(Op(key=f"{cmd} {name}", argv=("--json", cmd, str(path)),
                          expect="frozen", oracle=oracle if cmd == "bantay" else ()))
    for name, md in controls:
        path = work / f"{name}.json"
        save(md, path, exact_t=True)
        for cmd in ("check", "bantay", "rmatrix"):
            ops.append(Op(key=f"{cmd} {name}", argv=("--json", cmd, str(path)),
                          expect="negative"))
    return ops


# ---------------------------------------------------------------------------
# expected outputs
# ---------------------------------------------------------------------------

def mismatch(ref, out, where: str = "$") -> str | None:
    """Where ``out`` first differs from ``ref``; None when it matches.

    Numbers match within TOL, ints exactly; dicts in ``out`` may carry keys
    that ``ref`` lacks.
    """
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return f"{where}: expected an object"
        for k, v in ref.items():
            if k not in out:
                return f"{where}.{k}: missing"
            found = mismatch(v, out[k], f"{where}.{k}")
            if found:
                return found
        return None
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return f"{where}: expected a list of {len(ref)}"
        for i, (a, b) in enumerate(zip(ref, out)):
            found = mismatch(a, b, f"{where}[{i}]")
            if found:
                return found
        return None
    if isinstance(ref, float):
        if isinstance(out, (int, float)) and not isinstance(out, bool) and (
                out == ref or abs(out - ref) <= TOL):
            return None
        return f"{where}: {out!r} != {ref!r}"
    if type(out) is not type(ref) or out != ref:
        return f"{where}: {out!r} != {ref!r}"
    return None


def rounded(doc):
    """Floats cut to 12 significant digits, far inside TOL, for a compact file."""
    if isinstance(doc, dict):
        return {k: rounded(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [rounded(v) for v in doc]
    if isinstance(doc, float) and math.isfinite(doc):
        return float(f"{doc:.12g}")
    return doc


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


class Checker:
    """Judges one op's exit code and stdout; returns a failure reason or None."""

    def __init__(self, modata, workload: str):
        self.reference = json.loads(reference_path(workload).read_text(encoding="utf-8"))
        # bound now, so that traced passes do not trace the checking
        self._brute_trace = modata.oracle.brute_trace
        models = {m.name: m for m in modata.oracle.catalog_models()}
        self._explicit = {(n,): m for n, m in models.items()}
        if workload == "check_products":
            for a, b in itertools.combinations_with_replacement(models.values(), 2):
                self._explicit[(a.name, b.name)] = explicit_product(modata, a, b)

    def __call__(self, op: Op, code: int, stdout: str) -> str | None:
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return f"{op.key}: stdout is not JSON"
        if op.expect == "negative":
            return _negative(op, code, doc)
        ref = self.reference.get(op.key)
        if ref is None:
            return f"{op.key}: no frozen reference"
        if code != ref["exit"]:
            return f"{op.key}: exit {code}, expected {ref['exit']}"
        found = mismatch(ref["stdout"], doc)
        if found:
            return f"{op.key}: {found}"
        if op.out_dir is not None:
            return _result_files(op, doc)
        if op.oracle:
            return self._brute_traces(op, doc)
        return None

    def _brute_traces(self, op: Op, doc) -> str | None:
        model = self._explicit[op.oracle]
        tau = doc["tau"]
        for k in range(model.rank):
            for i in range(model.rank):
                got = complex(*tau[k][i])
                want = self._brute_trace(model, i, k)
                if abs(got - want) > TOL:
                    return f"{op.key}: tau[{k}][{i}] = {got} but brute force gives {want}"
        return None


def _negative(op: Op, code: int, doc) -> str | None:
    if code != 1:
        return f"{op.key}: exit {code}, expected 1"
    if not isinstance(doc, dict) or doc.get("verdict") != "fail":
        return f"{op.key}: verdict is not fail"
    if not any(d.get("check_id") == "st_cubed" and d.get("severity") == "error"
               for d in doc.get("diagnostics", [])):
        return f"{op.key}: no st_cubed error"
    if "conjugate_presentation" in op.key and not doc.get("convention_note"):
        return f"{op.key}: the conjugate presentation is not noted"
    return None


def _result_files(op: Op, doc) -> str | None:
    for res in doc["results"]:
        path = Path(res["file"])
        if not path.is_file():
            return f"{op.key}: result file {path} not written"
        found = mismatch(res["data"], json.loads(path.read_text(encoding="utf-8")))
        if found:
            return f"{op.key}: {path}: {found}"
    return None


def explicit_product(modata, a, b):
    """ExplicitModel of a Deligne product; its constructor re-validates it."""
    import numpy as np

    nb = b.rank
    r = {(i * nb + i2, j * nb + j2, k * nb + k2): va * vb
         for (i, j, k), va in a.r_scalars.items()
         for (i2, j2, k2), vb in b.r_scalars.items()}
    md = product_data(modata, a.modular_data, b.modular_data)
    fusion = np.einsum("ace,bdf->abcdef", a.fusion, b.fusion).reshape((a.rank * nb,) * 3)
    return modata.oracle.ExplicitModel(
        name=f"{a.name}*{b.name}", labels=md.labels, fusion=fusion,
        twists=np.kron(a.twists, b.twists), r_scalars=r, modular_data=md)
