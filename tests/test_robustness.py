"""An in-process fuzz of the CLI on mutated catalog documents and rings.

Each datum example changes one to three fields of a catalog datum: S
entries or rows, T entries or length, the rank, the labels, or a dropped or
extra key.  ``validate``, ``check``, ``bantay`` and ``rmatrix`` run on it.
Each ring example changes up to two fields of the shipped Fibonacci or
Ising ring: N entries or planes, the rank, or a dropped or extra key, and
``search`` runs on it with a ``--max-order`` inside or above its range.
Every command runs with and without ``--json``, with warnings turned into
errors: no exception may escape ``cli.main``, the exit code is 0, 1 or 2,
exit 2 prints one ``error:`` line on stderr and nothing on stdout, and
``--json`` output is strict JSON.
"""
import contextlib
import io
import json
import warnings
from importlib import resources

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modata import catalog_names, get_model
from modata.cli import main
from modata.search import MAX_SEARCH_ORDER

NUMBERS = st.one_of(st.floats(), st.integers(), st.integers(-10 ** 400, 10 ** 400))
# a JSON value where a complex entry belongs: valid forms, near misses, junk
COMPLEX = st.one_of(
    st.lists(st.floats(-2, 2), min_size=2, max_size=2),
    st.lists(NUMBERS, min_size=2, max_size=2),
    st.lists(NUMBERS, max_size=3),
    NUMBERS,
    st.fixed_dictionaries({"abs": NUMBERS, "arg_turns": st.one_of(
        st.from_regex(r"-?[0-9]{1,3}/-?[0-9]{1,3}", fullmatch=True), st.text(max_size=4),
        st.integers())}),
    st.one_of(st.none(), st.booleans(), st.text(max_size=3)),
)
ANY = st.one_of(COMPLEX, st.lists(COMPLEX, max_size=3))
KEYS = ("rank", "labels", "S", "T")


@st.composite
def mutated_documents(draw):
    md = get_model(draw(st.sampled_from(catalog_names()))).modular_data
    doc = md.to_json_dict(exact_t=draw(st.booleans()))
    n = md.rank
    for _ in range(draw(st.integers(1, 3))):
        field = draw(st.sampled_from(["S entry", "S row", "T entry", "T length", "rank",
                                      "labels", "drop", "extra"]))
        S, T = doc.get("S"), doc.get("T")
        if field == "S entry" and isinstance(S, list) and S and isinstance(S[0], list) and S[0]:
            row = draw(st.integers(0, len(S) - 1))
            if isinstance(S[row], list) and S[row]:
                S[row][draw(st.integers(0, len(S[row]) - 1))] = draw(COMPLEX)
        elif field == "S row" and isinstance(S, list) and S:
            S[draw(st.integers(0, len(S) - 1))] = draw(st.one_of(
                st.lists(COMPLEX, min_size=n, max_size=n), st.lists(COMPLEX, max_size=n + 1),
                ANY))
        elif field == "T entry" and isinstance(T, list) and T:
            T[draw(st.integers(0, len(T) - 1))] = draw(COMPLEX)
        elif field == "T length" and isinstance(T, list):
            doc["T"] = T[:draw(st.integers(0, n))] + draw(st.lists(COMPLEX, max_size=2))
        elif field == "rank":
            doc["rank"] = draw(st.one_of(st.integers(-2, n + 2), NUMBERS, st.text(max_size=2),
                                         st.none()))
        elif field == "labels":
            doc["labels"] = draw(st.one_of(st.lists(st.text(max_size=3), max_size=n + 1),
                                           st.lists(ANY, max_size=n), ANY))
        elif field == "drop":
            doc.pop(draw(st.sampled_from(KEYS)), None)
        elif field == "extra":
            doc[draw(st.text(max_size=4))] = draw(ANY)
    return doc


@st.composite
def mutated_rings(draw):
    name = draw(st.sampled_from(["fibonacci_ring.json", "ising_ring.json"]))
    doc = json.loads((resources.files("modata") / "data" / "rings" / name).read_text())
    n = doc["rank"]
    entry = st.one_of(st.integers(-1, 3), NUMBERS, ANY)
    for _ in range(draw(st.integers(0, 2))):
        field = draw(st.sampled_from(["entry", "plane", "rank", "drop", "extra"]))
        N = doc.get("N")
        if field == "entry" and isinstance(N, list) and N:
            plane = N[draw(st.integers(0, len(N) - 1))]
            if isinstance(plane, list) and plane:
                row = plane[draw(st.integers(0, len(plane) - 1))]
                if isinstance(row, list) and row:
                    row[draw(st.integers(0, len(row) - 1))] = draw(entry)
        elif field == "plane" and isinstance(N, list) and N:
            N[draw(st.integers(0, len(N) - 1))] = draw(st.one_of(
                st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                         min_size=n, max_size=n),
                st.lists(st.lists(entry, max_size=n + 1), max_size=n + 1), ANY))
        elif field == "rank":
            doc["rank"] = draw(st.one_of(st.integers(-1, n + 2), NUMBERS, st.text(max_size=2),
                                         st.none()))
        elif field == "drop":
            doc.pop(draw(st.sampled_from(["rank", "N"])), None)
        elif field == "extra":
            doc[draw(st.text(max_size=4))] = draw(ANY)
    return doc


def reject(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run_and_check(argv):
    """Run one CLI call under both output forms and check what it prints."""
    for flags in ((), ("--json",)):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([*flags, *argv])
        assert code in (0, 1, 2), (argv, flags, code)
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1, err.getvalue()
        elif flags:
            json.loads(out.getvalue(), parse_constant=reject)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_documents())
def test_mutated_catalog_documents(tmp_path, doc):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(doc))
    for cmd in ("validate", "check", "bantay", "rmatrix"):
        run_and_check([cmd, str(path)])


# the orders up to 64 search in milliseconds; at the bound itself the root
# table alone takes about 2 s, so the range is probed only from above
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_rings(),
       q=st.one_of(st.integers(-2, 64), st.integers(MAX_SEARCH_ORDER + 1, 10 ** 20)))
def test_mutated_rings(tmp_path, doc, q):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    run_and_check(["search", str(path), "--max-order", str(q), "--out", str(tmp_path / "r")])
