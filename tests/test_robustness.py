"""An in-process fuzz of the CLI on mutated catalog documents.

Each example changes one to three fields of a catalog datum: S entries or
rows, T entries or length, the rank, the labels, or a dropped or extra key.
``validate``, ``check``, ``bantay`` and ``rmatrix`` run on it with and
without ``--json``, with warnings turned into errors: no exception may
escape ``cli.main``, the exit code is 0, 1 or 2, and ``--json`` output is
strict JSON.
"""
import contextlib
import io
import json
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modata import catalog_names, get_model
from modata.cli import main

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


def reject(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_documents())
def test_mutated_catalog_documents(tmp_path, doc):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(doc))
    for cmd in ("validate", "check", "bantay", "rmatrix"):
        for flags in ((), ("--json",)):
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = main([*flags, cmd, str(path)])
            assert code in (0, 1, 2), (cmd, flags, code)
            if code == 2:
                assert out.getvalue() == "" and err.getvalue().startswith("error: ")
            elif flags:
                json.loads(out.getvalue(), parse_constant=reject)
