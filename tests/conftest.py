import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from modata import ModularData, bantay, catalog_models, derive, get_model, rmatrix
from modata.numerics import DEFAULT_POLICY, principal_sqrt


@pytest.fixture(scope="session")
def pol():
    return DEFAULT_POLICY


@pytest.fixture(scope="session")
def other_branch():
    """A context in which multiplicities and R-blocks take the other square
    root, the negated principal one."""
    def negated(w, pol=DEFAULT_POLICY):
        return -principal_sqrt(w, pol)

    @contextmanager
    def context():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bantay, "principal_sqrt", negated)
            mp.setattr(rmatrix, "principal_sqrt", negated)
            yield

    return context


@pytest.fixture(scope="session")
def entries():
    return catalog_models()


@pytest.fixture(scope="session")
def models():
    return catalog_models()


@pytest.fixture(scope="session")
def derived():
    """name -> (md, DerivedData) for every catalog entry."""
    return {m.name: (m.modular_data, derive(m.modular_data)) for m in catalog_models()}


@pytest.fixture(scope="session")
def rings_dir():
    from importlib import resources

    return resources.files("modata") / "data" / "rings"


@pytest.fixture()
def ising_file(tmp_path):
    from modata import save_modular_data

    path = tmp_path / "ising.json"
    save_modular_data(get_model("ising").modular_data, path, exact_t=True)
    return path


@pytest.fixture()
def bad_ising_file(tmp_path, ising_file):
    """Ising S with T_sigma replaced by e^{i pi/4}: the negative control."""
    doc = json.loads(Path(ising_file).read_text())
    doc["T"][1] = {"abs": 1.0, "arg_turns": "1/8"}
    path = tmp_path / "ising_bad.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="session")
def single_failure_data():
    """check_id -> catalog data perturbed at the 1e-10 level that passes the
    axiom battery and fails realizability on that one check alone."""
    z3 = get_model("z3").modular_data
    E = np.array([[-0.8 - 0.4j, -1.5 + 1.3j, -0.9 - 3.4j],
                  [-1.5 + 1.3j, -0.5 - 5.7j, 0.5 + 1.9j],
                  [-0.9 - 3.4j, 0.5 + 1.9j, 4.9 + 2.9j]])
    data = {"trace_conjugation": ModularData.from_matrices(
        z3.S + 1e-10 * E, z3.T * np.exp(1e-10j * np.array([1.7, 0.2, 2.6])), z3.labels)}
    ising = get_model("ising").modular_data
    for check_id, (i, j), eps in (("derivation", (0, 1), 6e-10),
                                  ("fs_route_agreement", (1, 0), 5e-10)):
        S = ising.S.copy()
        S[i, j] = S[j, i] + eps * 1j
        data[check_id] = ModularData.from_matrices(S, ising.T, ising.labels)
    return data
