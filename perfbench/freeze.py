"""Write the frozen references in perfbench/reference/ from this checkout.

    python3 perfbench/freeze.py [workload ...]

Runs every op that has a frozen reference once and stores its exit code and
output (floats cut to 12 significant digits).  Search outputs are stored
without their ``stats`` block and result-file paths, which the benchmark
does not check.  The shipped references were written from the code of the
commit that added the benchmark; regenerating them on other code is a change
of expected answers and has to be argued for as one.
"""
from __future__ import annotations

import json
import sys

import run
import workloads as wl


def project(doc):
    if isinstance(doc, dict) and "results" in doc:
        doc = {k: v for k, v in doc.items() if k != "stats"}
        doc["results"] = [{k: v for k, v in r.items() if k != "file"} for r in doc["results"]]
    return wl.rounded(doc)


def freeze(modata, workload: str) -> None:
    refs = {}
    for op in sorted(wl.make_ops(modata, workload, seed=0), key=lambda o: o.key):
        if op.expect != "frozen":
            continue
        code, stdout, _, _, error = run.run_op(modata.cli, op)
        if error:
            raise SystemExit(error)
        refs[op.key] = {"exit": code, "stdout": project(json.loads(stdout))}
    lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in refs.items()]
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    wl.reference_path(workload).write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"{workload}: {len(refs)} references")


def main(argv: list[str]) -> int:
    modata = wl.load_program()
    for workload in argv or wl.WORKLOADS:
        freeze(modata, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
