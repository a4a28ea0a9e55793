"""Golden output corpus: fixed CLI runs whose output must not change.

Each case runs cli.main in an empty directory and compares its exit
code, stdout, stderr and every file it writes with tests/data/golden.json.
Most outputs come from correctly rounded IEEE operations and are compared
by sha256. The sweep's .fit.json and a winding's field map go through
BLAS dot products and sums, whose rounding can differ between builds,
so those files are compared by value:

- A within 1e-13 of the largest |A| of the file;
- B and max_B_magnitude within 1e-14 T (the bore B is rounding noise
  of about 1e-16 T);
- every other number within 1e-8 relative;
- comment and column-header lines exactly.

A change that alters output on purpose regenerates the corpus with

    PYTHONPATH=src python tests/test_golden.py

and says which entries changed, and why, in the same diff.
"""

from contextlib import redirect_stderr, redirect_stdout
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import pytest

from coilfringe.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden.json")

CURRENT = {"current_A": 2.5}
IDEAL = {"coil": {"type": "ideal"}, "current_A": 2.5}
WINDING = {"coil": {"type": "winding", "L_m": 2.0}, "current_A": 2.5}
BOX = "--region=-0.02,0.02,-0.02,0.02,-0.05,0.05"

# name: (scenario written to scen.json and passed as --config, or None;
#        argv; the files compared by value)
CASES = {
    "reproduce-text": (None, ["reproduce-paper"], ()),
    "reproduce-strict": (None, ["reproduce-paper", "--tolerance-profile", "strict"], ()),
    "reproduce-json-stdout": (None, ["reproduce-paper", "--format", "json"], ()),
    "reproduce-json-file": (
        None, ["reproduce-paper", "--format", "json", "--out", "report.json"], ()),
    "diffract-default": (None, ["diffract"], ()),
    "diffract-csv": (CURRENT, ["diffract", "--out", "fringes.csv"], ()),
    "diffract-json": (CURRENT, ["diffract", "--format", "json", "--out", "fringes.json"], ()),
    "diffract-ideal": (IDEAL, ["diffract", "--k-max", "5", "--out", "fringes.csv"], ()),
    "diffract-infeasible": ({"grating_screen": {"a_m": 1e-11}}, ["diffract"], ()),
    "validate-winding": (None, ["validate-coil"], ()),
    "validate-ideal": (IDEAL, ["validate-coil"], ()),
    # 2001 rows, those below about -12.7 A outside the model domain
    "sweep-current": (
        None,
        ["sweep", "--from", "-20", "--to", "20", "--step", "0.02", "--out", "sweep.csv"],
        ("sweep.csv.fit.json",),
    ),
    "sweep-voltage": (
        CURRENT,
        ["sweep", "--variable", "voltage", "--from", "1000", "--to", "50000",
         "--step", "1000", "--out", "sweep.csv"],
        (),
    ),
    "field-map-winding": (
        WINDING, ["field-map", BOX, "--grid", "2,2,3", "--out", "map.csv"],
        ("map.csv", "map.csv.homogeneity.json"),
    ),
    "field-map-ideal": (
        IDEAL, ["field-map", BOX, "--grid", "2", "--out", "map.csv"],
        ("map.csv", "map.csv.homogeneity.json"),
    ),
}

A_KEYS = frozenset({"Ax", "Ay", "Az", "mean_A"})
B_KEYS = frozenset({"Bx", "By", "Bz", "max_B_magnitude"})


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _values(name, text):
    """A file compared by value, as its exact lines and its numbers by key."""
    if name.endswith(".json"):
        numbers = {}
        for key, value in json.loads(text).items():
            items = value if isinstance(value, list) else [value]
            numbers[key] = [float(v) for v in items]
        return {"lines": [], "numbers": numbers}
    lines = text.splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    columns = lines[body[0]].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[body[0] + 1:]]
    return {
        "lines": lines[:body[0] + 1],
        "numbers": {c: [row[j] for row in rows] for j, c in enumerate(columns)},
    }


def run_case(name, directory):
    """Run one case in directory; its record as stored in the corpus."""
    scenario, argv, by_value = CASES[name]
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        if scenario is not None:
            with open("scen.json", "w", encoding="utf-8") as fh:
                json.dump(scenario, fh)
            argv = argv + ["--config", "scen.json"]
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        record = {"exit": code, "stdout": _sha(out.getvalue()),
                  "stderr": _sha(err.getvalue()), "files": {}, "values": {}}
        for path in sorted(os.listdir()):
            if path == "scen.json":
                continue
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if path in by_value:
                record["values"][path] = _values(path, text)
            else:
                record["files"][path] = _sha(text)
    finally:
        os.chdir(cwd)
    return record


def _within(key, got, want, a_scale):
    if key in A_KEYS:
        return abs(got - want) <= 1e-13 * a_scale
    if key in B_KEYS:
        return abs(got - want) <= 1e-14
    return math.isclose(got, want, rel_tol=1e-8, abs_tol=0.0)


def _load():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    want = _load()[name]
    got = run_case(name, tmp_path)
    for key in ("exit", "stdout", "stderr", "files"):
        assert got[key] == want[key], key
    assert got["values"].keys() == want["values"].keys()
    for path, expected in want["values"].items():
        actual = got["values"][path]
        assert actual["lines"] == expected["lines"], path
        assert actual["numbers"].keys() == expected["numbers"].keys(), path
        a_scale = max(
            (abs(v) for k in A_KEYS & expected["numbers"].keys() for v in expected["numbers"][k]),
            default=0.0,
        )
        for key, values in expected["numbers"].items():
            assert len(actual["numbers"][key]) == len(values), (path, key)
            for g, w in zip(actual["numbers"][key], values):
                assert _within(key, g, w, a_scale), (path, key, g, w)


def test_corpus_has_every_case():
    assert sorted(_load()) == sorted(CASES)


if __name__ == "__main__":
    corpus = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            corpus[case] = run_case(case, tmp)
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(corpus, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(corpus)} cases to {DATA}", file=sys.stderr)
