"""Generated CLI boundaries: every command ends in exit 0, 1 or 2.

Scenario dicts and arguments are drawn from the float range's edges and
from values of the wrong type; the work caps are patched small so that
no example is slow. Hypothesis draws a seed, and each case is built from
it with fixed odds, so that most cases get past the scenario checks to
the model. Each example runs cli.main in-process in its own temporary
directory.

Output sinks are drawn too: a stdout that works, raises EPIPE or ENOSPC,
or is None, and an --out that works, lies under a regular file or in a
missing directory, names a directory, or is a symlink. A run then
leaves all of its files or none.
"""

import contextlib
import copy
import errno
import io
import json
import math
import os
import random
import re
import sys
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from coilfringe import diffraction, ideal_field, scenario, winding
from coilfringe.cli import main

EDGES = [0, -0.0, 1e308, -1e308, 1e-308, -1e-308, 1e-320, -1e-320]
EXTREMES = EDGES + [
    math.nan, math.inf, -math.inf, 10**400, -(10**400),
    True, False, "1.0", [1.0], {"value": 1.0}, None,
]
# a float as the CLI reads it: "nan", "inf", "1e-320", ...
ARG_FLOATS = [0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 1e-308, 1e-320, math.nan, math.inf, -math.inf]
NON_FINITE = re.compile(r"(?i)(?<![\w.])[-+]?(nan|inf|infinity)(?![\w.])")

# values the model runs on, per key
SENSIBLE = {
    "coil": {
        "R1_m": [0.1, 0.01], "R2_m": [0.12, 0.5], "L_m": [12.0, 2.0],
        "turn_density_per_m": [2000.0, 200.0], "wire_diameter_m": [1e-3, 1e-4],
        "N_turns": [1257, 10**12],
    },
    "beam": {"U_V": [30e3, 1e3, 1e6], "beam_width_m": [1e-3, 1e-6]},
    "grating_screen": {"a_m": [2.55e-10, 1e-11, 1e-6], "D_m": [0.1, 10.0]},
}
IDEAL_KEYS = {"R1_m", "R2_m", "turn_density_per_m", "N_turns"}
LAYERS = [(2, [1, -1]), (1, [1]), (3, [1, -1, 1])]


def mostly(rnd, values, edges, p_edge=0.25):
    """One of values, or with probability p_edge one of edges."""
    return rnd.choice(edges if rnd.random() < p_edge else values)


def scenario_dict(rnd):
    """A scenario with values the model runs on, then up to two of its
    values, or a whole section, replaced by an edge of the float range or
    a value of the wrong type."""
    data = {"current_A": rnd.choice([0.0, 2.5, -20.0, 1e-9, 1e6])}
    ctype = mostly(rnd, ["winding", "ideal"], ["torus", 1], 0.1)
    data["coil"] = {"type": ctype}
    for name, keys in SENSIBLE.items():
        section = data.setdefault(name, {})
        for key, values in keys.items():
            if (key in IDEAL_KEYS) if ctype == "ideal" else key != "N_turns":
                if rnd.random() < 0.3:
                    section[key] = rnd.choice(values)
    if ctype == "winding" and rnd.random() < 0.5:
        layers, helicity = rnd.choice(LAYERS)
        data["coil"].update(layers=layers, helicity_sign_per_layer=list(helicity))
    for _ in range(rnd.choice([0, 0, 1, 2])):
        name = mostly(rnd, ["coil", "beam", "grating_screen", "current_A"], ["top"], 0.1)
        # a finite edge, which passes the scenario checks more often, or
        # any extreme, copied as the list and the dict are mutable
        bad = copy.deepcopy(mostly(rnd, EDGES, EXTREMES, 0.5))
        if name == "current_A":
            data[name] = bad
        elif name == "top":
            data.update(rnd.choice([{"schema_version": 2}, {"unknown": 1}, {"beam": bad}]))
        elif isinstance(data[name], dict):
            keys = sorted(SENSIBLE[name])
            if name == "coil":
                keys += ["layers", "helicity_sign_per_layer"]
            data[name][mostly(rnd, keys, ["type", "unknown"], 0.1)] = bad
    return data


def command_argv(rnd):
    """(argv, required, optional): one command, the files it writes on
    exit 0 and those it may write then."""
    command = rnd.choice(["diffract", "validate-coil", "sweep", "field-map"])
    argv = [command, "--config", "scenario.json"]
    if command == "diffract":
        fmt = rnd.choice(["csv", "json"])
        argv += ["--format", fmt, f"--k-max={mostly(rnd, [3, 1, 36], [0, 50, 51, 10**30])}"]
        if rnd.random() < 0.25:
            return argv, set(), set()
        argv += ["--out", "o.out"]
        return argv, {"o.out", "o.out.summary.json"} if fmt == "csv" else {"o.out"}, set()
    if command == "validate-coil":
        factor = mostly(rnd, [10.0, 1e-300, 1e300], ARG_FLOATS)
        return argv + [f"--geometry-factor={factor!r}"], set(), set()
    if command == "sweep":
        variable = rnd.choice(["current", "voltage"])
        span = [-20.0, 10.0, 1.0] if variable == "current" else [1000.0, 30e3, 1000.0]
        if rnd.random() < 0.4:
            span[rnd.randrange(3)] = rnd.choice(ARG_FLOATS)
        argv += ["--out", "o.csv", "--variable", variable]
        argv += [f"--{name}={value!r}" for name, value in zip(("from", "to", "step"), span)]
        # the fit sidecar is written only when the valid rows determine a fit
        return argv, {"o.csv"}, {"o.csv.fit.json"}
    # a box of half sides from 1e-19 m to R1, centred near the axis
    centre = (mostly(rnd, [0.0], [1e-19, 0.005, -0.05]), mostly(rnd, [0.0], [-1e-12, 0.005]),
              mostly(rnd, [0.0, 0.5, -0.9], [-5.9, 6.0, 100.0]))
    half = [mostly(rnd, [10.0**e for e in range(-19, 0)], [0.0, 0.0999, 0.1], 0.1)
            for _ in range(3)]
    region = ",".join(f"{c - h!r},{c + h!r}" for c, h in zip(centre, half))
    argv += ["--out", "o.csv", f"--region={region}",
             "--grid", mostly(rnd, ["2", "3", "2,3,2"], ["1", "50", "2,2", "x"], 0.15),
             "--segments-per-turn", mostly(rnd, ["8", "4", "12"], ["3", "0"], 0.1)]
    return argv, {"o.csv", "o.csv.homogeneity.json"}, set()


def run(argv):
    """(exit code, stdout, stderr, warnings) of main(argv); argparse exits are 2."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected an option
            assert exc.code == 2, argv
            code = "argparse"
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


@pytest.fixture
def small_caps(monkeypatch):
    # the reference winding (10056 segments at 8 per turn) still fits
    monkeypatch.setattr(ideal_field, "MAX_SEGMENTS", 20_000)
    monkeypatch.setattr(winding, "MAX_GRID_POINTS", 1_000)
    monkeypatch.setattr(winding, "MAX_FIELD_PAIRS", 100_000)
    monkeypatch.setattr(scenario, "MAX_SWEEP_POINTS", 1_000)
    monkeypatch.setattr(diffraction, "MAX_ORDERS", 50)


@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**64 - 1))
def test_every_command_ends_in_a_documented_exit(small_caps, seed):
    rnd = random.Random(seed)
    scen, (argv, required, optional) = scenario_dict(rnd), command_argv(rnd)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("scenario.json", "w", encoding="utf-8") as fh:
                fh.write(json.dumps(scen))
            code, out, err, caught = run(argv)
            left = set(os.listdir(tmp)) - {"scenario.json"}
            texts = []
            for name in left:
                with open(name, encoding="utf-8") as fh:
                    texts.append(fh.read())
        finally:
            os.chdir(cwd)
    case = (argv, scen, code, err)
    assert caught == [], case
    assert not any(name.endswith(".tmp") for name in left), case
    if code == "argparse":
        assert left == set(), case
        return
    assert code in (0, 1, 2), case
    # one line naming the failure, which says the exit code
    lines = err.splitlines()
    if code == 0:
        assert lines == [], case
    elif code == 1:
        assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), case
    else:
        assert len(lines) == 1, case
        assert lines[0].startswith(("configuration error: ", "usage error: ")), case
    if code != 0:
        # only validate-coil reports a failed check on stdout, with no error line
        if lines or argv[0] != "validate-coil":
            assert out == "", case
        assert left == set(), case
        return
    assert required <= left <= required | optional, case
    # a geometry ratio is compared with the factor, so an infinite one
    # (the ideal coil has no length) is a finite answer to "is it >> 1?"
    printed = [line for line in out.splitlines() if not line.startswith("geometry ")]
    for text in printed + texts:
        assert NON_FINITE.search(text) is None, (case, text[:300])


# commands that print to stdout, each with the suffixes of the sidecars it
# writes beside its --out, or None if it is run without --out
SINK_COMMANDS = [
    (["reproduce-paper"], None),
    (["reproduce-paper", "--format", "json"], ()),
    (["diffract", "--config", "scenario.json"], None),
    (["diffract", "--config", "scenario.json"], (".summary.json",)),
    (["diffract", "--config", "scenario.json", "--format", "json"], ()),
    (["sweep", "--config", "scenario.json", "--from=-1", "--to=1", "--step=0.5"], (".fit.json",)),
    (["field-map", "--config", "scenario.json", "--region=-0.02,0.02,-0.02,0.02,-0.02,0.02",
      "--grid", "2"], (".homogeneity.json",)),
]
# a stdout that works, or the errno its writes raise, or None (fd 1 closed)
STDOUT_SINKS = ["fine", errno.EPIPE, errno.ENOSPC, None]
# each --out: "f" is a regular file and "d" a directory of the run
# directory, and the link "l.out" points to "t/target.out"
OUT_SINKS = ["o.out", "f/o.out", "missing/o.out", "d", "l.out"]
# the errno of each --out that cannot be written
OUT_FAULTS = {"f/o.out": errno.ENOTDIR, "missing/o.out": errno.ENOENT, "d": errno.EISDIR}


class FaultyStdout:
    """A stdout without a descriptor whose every write raises an OSError."""

    def __init__(self, code):
        self.code = code

    def write(self, text):
        raise OSError(self.code, os.strerror(self.code))

    def flush(self):
        pass


def tree(root):
    """Every path under root, relative to it, directories ending in '/'."""
    found = set()
    for dirpath, dirnames, filenames in os.walk(root):
        rel = os.path.relpath(dirpath, root)
        found.update(os.path.normpath(os.path.join(rel, d)) + "/" for d in dirnames)
        found.update(os.path.normpath(os.path.join(rel, f)) for f in filenames)
    return found


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(SINK_COMMANDS), stdout_sink=st.sampled_from(STDOUT_SINKS),
       out_sink=st.sampled_from(OUT_SINKS))
def test_every_sink_fault_is_exit_2_with_all_files_or_none(tmp_path, command, stdout_sink,
                                                           out_sink):
    argv, sidecars = command
    out = None if sidecars is None else out_sink
    run_dir = tempfile.mkdtemp(dir=tmp_path)
    with open(os.path.join(run_dir, "scenario.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"current_A": 2.5}))
    with open(os.path.join(run_dir, "f"), "w", encoding="utf-8") as fh:
        fh.write("a regular file\n")
    os.mkdir(os.path.join(run_dir, "d"))
    os.mkdir(os.path.join(run_dir, "t"))
    os.symlink(os.path.join("t", "target.out"), os.path.join(run_dir, "l.out"))
    before = tree(run_dir)
    stdout = io.StringIO() if stdout_sink == "fine" else (
        None if stdout_sink is None else FaultyStdout(stdout_sink))
    err = io.StringIO()
    cwd, saved = os.getcwd(), sys.stdout
    os.chdir(run_dir)
    try:
        sys.stdout = stdout
        with contextlib.redirect_stderr(err):
            code = main(argv if out is None else argv + ["--out", out])
    finally:
        sys.stdout = saved
        os.chdir(cwd)
    after = tree(run_dir)
    case = (argv, out, stdout_sink, code, err.getvalue())
    assert not any(name.endswith(".tmp") for name in after), case
    lines = err.getvalue().splitlines()
    if out in OUT_FAULTS:
        assert code == 2, case
        assert lines == [f"configuration error: cannot write {out}: "
                         f"{os.strerror(OUT_FAULTS[out])}"], case
        assert after == before, case
    elif stdout_sink != "fine":
        reason = os.strerror(errno.EBADF if stdout_sink is None else stdout_sink)
        assert code == 2, case
        assert lines == [f"configuration error: cannot write stdout: {reason}"], case
        assert after == before, case
    else:
        assert code == 0 and lines == [] and stdout.getvalue(), case
        written = set() if out is None else {
            "t/target.out" if out == "l.out" else out, *(out + s for s in sidecars)}
        assert after == before | written, case
        assert os.path.islink(os.path.join(run_dir, "l.out")), case
