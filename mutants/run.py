"""Run the kept mutants: apply each to a scratch copy and run the tests.

    python mutants/run.py [INDEX ...]

Each entry of mutants.json names a file, a text that occurs exactly once
in it, the text that replaces it, and the outcome the test suite should
give: "killed" (some test fails) or "survives" (an equivalent mutant,
with the reason it changes no behaviour). The runner copies the checkout
to a temporary directory, applies one mutant at a time there, runs
`python -m pytest -x -q` on the copy and prints one line per mutant. It
exits 1 if an outcome differs from the expected one or a text does not
occur exactly once. INDEX picks entries by position; the default is all.
The suite takes about 12 s when no test fails, so a survivor costs that.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", "results", ".work"
)
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]


def run(copy, mutant):
    """The outcome of one mutant, and the first failing test if killed."""
    path = os.path.join(copy, mutant["file"])
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant["old"]) != 1:
        return "not found once", ""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant["old"], mutant["new"]))
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=1800)
        except subprocess.TimeoutExpired:
            return "killed", "(timed out)"
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return ("survives", "") if done.returncode == 0 else ("killed", (failed or ["?"])[0])


def main(argv):
    with open(os.path.join(HERE, "mutants.json"), encoding="utf-8") as fh:
        mutants = json.load(fh)
    chosen = [int(i) for i in argv] or range(len(mutants))
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "checkout")
        shutil.copytree(REPO, copy, ignore=SKIP)
        for i in chosen:
            mutant = mutants[i]
            outcome, by = run(copy, mutant)
            bad += outcome != mutant["expect"]
            mark = "ok " if outcome == mutant["expect"] else "BAD"
            print(f"{i:3} {mark} {outcome:8} {mutant['file']}: {mutant['old']!r} -> "
                  f"{mutant['new']!r} {by}".rstrip(), flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
