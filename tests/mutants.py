"""Mutants of the package that the tests must kill, and their runner.

Each mutant is one exact edit of one source file under ``src/equicoh``: a
text that occurs there exactly once, its replacement, and the test files
expected to fail on the mutated program.  The runner copies ``src`` to a
temporary directory, applies one mutant, runs the named test files against
the copy in a fresh interpreter, and reports whether they failed (the
mutant is killed) or passed (it survived).  It uses the standard library
only and leaves the repository untouched.

Run it from the repository root, on demand (it is not part of the test
suite; ``tests/test_demos.py`` only checks that each text still occurs
exactly once):

    python3 tests/mutants.py           # every mutant
    python3 tests/mutants.py 0 3       # the mutants at these indices
    python3 tests/mutants.py --list    # the table, without running it

It prints one line per mutant and exits 1 when any mutant survived or its
tests could not run.  The table only grows: a mutant is removed or rewritten
only with a stated reason.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/equicoh
    text: str
    replacement: str
    tests: tuple[str, ...]  # relative to the repository root


MUTANTS = (
    Mutant(
        "a point's localization pole doubled",
        "s1.py",
        '{"c": (1, weight_product(comp))}',
        '{"c": (2, weight_product(comp))}',
        ("tests/test_s1.py",),
    ),
    Mutant(
        "a dim-4 piece's surface ratio keyed on not-max",
        "xray.py",
        'places[vertex.id] == "min"',
        'places[vertex.id] != "max"',
        ("tests/test_xray.py",),
    ),
    Mutant(
        "the unimodular completion transposed",
        "mpoly.py",
        "    return V\n",
        "    return [list(column) for column in zip(*V)]\n",
        ("tests/test_xray.py",),
    ),
    Mutant(
        "the record check without its vanishing rule",
        "core.py",
        'raise InputError(f"{where}: {why}")',
        "pass",
        ("tests/test_s1.py",),
    ),
    # The part's power is computed only for a nonzero polynomial, inside the
    # homogeneity test, so the mutant disables that whole line.
    Mutant(
        "the record check without its homogeneity rule",
        "core.py",
        "if value.terms and not value.is_homogeneous(power := part_power(part, degree)):",
        "if False:",
        ("tests/test_s1.py",),
    ),
    Mutant(
        "the surface sign at the minimum flipped",
        "s1.py",
        'return (-1, e_min) if graph._places[surface.id] == "min" else (1, e_max)',
        'return (1, e_min) if graph._places[surface.id] == "min" else (1, e_max)',
        ("tests/test_s1.py",),
    ),
    Mutant(
        "max in place of lcm in the table's denominator",
        "s1.py",
        "denominator = lcm(denominator, den)",
        "denominator = max(denominator, den)",
        ("tests/test_s1.py",),
    ),
    Mutant(
        "the upper surface's H^1 factor flipped",
        "s1.py",
        'rules(upper.id, "c1", j)[0].append((head, -1))',
        'rules(upper.id, "c1", j)[0].append((head, 1))',
        ("tests/test_s1.py",),
    ),
    Mutant(
        "a division met at every power",
        "s1.py",
        "if not exps[0]:",
        "if True:",
        ("tests/test_s1.py", "tests/test_xray.py"),
    ),
    Mutant(
        "a pole kept at power zero",
        "s1.py",
        "if power < 0:",
        "if power <= 0:",
        ("tests/test_s1.py", "tests/test_xray.py"),
    ),
    Mutant(
        "no component placed at the maximum",
        "graph.py",
        '"min" if n == lo else "max" if n == hi else "interior"',
        '"min" if n == lo else "interior"',
        ("tests/test_graph.py",),
    ),
    Mutant(
        "resolution's extremal labels swapped",
        "graph.py",
        'dict(zip(("min", "max"), self._labels))',
        'dict(zip(("max", "min"), self._labels))',
        ("tests/test_graph.py",),
    ),
    Mutant(
        "validation's extremal labels swapped",
        "graph.py",
        'dict(zip(("min", "max"), graph._labels))',
        'dict(zip(("max", "min"), graph._labels))',
        ("tests/test_graph.py",),
    ),
    Mutant(
        "an edge read at its start twice",
        "graph.py",
        "levels[e.start], levels[e.end]",
        "levels[e.start], levels[e.start]",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "the extremal areas swapped in the labels",
        "graph.py",
        'ends["min"], ends["max"]',
        'ends["max"], ends["min"]',
        ("tests/test_graph.py",),
    ),
    Mutant(
        "the H^1 keys skipped",
        "s1.py",
        "if h1 and len(graph.surfaces) == 2:",
        "if False:",
        ("tests/test_s1.py",),
    ),
    Mutant(
        "the coefficient dropped from a routed term",
        "s1.py",
        "        t *= c\n        if not exps[0]:",
        "        if not exps[0]:",
        ("tests/test_s1.py", "tests/test_xray.py"),
    ),
    Mutant(
        "the coefficient dropped from a localization term",
        "s1.py",
        "            t *= c\n            for shift, n in poles:",
        "            for shift, n in poles:",
        ("tests/test_s1.py",),
    ),
)


def occurrences(mutant: Mutant, src: Path) -> int:
    """How often the mutant's text occurs in its file under ``src``."""
    return (src / "equicoh" / mutant.file).read_text(encoding="utf-8").count(mutant.text)


def run(mutant: Mutant) -> tuple[str, str]:
    """("killed" | "SURVIVED" | "ERROR", detail) of one mutant."""
    with tempfile.TemporaryDirectory(prefix="equicoh-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if occurrences(mutant, src) != 1:
            return "ERROR", f"its text occurs {occurrences(mutant, src)} times in {mutant.file}"
        path = src / "equicoh" / mutant.file
        path.write_text(
            path.read_text(encoding="utf-8").replace(mutant.text, mutant.replacement),
            encoding="utf-8",
        )
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
    lines = done.stdout.strip().splitlines()
    last = lines[-1] if lines else done.stderr.strip()
    # pytest exits 1 when a test failed and 0 when all passed; any other
    # status means the tests did not run to a verdict
    verdict = {0: "SURVIVED", 1: "killed"}.get(done.returncode, "ERROR")
    return verdict, last


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("indices", nargs="*", type=int, help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the table and exit")
    args = parser.parse_args(argv)
    chosen = args.indices or range(len(MUTANTS))
    failed = 0
    for i in chosen:
        mutant = MUTANTS[i]
        if args.list:
            print(f"{i}: {mutant.name} ({mutant.file}; {', '.join(mutant.tests)})")
            continue
        verdict, detail = run(mutant)
        failed += verdict != "killed"
        print(f"{i}: {verdict}: {mutant.name}: {detail}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
