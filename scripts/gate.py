#!/usr/bin/env python3
"""The parent-versus-change gates of a change, in one command.

    python3 scripts/gate.py PARENT_REF

PARENT_REF is a git revision of this checkout; the change is the working
tree this script lives in, uncommitted edits included.  The script writes
the parent's files with ``git archive`` into a temporary directory, then,
one tree after the other:

* runs the tier-1 suite, ``python -m pytest -q --continue-on-collection-errors``
  with ``PYTHONPATH`` set to the tree's ``src``, and ``python -m pytest
  perfbench/tests``, and prints every test that failed or errored in each;
* fails when the change passes fewer tier-1 tests than the parent, or when a
  perfbench test fails at the change but not at the parent;
* runs ``scripts/compare_runs.py PARENT CHANGE --seeds 0-19 --chain-seed 7``
  from the change, and fails when it exits non-zero;
* prints ``wc -l src/linkquery/*.py`` for both trees.

It exits 0 when every gate holds, else 1.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

CHANGE = Path(__file__).resolve().parent.parent
TIER1 = ["-q", "--continue-on-collection-errors"]
PERFBENCH = ["-q", "perfbench/tests"]


def run_suite(tree: Path, args: list[str]) -> tuple[int, list[str]]:
    """The number of tests the suite passed in ``tree``, and the ids of those that failed or errored."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-rfE", "-p", "no:cacheprovider", *args],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    passed = re.search(r"(\d+) passed", summary)
    failed = [line.split(" - ")[0] for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    print(f"  {tree}: {summary}")
    for line in failed:
        print(f"    {line}")
    return (int(passed.group(1)) if passed else 0), failed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="git revision of the parent")
    args = ap.parse_args(argv)
    ok = True
    with tempfile.TemporaryDirectory(prefix="gate-parent-") as tmp:
        parent = Path(tmp)
        archive = subprocess.run(["git", "archive", args.parent], cwd=CHANGE, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive.stdout, check=True)
        print("tier-1:")
        (old_passed, _), (new_passed, _) = (run_suite(tree, TIER1) for tree in (parent, CHANGE))
        if new_passed < old_passed:
            print(f"  FAIL: the change passes {new_passed} tier-1 tests, the parent {old_passed}")
            ok = False
        print("perfbench:")
        (_, old_failed), (_, new_failed) = (run_suite(tree, PERFBENCH) for tree in (parent, CHANGE))
        newly = sorted(set(new_failed) - set(old_failed))
        if newly:
            print(f"  FAIL: failing at the change only: {', '.join(newly)}")
            ok = False
        print("compare_runs:")
        compare = subprocess.run(
            [sys.executable, str(CHANGE / "scripts" / "compare_runs.py"), str(parent), str(CHANGE),
             "--seeds", "0-19", "--chain-seed", "7"],
            cwd=CHANGE, capture_output=True, text=True,
        )
        print("  " + "\n  ".join((compare.stdout + compare.stderr).strip().splitlines()[-12:]))
        if compare.returncode != 0:
            print(f"  FAIL: compare_runs.py exited {compare.returncode}")
            ok = False
        for label, tree in (("parent", parent), ("change", CHANGE)):
            files = sorted(str(p.relative_to(tree)) for p in (tree / "src" / "linkquery").glob("*.py"))
            wc = subprocess.run(["wc", "-l", *files], cwd=tree, capture_output=True, text=True, check=True)
            print(f"wc -l src/linkquery/*.py, {label}:\n{wc.stdout.rstrip()}")
    print("gate: ok" if ok else "gate: FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
