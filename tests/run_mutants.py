"""Run the mutation catalogue of ``tests/mutants.py``.

    python tests/run_mutants.py [NAME ...]

The listed tests first run against an unmodified copy of ``src/`` and must
pass there.  Then, for each entry (or each one named), ``src/`` is copied
to a fresh temporary directory, the entry's text is replaced in the copy,
and its tests run with ``pytest -x -q`` and ``PYTHONPATH=<copy>/src``.  A
mutant is killed when a test fails.  The exit status is non-zero when a
mutant survives, when an entry's text is not found exactly once (a stale
entry), or when pytest ends any other way (a collection error, an unknown
test id).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
TESTS_FAILED = 1  # pytest's exit status when a test failed


def run_tests(src: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", *tests],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )


def copy_src(into: Path) -> Path:
    shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return into / "src"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {sorted(unknown)}")
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = run_tests(copy_src(Path(tmp)), tuple(dict.fromkeys(t for m in chosen for t in m.tests)))
        if clean.returncode != 0:
            print(f"the listed tests do not pass on the unmodified source:\n{clean.stdout}{clean.stderr}")
            return 1
    for mutant in chosen:
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(Path(tmp))
            path = src / mutant.path
            text = path.read_text()
            found = text.count(mutant.text)
            if found != 1:
                print(f"STALE     {mutant.name}: its text is found {found} times in {mutant.path}")
                failures += 1
                continue
            path.write_text(text.replace(mutant.text, mutant.replacement))
            result = run_tests(src, mutant.tests)
        if result.returncode == TESTS_FAILED:
            print(f"killed    {mutant.name}")
        elif result.returncode == 0:
            print(f"SURVIVED  {mutant.name}: {', '.join(mutant.tests)} pass on the mutant")
            failures += 1
        else:
            print(f"ERROR     {mutant.name}: pytest exited {result.returncode}\n{result.stdout}{result.stderr}")
            failures += 1
    print(f"{len(chosen) - failures} of {len(chosen)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
