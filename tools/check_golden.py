#!/usr/bin/env python3
"""Runs a paper bench and diffs its stdout against a golden file.

Usage: check_golden.py GOLDEN COMMAND [ARG...]

The goldens under bench/golden/ hold each paper bench's stdout byte for
byte. Exits 0 when COMMAND prints exactly GOLDEN. Otherwise it names the
first line that differs, prints both versions of it, and exits 1; a
command that fails exits 1 too. After a change that is meant to move a
paper result, regenerate the golden with `COMMAND > GOLDEN` and list the
changed rows in CHANGES.md.
"""
import subprocess
import sys


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    golden, command = argv[1], argv[2:]
    with open(golden, encoding="utf-8") as f:
        expected = f.read()
    run = subprocess.run(command, stdout=subprocess.PIPE, check=False)
    if run.returncode != 0:
        print(f"FAIL: {' '.join(command)} exited {run.returncode}")
        return 1
    actual = run.stdout.decode("utf-8", errors="replace")
    if actual == expected:
        print(f"OK: output matches {golden}")
        return 0
    want = expected.split("\n")
    got = actual.split("\n")
    # The first differing line; past the shorter text's end, its end.
    line = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b),
                min(len(want), len(got)))
    print(f"FAIL: output differs from {golden} at line {line + 1}")
    print(f"  golden: {want[line] if line < len(want) else '<end of file>'}")
    print(f"  actual: {got[line] if line < len(got) else '<end of output>'}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
