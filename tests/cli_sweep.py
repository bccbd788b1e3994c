"""The CLI byte sweep: each case's exit code and the sha256 of every byte it writes.

Every case runs as a fresh ``python -m edgecurrents.cli`` process in an empty
temporary directory and prints one line: its exit code, then the sha256 of
its stdout, its stderr, its ``--out`` file and that file's ``.json`` sidecar
(``-`` where none was written), then its arguments.  To compare two trees,
sweep each with its own ``src`` on ``PYTHONPATH`` and diff the outputs; the
path must be absolute, since every case runs in its own directory::

    PYTHONPATH=$PWD/parent/src python tests/cli_sweep.py > parent.txt
    PYTHONPATH=$PWD/change/src python tests/cli_sweep.py > change.txt
    diff parent.txt change.txt

``--cheap`` leaves out the large cases (2e4-row tables, ``--solve 5``).  The
script imports no library code, so a sweep sees only the CLI; the tests run
the cheap cases in process and check their exit codes.  ``--out`` paths are
relative, so that error messages that name them are the same bytes in every
run.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from typing import NamedTuple


class Case(NamedTuple):
    argv: str  # split on spaces
    code: int  # the exit code the CLI documents for it
    dirs: tuple[str, ...] = ()  # directories made in the empty working directory first
    large: bool = False


GAMMAS = ("0", "inf", "0.5", "-0.5", "2", "-3", "-1e200", "1.000000001", "-0.999999999")

CASES = [
    # the README's commands
    Case("spectrum --m 1 --gamma 2 --k-min -2 --k-max 2 --points 41", 0),
    Case("profile --m 1 --gamma 2 --x-min 0.1 --x-max 5 --points 50", 0),
    Case("oracle --m 1 --gamma 2 --x 0.7 --what edge", 0),
    Case("oracle --m 1 --gamma 2 --x 1.0 --what bulk", 0),
    Case("oracle --m 1 --x 1.0 --what branch-cut", 0),
    Case("constraints --gammas 2,-0.5", 0),
    Case("constraints --solve 2 --fix 2", 0),
    Case("constraints --solve 3 --fix 2", 0),
    Case("dual --m 1 --gamma 0 --which reflection", 0),
    # profile and spectrum tables across m and the projective line of gamma
    *[Case(f"profile --m {m} --gamma {g} --points 7", 0)
      for m in ("-1.3", "0", "1e-3", "2") for g in GAMMAS],
    *[Case(f"spectrum --m {m} --gamma {g} --points 9", 0)
      for m in ("-1.3", "0", "2") for g in GAMMAS],
    Case("spectrum --m 1 --gamma 1 --points 9", 0),
    Case("spectrum --m 1 --gamma 2 --k-min -1e300 --k-max 1e300 --points 9", 0),
    # x from 1e-300 to 1e300: 1/x^2 overflows and underflows
    *[Case(f"profile --m {m} --gamma {g} --x-min 1e-300 --x-max 1e300 --points 61", 0)
      for m in ("1", "-1") for g in ("0", "inf", "2", "-0.5")],
    # the delta' ln(Lambda) coefficient
    *[Case(f"profile --m 1 --gamma 2 --points 3 --lambda {lam}", 0)
      for lam in ("100", "2.5", "1e300", "1.0000000000000002")],
    *[Case(f"profile --m 1 --gamma 2 --points 3 --lambda {lam}", 2)
      for lam in ("1", "0.5", "0", "-1", "inf", "nan")],
    # tables written to --out, with profile's sidecar
    Case("profile --m 1 --gamma 2 --points 7 --out table.csv", 0),
    Case("spectrum --m 1 --gamma 2 --points 7 --out table.csv", 0),
    *[Case(f"profile --m {m} --gamma {g} --x-min 1e-3 --x-max 60 --points 20000 --out table.csv",
           0, large=True) for m, g in (("1", "2"), ("-0.7", "-3"), ("0", "0.5"), ("1.5", "inf"))],
    Case("profile --m 1 --gamma -0.5 --x-min 1e-300 --x-max 1e300 --points 20000 --out t.csv", 0,
         large=True),
    *[Case(f"spectrum --m {m} --gamma {g} --k-min -3 --k-max 3 --points 20000 --out table.csv",
           0, large=True) for m, g in (("1", "2"), ("-0.7", "-3"), ("1.5", "inf"))],
    # constraints reports and solves, n = 2 to 5
    Case("constraints --gammas 2,-0.5,inf,0", 0),
    Case("constraints --gammas -1e200,inf", 0),
    Case("constraints --gammas 0.5", 0),
    Case("constraints --gammas 2,0.5,-2,-0.5", 0),
    Case("constraints --solve 2", 0),
    Case("constraints --solve 2 --fix 0.5", 0),
    Case("constraints --solve 2 --fix inf", 0),
    Case("constraints --solve 3", 0),
    Case("constraints --solve 3 --fix 2,-0.5", 0),
    Case("constraints --solve 3 --fix 1.000000001", 0),
    Case("constraints --solve 4 --fix 2,-0.5", 0),
    Case("constraints --solve 4 --fix 2,0.5,-3", 0),
    Case("constraints --solve 4", 0),
    Case("constraints --solve 5 --fix 2,0.5,-3", 0),
    Case("constraints --solve 5 --fix 2,-0.5,3,0", 0),
    Case("constraints --solve 5", 0, large=True),
    # pins next to +-1 and at the far ends of the projective line: free gammas that round to
    # +-1 are skipped, so 1 - 2^-53 is INFEASIBLE
    *[Case(f"constraints --solve 2 --fix {g}", 0)
      for g in ("0.9999999999999999", "1.0000000000000002", "-1e200", "0",
                "-1.0000000000000002")],
    # two orders of one set of pins, which write the same bytes: the residual sums are exactly
    # rounded; the second pair has free gammas next to inf, written as inf
    *[Case(f"constraints --solve 5 --fix {pins}", 0)
      for pins in ("0.6929838963719743,-1.0908000077735336,-0.23598485179194018",
                   "0.6929838963719743,-0.23598485179194018,-1.0908000077735336")],
    *[Case(f"constraints --solve 6 --fix {pins}", 0) for pins in ("inf,0,10", "inf,10,0")],
    # dual maps
    *[Case(f"dual --m {m} --gamma {g} --which {w}", 0)
      for m, g in (("1", "0"), ("-1e-3", "-.5"), ("2", "inf"), ("1", "-1e200"), ("1", "-0.0"))
      for w in ("reflection", "cpt", "halfplane")],
    # the edge oracle at m < 0, at the exact reflection dual: one Fermi level, -|m|
    Case("oracle --m -1 --gamma -2 --x 1 --what edge", 0),
    *[Case(f"oracle --m -1 --gamma {g} --x 1 --what edge", 0) for g in GAMMAS],
    # the branch cut beyond its reach (a FAIL), and where it underflows to 0
    Case("oracle --m 1 --x 20 --what branch-cut", 1),
    Case("oracle --m 1 --x 1e154 --what branch-cut", 0),
    # subnormal masses, where m x is below rounding: the rays of m = 0
    Case("oracle --m 1e-310 --x 1 --what bulk", 0),
    Case("oracle --m 5e-324 --x 1 --what branch-cut", 0),
    Case("oracle --m=-1e-310 --gamma 0.5 --x 5 --what bulk", 0),
    # x next to the largest float, at m = 0 and at a subnormal m with m x just above 2^-52
    *[Case(f"oracle --m {m} --x {x} --what {w}", 0)
      for m, x in (("0", "1e308"), ("5e-324", "5e307")) for w in ("bulk", "branch-cut")],
    # usage errors (exit 2)
    Case("constraints", 2),
    Case("constraints --gammas 2 --solve 2", 2),
    Case("constraints --gammas 2 --fix 2", 2),
    Case("constraints --solve 1", 2),
    Case("constraints --solve 2 --fix 2,3", 2),
    Case("spectrum --m 1", 2),
    Case("spectrum --m 1 --gamma 2 --points 0", 2),
    Case("spectrum --m 1 --gamma 2 --k-max inf", 2),
    Case("profile --m nan --gamma 2", 2),
    Case("profile --m 1 --gamma 2 --x-min 0", 2),
    Case("profile --m 1 --gamma 2 -q", 2),
    Case("oracle --m 1 --x 0.7 --what edge --tol 0", 2),
    Case("dual --m 1 --gamma -inf --which cpt", 2),
    Case("profile --m 1 --gamma 2 --points 3 --out=", 2),
    Case("profile --m 1 --gamma 2 --points 3 --out .", 2),
    Case("spectrum --m 1 --gamma 2 --points 3 --out missing/table.csv", 2),
    Case("profile --m 1 --gamma 2 --points 3 --out table.csv", 2, dirs=("table.csv.json",)),
    Case("spectrum --m 1 --gamma 2 --points 3 --out table.csv", 2, dirs=("table.csv.json",)),
    # rejected parameters (exit 3)
    Case("profile --m 1 --gamma 1", 3),
    Case("profile --m 1 --gamma -1 --points 3 --out table.csv", 3),
    Case("spectrum --m 1 --gamma 2 --k-min 1.7976931348623157e308 "
         "--k-max=-1.7976931348623157e308 --points 5", 3),
    Case("oracle --m 1 --gamma 2 --x 0 --what edge", 3),
    Case("oracle --m 1 --gamma 2 --x 1e-160 --what bulk", 3),
    Case("oracle --m -1 --x 1 --what branch-cut", 3),
    Case("constraints --gammas 2,1", 3),
    Case("constraints --solve 40", 3),
    *[Case(f"dual --m 1 --gamma 1e-320 --which {w}", 3)
      for w in ("reflection", "cpt", "halfplane")],
]


def _sha(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def _read(path: str) -> bytes | None:
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def out_name(argv: list[str]) -> str | None:
    """The --out value of argv, if any."""
    for i, arg in enumerate(argv):
        if arg.startswith("--out="):
            return arg[len("--out="):]
        if arg == "--out" and i + 1 < len(argv):
            return argv[i + 1]
    return None


def sweep_line(case: Case) -> str:
    """Run case in a fresh process and an empty directory: its exit code and output hashes."""
    argv = case.argv.split()
    with tempfile.TemporaryDirectory() as folder:
        for d in case.dirs:
            os.makedirs(os.path.join(folder, d))
        res = subprocess.run([sys.executable, "-m", "edgecurrents.cli", *argv], cwd=folder,
                             capture_output=True, timeout=600)
        out = out_name(argv)
        files = (None, None) if not out else (_read(os.path.join(folder, out)),
                                              _read(os.path.join(folder, out + ".json")))
    hashes = [_sha(res.stdout), _sha(res.stderr), *map(_sha, files)]
    return " ".join([str(res.returncode), *hashes, case.argv])


def main(args: list[str]) -> int:
    for case in CASES:
        if not (case.large and "--cheap" in args):
            print(sweep_line(case), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
