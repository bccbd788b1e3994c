"""Command-line front end: dispersion tables, current profiles, oracle checks.

All quantities are in natural units (hbar = c = 1); the edge conductivity is
reported in units of e^2/h.  CSV output uses 17 significant digits so values
round-trip exactly, LF line endings, and is byte-stable across runs.  The
spectrum and profile tables are formatted column by column in numpy by
edgecurrents.table, which looks up the bytes of '%.17g' % v in tables, as
32-byte cells of four little-endian words, and leaves to '%' itself only the
values whose rounding its estimate cannot decide; single values, such as the
spectrum header and the oracle row, use _fmt.

Exit codes: 0 success, 1 oracle FAIL, 2 usage error (an --out that cannot be
written included), 3 rejected parameter (gamma = +-1 on a restricted
operation, or any argument outside an operation's domain).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from collections.abc import Iterable
from itertools import chain

from .errors import EdgeCurrentsError, NonConvergent, OutOfDomain
from .params import (ModelParams, ProjectiveReal, _reject_cpt_invariant, as_gamma,
                     boundary_character, cpt_dual, halfplane_dual, reflection_dual)

EXIT_ORACLE_FAIL = 1
EXIT_REJECTED = 3


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _json_gamma(g: ProjectiveReal) -> float | str:
    return "inf" if g.is_infinite else g.value


def positive_int(text: str) -> int:
    if (n := int(text)) < 1:
        raise ValueError(text)
    return n


def finite_float(text: str) -> float:
    if not math.isfinite(v := float(text)):
        raise ValueError(text)
    return v


def positive_float(text: str) -> float:
    if not 0.0 < (v := float(text)) < math.inf:
        raise ValueError(text)
    return v


def gamma_list(text: str) -> tuple[ProjectiveReal, ...]:
    return tuple(as_gamma(s) for s in text.split(","))


def out_path(text: str) -> str:
    """A file to write: a name, not a directory, in a directory that exists and is writable.

    Its <out>.json, where profile writes its sidecar, must not be a directory either.
    """
    folder = os.path.dirname(text) or "."
    writable = os.path.isdir(folder) and os.access(folder, os.W_OK)
    if not text or os.path.isdir(text) or os.path.isdir(text + ".json") or not writable:
        raise ValueError(text)
    return text


def _write(path: str | None, texts: Iterable[str], stream=None) -> None:
    """Write the strings in turn to path, or to stream (stdout by default)."""
    if path is None:
        (stream or sys.stdout).writelines(texts)
    else:
        with open(path, "w", newline="") as fh:
            fh.writelines(texts)


def cmd_spectrum(args: argparse.Namespace) -> int:
    p = ModelParams(args.m, args.gamma)
    if not math.isfinite(args.k_max - args.k_min):  # np.linspace would step by inf
        raise OutOfDomain(f"the k span overflows, got k_min={args.k_min}, k_max={args.k_max}")
    import numpy as np  # after the checks: a rejected input loads no numpy
    from .spectrum import edge_conductivity, edge_dispersion
    from .table import csv_rows
    ch = boundary_character(p.gamma)
    lines = [
        f"# v_edge={_fmt(ch.v_edge)}",
        f"# eta={'undefined' if ch.eta is None else ch.eta}",
        f"# theta={'infinite' if ch.theta is None else _fmt(ch.theta)}",
        f"# sigma_edge={edge_conductivity(p)}",
        "k,E_edge,lambda,exists",
    ]
    ks = np.linspace(args.k_min, args.k_max, args.points)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, nan at extreme k or m, as for floats
        E, lam = edge_dispersion(p, ks)
    exists = lam > 0.0
    flags = np.array([b"false\n", b"true\n"])[exists.astype(int)]  # 'true\n' NUL-padded to 6 bytes
    rows = csv_rows([ks, np.where(exists, E, np.nan), np.where(exists, lam, np.nan)],
                    flags.view(np.uint8).reshape(len(ks), -1))
    _write(args.out, chain(["\n".join(lines) + "\n"], rows))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    p = ModelParams(args.m, args.gamma)
    _reject_cpt_invariant(p)
    import numpy as np  # after the check: gamma = +-1 loads no numpy
    from .currents import total_decomposition
    from .table import csv_rows
    dec = total_decomposition(p)
    xs = np.geomspace(args.x_min, args.x_max, args.points)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # inf, nan at extreme x
        columns = (xs, dec.bulk_smooth(xs), dec.edge_smooth(xs), dec.total_smooth(xs),
                   dec.regular(xs), dec.singular.c_inv_x2 / (xs * xs))
    _write(args.out, chain(["x,j2_bulk_smooth,j2_edge_smooth,j2_total,j2_regular,c_x2_over_x2\n"],
                           csv_rows(columns)))
    sidecar = {"m": p.m, "gamma": _json_gamma(p.gamma), **dec.singular._asdict()}
    if args.Lambda is not None:
        sidecar["log_delta_prime_at_Lambda"] = dec.singular.c_log_delta_prime * math.log(args.Lambda)
    _write(None if args.out is None else args.out + ".json",
           [json.dumps(sidecar, sort_keys=True, indent=2) + "\n"], sys.stderr)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    import numpy as np
    from .currents import total_decomposition
    from .oracle import (_rel_dev, oracle_branch_cut_integral, oracle_bulk_current,
                         oracle_edge_current)
    p, x = ModelParams(args.m, args.gamma), args.x
    # the closed form, evaluated first, is inf or nan where 1/x^2 overflows or x^2 underflows
    # to 0, which the oracle rejects; where x^2 overflows, 1/x^2 is its right 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        try:
            if args.what == "edge":
                name, tol = "edge_j2", 1e-8
                closed, numeric = total_decomposition(p).edge_smooth(x), oracle_edge_current(p, x)
            elif args.what == "bulk":
                name, tol = "bulk_j2", 1e-2
                closed, numeric = total_decomposition(p).bulk_smooth(x), oracle_bulk_current(p, x)
            else:  # branch-cut
                name, tol = "branch_cut", 1e-4
                res = oracle_branch_cut_integral(p.m, x)
                closed, numeric = res.contour_value, res.abel_value
        except NonConvergent as exc:
            print(f"FAIL non-convergent: {exc}")
            return EXIT_ORACLE_FAIL
    dev, rel = abs(closed - numeric), _rel_dev(closed, numeric)
    ok = rel < (tol if args.tol is None else args.tol)
    verdict = "PASS" if ok else "FAIL"
    print("quantity,closed_form,oracle,abs_dev,rel_dev,verdict")
    print(f"{name},{_fmt(closed)},{_fmt(numeric)},{_fmt(dev)},{_fmt(rel)},{verdict}")
    return 0 if ok else EXIT_ORACLE_FAIL


def cmd_constraints(args: argparse.Namespace) -> int:
    from .multifermion import FermionSystem, residuals, solve_system  # only this subcommand
    if args.solve is not None:
        systems = solve_system(args.solve, args.fix)
        report = {
            "n": args.solve,
            "fixed": [_json_gamma(g) for g in args.fix],
            "solutions": [[_json_gamma(g) for g in s.gammas] for s in systems],
            "verdict": "SOLVED" if systems else "INFEASIBLE",
        }
    else:
        sys_ = FermionSystem(args.gammas)
        rep = residuals(sys_)
        report = {"gammas": [_json_gamma(g) for g in sys_.gammas], **rep._asdict(),
                  "verdict": "CANCELS" if rep.cancels() else "DIVERGENT"}
        del report["scale"]  # the bound of cancels(), not a residual
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def cmd_dual(args: argparse.Namespace) -> int:
    p = ModelParams(args.m, args.gamma)
    maps = {"reflection": reflection_dual, "cpt": cpt_dual, "halfplane": halfplane_dual}
    q = maps[args.which](p)
    print(json.dumps({"m": q.m, "gamma": _json_gamma(q.gamma)}, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with -<digit> or -.<digit> as a value, not an option.

    argparse's own pattern admits only plain decimals such as -2 or -0.5, and
    would take --gamma -1e200 or --gammas -0.5,2 for a missing value; the
    subparsers are built from this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="edgecurrents",
        description="Half-plane fermion boundary spectra and edge currents "
                    "(natural units hbar = c = 1; conductivity in e^2/h).")
    sub = ap.add_subparsers(dest="command", required=True)
    # (m, gamma) of spectrum, profile and dual, first in each; oracle defaults gamma to 2
    species = argparse.ArgumentParser(add_help=False)
    species.add_argument("--m", type=finite_float, required=True)
    species.add_argument("--gamma", type=as_gamma, required=True)

    sp = sub.add_parser("spectrum", parents=[species], help="edge dispersion table")
    sp.add_argument("--k-min", dest="k_min", type=finite_float, default=-2.0)
    sp.add_argument("--k-max", dest="k_max", type=finite_float, default=2.0)
    sp.add_argument("--points", type=positive_int, default=41)
    sp.add_argument("--out", type=out_path, default=None)
    sp.set_defaults(func=cmd_spectrum)

    pr = sub.add_parser("profile", parents=[species],
                        help="current-density profile (geometric x grid)")
    pr.add_argument("--x-min", dest="x_min", type=positive_float, default=0.1)
    pr.add_argument("--x-max", dest="x_max", type=positive_float, default=5.0)
    pr.add_argument("--points", type=positive_int, default=50)
    pr.add_argument("--lambda", dest="Lambda", type=positive_float, default=None,
                    help="report the ln(Lambda) delta' coefficient at this rapidity cutoff, "
                         "|k| <~ Lambda sqrt(l^2+m^2)/2 (see edgecurrents.currents)")
    pr.add_argument("--out", type=out_path, default=None)
    pr.set_defaults(func=cmd_profile)

    orc = sub.add_parser("oracle", help="closed form vs quadrature comparison")
    orc.add_argument("--m", type=finite_float, required=True)
    orc.add_argument("--gamma", type=as_gamma, default="2")
    orc.add_argument("--x", type=finite_float, required=True)
    orc.add_argument("--what", choices=("edge", "bulk", "branch-cut"), required=True)
    orc.add_argument("--tol", type=positive_float, default=None)
    orc.set_defaults(func=cmd_oracle)

    co = sub.add_parser("constraints", help="multi-fermion residual report / solver")
    co.add_argument("--gammas", type=gamma_list, default=None, help="comma list of gammas")
    co.add_argument("--solve", type=int, default=None, help="solve for N species")
    co.add_argument("--fix", type=gamma_list, default=(), help="comma list of pinned gammas")
    co.set_defaults(func=cmd_constraints)

    du = sub.add_parser("dual", parents=[species], help="apply a duality map to (m, gamma)")
    du.add_argument("--which", choices=("reflection", "cpt", "halfplane"), required=True)
    du.set_defaults(func=cmd_dual)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "constraints":
        if (args.gammas is None) == (args.solve is None):
            ap.error("constraints needs exactly one of --gammas or --solve")
        if args.fix and args.solve is None:
            ap.error("--fix needs --solve")
        if args.solve is not None and (args.solve < 2 or len(args.fix) >= args.solve):
            ap.error("--solve N needs N >= 2 and fewer than N --fix gammas")
    try:
        return args.func(args)
    except EdgeCurrentsError as exc:
        print(f"rejected parameter: {exc}", file=sys.stderr)
        return EXIT_REJECTED


if __name__ == "__main__":
    sys.exit(main())
