"""Command-line front end: dispersion tables, current profiles, oracle checks.

All quantities are in natural units (hbar = c = 1); the edge conductivity is
reported in units of e^2/h.  CSV output uses 17 significant digits so values
round-trip exactly, LF line endings, and is byte-stable across runs.

Exit codes: 0 success, 1 oracle FAIL, 2 usage error, 3 rejected parameter
(gamma = +-1 on a restricted operation).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .currents import closed_form_bulk_j2, closed_form_edge_j2, total_decomposition
from .errors import CptInvariantBoundary, NonConvergent
from .multifermion import make_system, residuals, solve_system
from .oracle import (RegularizationScheme, oracle_branch_cut_integral, oracle_bulk_current,
                     oracle_edge_current)
from .params import (ModelParams, as_gamma, boundary_character, cpt_dual, halfplane_dual,
                     reflection_dual)
from .spectrum import edge_conductivity, edge_mode_at_k

EXIT_ORACLE_FAIL = 1
EXIT_REJECTED = 3


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _gamma_str(p: ModelParams) -> str:
    return "inf" if p.gamma.is_infinite else _fmt(p.gamma.value)


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def cmd_spectrum(args: argparse.Namespace) -> int:
    p = ModelParams(args.m, as_gamma(args.gamma))
    ch = boundary_character(p.gamma)
    lines = [
        f"# v_edge={_fmt(ch.v_edge)}",
        f"# eta={'undefined' if ch.eta is None else ch.eta}",
        f"# theta={'infinite' if ch.theta is None else _fmt(ch.theta)}",
        f"# sigma_edge={edge_conductivity(p)}",
        "k,E_edge,lambda,exists",
    ]
    for k in np.linspace(args.k_min, args.k_max, args.points):
        mode = edge_mode_at_k(p, float(k))
        if mode is None:
            lines.append(f"{_fmt(float(k))},nan,nan,false")
        else:
            lines.append(f"{_fmt(mode.k)},{_fmt(mode.E)},{_fmt(mode.lam)},true")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    p = ModelParams(args.m, as_gamma(args.gamma))
    dec = total_decomposition(p)
    xs = np.geomspace(args.x_min, args.x_max, args.points)
    b = dec.bulk_smooth(xs)
    e = dec.edge_smooth(xs)
    cx2 = dec.singular.c_inv_x2 / (xs * xs)
    columns = (xs, b, e, b + e, b + e - cx2, cx2)
    lines = ["x,j2_bulk_smooth,j2_edge_smooth,j2_total,j2_regular,c_x2_over_x2"]
    lines += [",".join(map(_fmt, row)) for row in zip(*(c.tolist() for c in columns))]
    _write(args.out, "\n".join(lines) + "\n")
    sidecar = {
        "m": p.m,
        "gamma": "inf" if p.gamma.is_infinite else p.gamma.value,
        "c_log_delta_prime": dec.singular.c_log_delta_prime,
        "c_delta_prime": dec.singular.c_delta_prime,
        "c_inv_x2": dec.singular.c_inv_x2,
    }
    if args.Lambda is not None:
        sidecar["log_delta_prime_at_Lambda"] = dec.singular.c_log_delta_prime * math.log(args.Lambda)
    text = json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
    if args.out is not None:
        with open(args.out + ".json", "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stderr.write(text)
    return 0


def _scheme_from_args(args: argparse.Namespace) -> RegularizationScheme:
    kw = {}
    if args.v_cutoff is not None:
        kw["Lambda"] = args.v_cutoff
    if args.l_max is not None:
        kw["l_max"] = args.l_max
    if args.eps:
        kw["eps_schedule"] = tuple(args.eps)
    return RegularizationScheme(**kw)


def cmd_oracle(args: argparse.Namespace) -> int:
    p = ModelParams(args.m, as_gamma(args.gamma))
    scheme = _scheme_from_args(args)
    rows = []
    ok = True
    try:
        if args.what == "edge":
            tol = args.tol if args.tol is not None else 1e-8
            closed = closed_form_edge_j2(p, args.x)
            numeric = oracle_edge_current(p, args.x, scheme)
            dev = abs(closed - numeric)
            rel = dev / abs(closed) if closed != 0.0 else dev
            ok = rel < tol
            rows.append(("edge_j2", closed, numeric, dev, rel, ok))
        elif args.what == "bulk":
            tol = args.tol if args.tol is not None else 1e-2
            closed = closed_form_bulk_j2(p, args.x).smooth
            numeric = oracle_bulk_current(p, args.x, scheme)
            dev = abs(closed - numeric)
            rel = dev / abs(closed) if closed != 0.0 else dev
            ok = rel < tol
            rows.append(("bulk_j2", closed, numeric, dev, rel, ok))
        else:  # branch-cut
            tol = args.tol if args.tol is not None else 1e-4
            res = oracle_branch_cut_integral(p.m, args.x, scheme)
            ok = res.rel_diff < tol
            rows.append(("branch_cut", res.contour_value, res.abel_value,
                         abs(res.contour_value - res.abel_value), res.rel_diff, ok))
    except NonConvergent as exc:
        print(f"FAIL non-convergent: {exc}")
        return EXIT_ORACLE_FAIL
    print("quantity,closed_form,oracle,abs_dev,rel_dev,verdict")
    for name, closed, numeric, dev, rel, passed in rows:
        verdict = "PASS" if passed else "FAIL"
        print(f"{name},{_fmt(closed)},{_fmt(numeric)},{_fmt(dev)},{_fmt(rel)},{verdict}")
    return 0 if ok else EXIT_ORACLE_FAIL


def cmd_constraints(args: argparse.Namespace) -> int:
    if args.solve is not None:
        fixed = [as_gamma(s) for s in (args.fix.split(",") if args.fix else [])]
        systems = solve_system(args.solve, fixed)
        report = {
            "n": args.solve,
            "fixed": [("inf" if g.is_infinite else g.value) for g in fixed],
            "solutions": [[("inf" if g.is_infinite else g.value) for g in s.gammas]
                          for s in systems],
        }
        print(json.dumps(report, sort_keys=True, indent=2))
        return 0
    sys_ = make_system(s for s in args.gammas.split(","))
    rep = residuals(sys_)
    verdict = "CANCELS" if rep.cancels() else "DIVERGENT"
    report = {
        "gammas": [("inf" if g.is_infinite else g.value) for g in sys_.gammas],
        "r_log": rep.r_log,
        "r_x2": rep.r_x2,
        "r_dipole": rep.r_dipole,
        "r_plus": rep.r_plus,
        "r_minus": rep.r_minus,
        "verdict": verdict,
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def cmd_dual(args: argparse.Namespace) -> int:
    p = ModelParams(args.m, as_gamma(args.gamma))
    maps = {"reflection": reflection_dual, "cpt": cpt_dual, "halfplane": halfplane_dual}
    q = maps[args.which](p)
    print(json.dumps({"m": q.m, "gamma": "inf" if q.gamma.is_infinite else q.gamma.value},
                     sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="edgecurrents",
        description="Half-plane fermion boundary spectra and edge currents "
                    "(natural units hbar = c = 1; conductivity in e^2/h).")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="edge dispersion table")
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--gamma", type=str, required=True)
    sp.add_argument("--k-min", dest="k_min", type=float, default=-2.0)
    sp.add_argument("--k-max", dest="k_max", type=float, default=2.0)
    sp.add_argument("--points", type=int, default=41)
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(func=cmd_spectrum)

    pr = sub.add_parser("profile", help="current-density profile (geometric x grid)")
    pr.add_argument("--m", type=float, required=True)
    pr.add_argument("--gamma", type=str, required=True)
    pr.add_argument("--x-min", dest="x_min", type=float, default=0.1)
    pr.add_argument("--x-max", dest="x_max", type=float, default=5.0)
    pr.add_argument("--points", type=int, default=50)
    pr.add_argument("--lambda", dest="Lambda", type=float, default=None,
                    help="report the ln(Lambda) delta' coefficient at this cutoff")
    pr.add_argument("--out", type=str, default=None)
    pr.set_defaults(func=cmd_profile)

    orc = sub.add_parser("oracle", help="closed form vs quadrature comparison")
    orc.add_argument("--m", type=float, required=True)
    orc.add_argument("--gamma", type=str, default="2")
    orc.add_argument("--x", type=float, required=True)
    orc.add_argument("--what", choices=("edge", "bulk", "branch-cut"), required=True)
    orc.add_argument("--v-cutoff", dest="v_cutoff", type=float, default=None)
    orc.add_argument("--l-max", dest="l_max", type=float, default=None)
    orc.add_argument("--eps", type=float, nargs="*", default=None,
                     help="Abel damping schedule (strictly decreasing)")
    orc.add_argument("--tol", type=float, default=None)
    orc.set_defaults(func=cmd_oracle)

    co = sub.add_parser("constraints", help="multi-fermion residual report / solver")
    co.add_argument("--gammas", type=str, default=None, help="comma list of gammas")
    co.add_argument("--solve", type=int, default=None, help="solve for N species")
    co.add_argument("--fix", type=str, default=None, help="comma list of pinned gammas")
    co.set_defaults(func=cmd_constraints)

    du = sub.add_parser("dual", help="apply a duality map to (m, gamma)")
    du.add_argument("--m", type=float, required=True)
    du.add_argument("--gamma", type=str, required=True)
    du.add_argument("--which", choices=("reflection", "cpt", "halfplane"), required=True)
    du.set_defaults(func=cmd_dual)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "constraints" and (args.gammas is None) == (args.solve is None):
        ap.error("constraints needs exactly one of --gammas or --solve")
    try:
        return args.func(args)
    except CptInvariantBoundary as exc:
        print(f"rejected parameter: {exc}", file=sys.stderr)
        return EXIT_REJECTED


if __name__ == "__main__":
    sys.exit(main())
