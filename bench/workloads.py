"""The benchmark's three workloads: seeded inputs, operations and output checks.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returned.  An operation is one ``Item``; its
``run`` is the timed call and its ``check`` validates the output afterwards
(outside the timed region) and returns a failure reason or None.

The workloads call only the CLI (``python -m edgecurrents.cli`` or
``edgecurrents.cli.main``) and names exported by ``edgecurrents``, looked up
on the module at call time so that the traced run's rebinding applies.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import edgecurrents as ec
import edgecurrents.cli as ec_cli

# Tolerances of the CLI's oracle subcommand (its documented defaults).
TOL_EDGE, TOL_BULK, TOL_BRANCH = 1e-8, 1e-2, 1e-4
# Agreement required between two evaluations of the same closed form.
TOL_SAME = 1e-12
# FD checks: criterion 03's Richardson bound for defect modes, and for bulk and
# edge modes criterion 02's O(h^2) law with its leading constant: a centred
# difference of e^{i kappa x} errs by kappa^3 h^2 / 6 per axis.  The factor 8
# covers the spinor mixing (measured ratios stay below 3.2).
TOL_RICHARDSON = 1e-8
FD_ORDER2_FACTOR = 8.0 / 6.0
FD_SIDE = 0.32  # criterion 02's grid side
# The edge oracle integrates with quad's epsabs=1e-12, so where the edge current
# is exponentially small its relative error is bounded only through this
# absolute deviation; failures below it get their own reason.
EDGE_ABS_FLOOR = 1e-10


@dataclass
class Item:
    """One operation of a workload: a timed call and its output check."""

    cls: str                      # operation class, e.g. "profile-cli"
    label: str                    # the inputs, for failure examples
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    size: int = 1                 # rows, points or checks produced by one call
    traced_run: Callable[[], Any] | None = None  # replaces run in a traced process
    out_files: tuple[Path, ...] = ()  # files the call writes (counted as cli.bytes_out)
    inputs: dict = field(default_factory=dict)  # the drawn inputs, for the known-defect domains


@dataclass
class Sizes:
    table_rows: int = 20_000      # profile and spectrum rows (tabulate)
    fd_grid: int = 96             # eigen_residual grid side (tabulate)
    defect_grid: int = 513        # richardson_residual grid length (tabulate)
    oracle_strata: int = 8        # x strata per oracle kind; two checks each (verify)
    solve_draws: int = 2          # draws per (n, pinned) solve configuration (verify)
    x_max: float = 5.0            # upper end of the oracle x range (verify)


SMOKE_SIZES = Sizes(table_rows=2_000, fd_grid=16, defect_grid=513, oracle_strata=1,
                    solve_draws=1, x_max=1.0)


# ---------------------------------------------------------------------------
# input draws


def log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def projective_gamma(rng, near: bool | None = None) -> float:
    """gamma across the projective line, within 10% of +-1 if near (by default
    a quarter of the draws), else outside that band."""
    if near is None:
        near = rng.random() < 0.25
    if near:
        delta = log_uniform(rng, 1e-3, 0.1) * (1.0 if rng.random() < 0.5 else -1.0)
        return (1.0 + delta) * (1.0 if rng.random() < 0.5 else -1.0)
    while True:
        g = math.tan(rng.uniform(-math.pi / 2, math.pi / 2))
        if abs(abs(g) - 1.0) > 0.1:
            return g


def gamma_arg(g: float | None) -> str:
    return "inf" if g is None else repr(g)


def params(m: float, g: float | None):
    return ec.ModelParams(m, ec.as_gamma(gamma_arg(g)))


def stratified_x(rng, strata: int, x_min: float, x_max: float) -> list[float]:
    """Log-uniform x, stratified: each stratum gets a seeded mirrored pair.

    The pair (i+u)/n, (i+1-u)/n keeps the summed oracle cost, which grows
    like x^2, nearly independent of the seed.
    """
    out = []
    for i in range(strata):
        u = rng.random()
        for t in ((i + u) / strata, (i + 1 - u) / strata):
            out.append(x_min * (x_max / x_min) ** t)
    return out


# ---------------------------------------------------------------------------
# independent reference formulas and output checks


def edge_dispersion(m: float, g: float | None, k: np.ndarray):
    """(E, lam) of the edge branch, written out independently of spectrum.py."""
    if g is None:
        return np.full_like(k, -m), k.copy()
    d = 1.0 + g * g
    return (2.0 * g * k + (1.0 - g * g) * m) / d, ((g * g - 1.0) * k + 2.0 * g * m) / d


def rel_dev(closed: float, numeric: float) -> float:
    """The CLI's oracle deviation: relative, or absolute when the closed form is 0."""
    dev = abs(closed - numeric)
    return dev / abs(closed) if closed != 0.0 else dev


def close(a, b, scale) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= TOL_SAME * scale + 1e-300))


def edge_mismatch(what: str, closed: float, numeric: float) -> str | None:
    """None if an edge closed form meets the CLI's edge tolerance against the oracle."""
    if rel_dev(closed, numeric) < TOL_EDGE:
        return None
    if abs(closed - numeric) <= EDGE_ABS_FLOOR:
        return f"{what} {TOL_EDGE:g}, abs_dev below {EDGE_ABS_FLOOR:g}"
    return f"{what} {TOL_EDGE:g}"


def oracle_bulk_dual(p, x: float) -> float:
    """Bulk oracle; it rejects m < 0, which therefore runs through the reflection duality."""
    if p.m < 0:
        return -ec.oracle_bulk_current(ec.reflection_dual(p), x)
    return ec.oracle_bulk_current(p, x)


def check_spectrum_text(text: str, m: float, g: float | None, k_min: float, k_max: float,
                        n: int) -> str | None:
    lines = text.split("\n")
    if len(lines) != n + 6 or lines[-1] != "" or lines[4] != "k,E_edge,lambda,exists":
        return "spectrum: malformed table"
    sigma = 0 if (m == 0.0 or g is None or g == 0.0 or m * g <= 0) else (1 if m > 0 else -1)
    if lines[3] != f"# sigma_edge={sigma}":
        return "spectrum: wrong edge conductivity"
    cols = [r.split(",") for r in lines[5:-1]]
    k = np.array([float(c[0]) for c in cols])
    E = np.array([float(c[1]) for c in cols])
    lam = np.array([float(c[2]) for c in cols])
    exists = np.array([c[3] == "true" for c in cols])
    if not close(k, np.linspace(k_min, k_max, n), np.abs(k) + 1.0):
        return "spectrum: k grid differs from linspace"
    E_ref, lam_ref = edge_dispersion(m, g, k)
    ambiguous = np.abs(lam_ref) <= TOL_SAME * (np.abs(k) + abs(m) + 1.0)
    if np.any((exists != (lam_ref > 0)) & ~ambiguous):
        return "spectrum: exists does not match lam > 0"
    if np.any(lam[exists] <= 0) or not (np.all(np.isnan(E[~exists])) and np.all(np.isnan(lam[~exists]))):
        return "spectrum: lam/exists columns inconsistent"
    scale = np.abs(k[exists]) + abs(m) + 1.0
    if not (close(E[exists], E_ref[exists], scale) and close(lam[exists], lam_ref[exists], scale)):
        return "spectrum: rows violate the linear dispersion"
    return None


PROFILE_HEADER = "x,j2_bulk_smooth,j2_edge_smooth,j2_total,j2_regular,c_x2_over_x2"


def check_profile_table(table: np.ndarray, sidecar: dict, p, n: int, x_min: float, x_max: float,
                        reference: np.ndarray | None, sample_rows: list[int]) -> str | None:
    """Rows of a profile CSV (parsed, header removed) against the library."""
    if table.ndim != 2 or table.shape != (n, 6):
        return "profile: malformed table"
    x, b, e, tot, reg, cx2 = table.T
    dec = ec.total_decomposition(p)
    if not close(x, np.geomspace(x_min, x_max, n), x):
        return "profile: x grid differs from geomspace"
    if abs(sidecar.get("c_inv_x2", math.nan) - dec.singular.c_inv_x2) > TOL_SAME * (abs(dec.singular.c_inv_x2) + 1.0):
        return "profile: sidecar singular coefficient differs"
    scale = np.abs(b) + np.abs(e) + np.abs(cx2)
    if not (close(tot, b + e, scale) and close(cx2, dec.singular.c_inv_x2 / (x * x), np.abs(cx2))):
        return "profile: total or c_x2 column inconsistent"
    if reference is None:
        reference = dec.regular(x)
    if not close(reg, reference, scale):
        return "profile: rows differ from regular(xs) of the array path"
    for i in sample_rows:
        i = min(i, n - 1)
        reason = edge_mismatch("profile: edge column vs oracle_edge_current above", e[i],
                               ec.oracle_edge_current(p, float(x[i])))
        if reason is not None:
            return reason
    return None


def parse_profile_csv(text: str) -> np.ndarray | None:
    head, _, body = text.partition("\n")
    if head != PROFILE_HEADER:
        return None
    return np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def check_solutions(solutions, n: int, pinned: list[float]) -> str | None:
    for s in solutions:
        gammas = [None if g.is_infinite else g.value for g in s.gammas]
        if len(gammas) != n:
            return "solve: solution has the wrong number of species"
        for v in pinned:
            if not any(h is not None and abs(h - v) <= TOL_SAME * (abs(v) + 1.0) for h in gammas):
                return "solve: solution drops a pinned gamma"
        if not ec.residuals(s).cancels():
            return "solve: solution does not cancel the divergences"
    return None


def mask_numbers(text: str) -> str:
    """Numbers masked and length capped, so that failure reasons aggregate."""
    return re.sub(r"[-+]?\d[\d.e+-]*", "#", text)[:80]


def exception_reason(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {mask_numbers(str(exc))}"


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Context:
    root: Path
    tmp: Path
    sizes: Sizes
    python: str = sys.executable
    cli_env: dict = field(default_factory=dict)
    trace_child: list | None = None  # argv prefix of the traced CLI child


class Workload:
    name = ""
    in_process = True

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def warmup(self) -> None:
        """One untimed call per operation class, paid inside setup_s."""
        rng = np.random.default_rng(0)
        tiny = Sizes(table_rows=8, fd_grid=8, defect_grid=9, oracle_strata=1,
                     solve_draws=1, x_max=0.5)
        saved, self.ctx.sizes = self.ctx.sizes, tiny
        try:
            seen = set()
            for item in self.items(rng):
                if item.cls not in seen:
                    seen.add(item.cls)
                    try:
                        item.run()
                    except Exception:
                        pass
        finally:
            self.ctx.sizes = saved

    def items(self, rng) -> list[Item]:
        raise NotImplementedError


class Tabulate(Workload):
    """Large tables in one process: profile and spectrum CSVs, the array path, FD residuals."""

    name = "tabulate"
    # (m, gamma) categories covering m > 0, m = 0, m < 0 (duality path),
    # gamma = inf, |gamma| < 1 and |gamma| > 1, both signs of gamma.
    CATEGORIES = (
        ("m>0,gamma>1", lambda r: (r.uniform(0.2, 2.0), log_uniform(r, 1.5, 10.0))),
        ("m>0,-1<gamma<0", lambda r: (r.uniform(0.2, 2.0), -log_uniform(r, 0.05, 0.7))),
        ("m=0,0<gamma<1", lambda r: (0.0, log_uniform(r, 0.05, 0.7))),
        ("m<0,gamma<-1", lambda r: (-r.uniform(0.2, 2.0), -log_uniform(r, 1.5, 10.0))),
        ("m>0,gamma=inf", lambda r: (r.uniform(0.2, 2.0), None)),
    )

    def items(self, rng) -> list[Item]:
        out = []
        for idx, (cat, draw) in enumerate(self.CATEGORIES):
            m, g = draw(rng)
            out += self._tables(rng, idx, cat, float(m), g)
            out += self._residuals(rng, cat, float(m), g)
        return out

    def _tables(self, rng, idx: int, cat: str, m: float, g: float | None) -> list[Item]:
        n = self.ctx.sizes.table_rows
        p = params(m, g)
        x_min, x_max = rng.uniform(0.05, 0.2), rng.uniform(3.0, 6.0)
        # centre the k range on the edge threshold lam(k0) = 0, so that half the
        # rows carry an edge state whatever (m, gamma) was drawn
        k0 = 0.0 if g is None else -2.0 * g * m / (g * g - 1.0)
        half = rng.uniform(1.0, 4.0)
        k_min, k_max = k0 - half, k0 + half
        samples = [int(i) for i in rng.integers(0, n, 3)]
        tag = f"{cat} m={m:.3g} gamma={gamma_arg(g)}"
        memo: dict = {}
        prof = self.ctx.tmp / f"profile-{idx}.csv"
        spec = self.ctx.tmp / f"spectrum-{idx}.csv"
        common = ["--m", repr(m), "--gamma", gamma_arg(g)]

        def run_array():
            xs = np.geomspace(x_min, x_max, n)
            memo["regular"] = ec.total_decomposition(p).regular(xs)
            return memo["regular"]

        def check_array(out):
            if np.shape(out) != (n,) or not np.all(np.isfinite(out)):
                return "array: regular(xs) not finite or wrong shape"
            return None

        def run_profile():
            return ec_cli.main(["profile", *common, "--x-min", repr(x_min), "--x-max", repr(x_max),
                                "--points", str(n), "--out", str(prof)])

        def check_profile(rc):
            if rc != 0:
                return f"profile: exit {rc}"
            with open(prof) as fh:
                table = parse_profile_csv(fh.read())
            with open(str(prof) + ".json") as fh:
                sidecar = json.load(fh)
            if table is None:
                return "profile: malformed table"
            return check_profile_table(table, sidecar, p, n, x_min, x_max,
                                       memo.get("regular"), samples)

        def run_spectrum():
            return ec_cli.main(["spectrum", *common, "--k-min", repr(k_min), "--k-max", repr(k_max),
                                "--points", str(n), "--out", str(spec)])

        def check_spectrum(rc):
            if rc != 0:
                return f"spectrum: exit {rc}"
            return check_spectrum_text(spec.read_text(), m, g, k_min, k_max, n)

        inputs = {"m": m, "gamma": g}
        return [Item("profile-array", tag, run_array, check_array, n, inputs=inputs),
                Item("profile-cli", tag, run_profile, check_profile, n,
                     out_files=(prof, Path(str(prof) + ".json")), inputs=inputs),
                Item("spectrum-cli", tag, run_spectrum, check_spectrum, n, out_files=(spec,),
                     inputs=inputs)]

    def _residuals(self, rng, cat: str, m: float, g: float | None) -> list[Item]:
        p = params(m, g)
        nfd = self.ctx.sizes.fd_grid
        h = FD_SIDE / (nfd - 1)
        items = []

        l, k = rng.uniform(0.3, 2.0), rng.uniform(-2.0, 2.0)
        bulk = ec.bulk_mode(p, l, k)
        items.append(self._order2(f"{cat} bulk l={l:.3g} k={k:.3g}", p, bulk.E, h, nfd,
                                  lambda x, y, b=bulk: ec.eval_bulk(b, p, x, y), l, abs(k)))

        # draw the decay rate, then solve the linear dispersion for k
        lam = rng.uniform(0.2, 3.0)
        if g is None:
            k_edge = lam
        else:
            k_edge = (lam - 2.0 * g * m / (g * g + 1.0)) * (g * g + 1.0) / (g * g - 1.0)
        edge = ec.edge_mode_at_k(p, k_edge)
        items.append(self._order2(f"{cat} edge k={k_edge:.3g}", p, edge.E, h, nfd,
                                  lambda x, y, e=edge: ec.eval_edge(e, p, x, y), edge.lam, abs(k_edge)))

        mu, kd, sign = log_uniform(rng, 1.0, 100.0), rng.uniform(-1.0, 1.0), 1 if rng.random() < 0.5 else -1
        mode = ec.defect_mode(p, mu, kd, sign)
        nd = self.ctx.sizes.defect_grid
        hd = 5.0 / mode.lambda_def / (nd - 1)

        def run_defect():
            return ec.richardson_residual(lambda x, y: ec.eval_defect(mode, x, y), sign * 1j * mu,
                                          p, 0.0, 0.0, nd, 9, hd)

        def check_defect(r):
            return None if r < TOL_RICHARDSON else "fd: defect Richardson residual above 1e-8"

        items.append(Item("fd-residual", f"{cat} defect mu={mu:.3g} sign={sign}",
                          run_defect, check_defect, inputs={"m": m, "gamma": g}))
        return items

    @staticmethod
    def _order2(label, p, E, h, nfd, fn, kx, ky) -> Item:
        bound = FD_ORDER2_FACTOR * (kx ** 3 + ky ** 3) * h * h

        def run():
            return ec.eigen_residual(fn, E, p, 0.0, 0.0, nfd, nfd, h)

        def check(r):
            return None if r < bound else "fd: eigen residual above the O(h^2) bound"

        return Item("fd-residual", label, run, check, inputs={"m": p.m, "E": E})


class Verify(Workload):
    """Closed forms against their quadrature oracles, plus constraint solves."""

    name = "verify"
    # (n species, pinned gammas): one or two free species
    SOLVE_CONFIGS = ((2, 1), (2, 0), (3, 2), (3, 1), (4, 3), (4, 2))

    def items(self, rng) -> list[Item]:
        s = self.ctx.sizes
        out = []
        for kind in ("edge", "bulk", "branch-cut"):
            for i, x in enumerate(stratified_x(rng, s.oracle_strata, 0.05, s.x_max)):
                out.append(self._oracle(rng, kind, i, x))
        for n, npin in self.SOLVE_CONFIGS:
            for d in range(s.solve_draws):
                # Every second draw pins one gamma near +-1, where the seed's
                # solver raises at once: a fixed share keeps the cost per seed steady.
                near_at = int(rng.integers(npin)) if npin and d % 2 else -1
                out.append(self._solve(n, [projective_gamma(rng, near=j == near_at)
                                           for j in range(npin)]))
        return out

    @staticmethod
    def _oracle(rng, kind: str, i: int, x: float) -> Item:
        # Each run returns (closed form, oracle value).
        if kind == "branch-cut":
            m, g = rng.uniform(0.2, 2.0), None
            label = f"branch-cut m={m:.3g} x={x:.3g}"

            def run():
                r = ec.oracle_branch_cut_integral(m, x)
                return r.contour_value, r.abel_value

            tol = TOL_BRANCH
        else:
            # m > 0, m = 0 and m < 0 in turn
            m = (rng.uniform(0.2, 2.0), 0.0, -rng.uniform(0.2, 2.0))[i % 3]
            g = projective_gamma(rng)
            p = params(m, g)
            label = f"{kind} m={m:.3g} gamma={g:.6g} x={x:.3g}"
            if kind == "edge":
                def run():
                    return ec.total_decomposition(p).edge_smooth(x), ec.oracle_edge_current(p, x)
            else:
                def run():
                    return ec.total_decomposition(p).bulk_smooth(x), oracle_bulk_dual(p, x)
                tol = TOL_BULK

        def check(out):
            if kind == "edge":
                return edge_mismatch("oracle-edge: rel_dev above", *out)
            return None if rel_dev(*out) < tol else f"oracle-{kind}: rel_dev above {tol:g}"

        return Item(f"oracle-{kind}", label, run, check, inputs={"m": m, "gamma": g, "x": x})

    @staticmethod
    def _solve(n: int, pinned: list[float]) -> Item:
        def run():
            return ec.solve_system(n, pinned)

        return Item("solve", f"n={n} pinned={[round(v, 4) for v in pinned]}", run,
                    lambda sols: check_solutions(sols, n, pinned),
                    inputs={"n": n, "pinned": pinned, "free": n - len(pinned)})


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    trace: dict | None = None


class CliOneshot(Workload):
    """The README's CLI examples and the documented error cases, one fresh process each."""

    name = "cli-oneshot"
    in_process = False

    # (argv, expected exit code); the last entry is the ROADMAP's --solve 3 case
    COMMANDS = (
        (["spectrum", "--m", "1", "--gamma", "2", "--k-min", "-2", "--k-max", "2", "--points", "41"], 0),
        (["profile", "--m", "1", "--gamma", "2", "--x-min", "0.1", "--x-max", "5", "--points", "50"], 0),
        (["oracle", "--m", "1", "--gamma", "2", "--x", "0.7", "--what", "edge"], 0),
        (["oracle", "--m", "1", "--gamma", "2", "--x", "1.0", "--what", "bulk"], 0),
        (["oracle", "--m", "1", "--x", "1.0", "--what", "branch-cut"], 0),
        (["constraints", "--gammas", "2,-0.5"], 0),
        (["constraints", "--solve", "2", "--fix", "2"], 0),
        (["dual", "--m", "1", "--gamma", "0", "--which", "reflection"], 0),
        (["constraints", "--gammas", "2", "--solve", "2"], 2),
        (["profile", "--m", "1", "--gamma", "1"], 3),
        (["constraints", "--solve", "3", "--fix", "2"], 0),
    )

    def warmup(self) -> None:
        # One fresh process per subcommand writes the bytecode caches.
        seen = set()
        for argv, _ in self.COMMANDS:
            if argv[0] not in seen:
                seen.add(argv[0])
                self._spawn(argv, traced=False)

    def items(self, rng) -> list[Item]:
        order = rng.permutation(len(self.COMMANDS))
        out = []
        for i in order:
            argv, code = self.COMMANDS[int(i)]
            out.append(Item(f"cli-{argv[0]}", " ".join(argv),
                            lambda a=argv: self._spawn(a, traced=False),
                            lambda res, a=argv, c=code: check_cli(a, c, res),
                            traced_run=lambda a=argv: self._spawn(a, traced=True),
                            inputs={"argv": " ".join(argv)}))
        return out

    def _spawn(self, argv: list[str], traced: bool) -> CliResult:
        trace_file = None
        if traced:
            trace_file = self.ctx.tmp / "cli-child-trace.json"
            cmd = [*self.ctx.trace_child, str(trace_file), *argv]
        else:
            cmd = [self.ctx.python, "-m", "edgecurrents.cli", *argv]
        proc = subprocess.run(cmd, env=self.ctx.cli_env, cwd=self.ctx.root,
                              capture_output=True, text=True, timeout=120)
        trace = None
        if trace_file is not None and trace_file.exists():
            trace = json.loads(trace_file.read_text())
            trace_file.unlink()
        return CliResult(proc.returncode, proc.stdout, proc.stderr, trace)


def check_cli(argv: list[str], expected: int, res: CliResult) -> str | None:
    """Exit code, stderr and output content of one CLI process."""
    sub = argv[0]
    if "Traceback" in res.stderr:
        last = res.stderr.strip().splitlines()[-1] if res.stderr.strip() else ""
        return f"cli-{sub}: exit {res.returncode} with traceback ({mask_numbers(last)})"
    if res.returncode != expected:
        return f"cli-{sub}: exit {res.returncode}, expected {expected}"
    if expected == 2:
        return None if "usage:" in res.stderr else "cli: usage error without usage text"
    if expected == 3:
        return None if "rejected parameter" in res.stderr else "cli: exit 3 without message"
    opt = dict(zip(argv[1::2], argv[2::2]))
    if sub == "spectrum":
        g = None if opt["--gamma"] == "inf" else float(opt["--gamma"])
        return check_spectrum_text(res.stdout, float(opt["--m"]), g, float(opt["--k-min"]),
                                   float(opt["--k-max"]), int(opt["--points"]))
    if sub == "profile":
        table = parse_profile_csv(res.stdout)
        if table is None:
            return "profile: malformed table"
        m = float(opt["--m"])
        g = None if opt["--gamma"] == "inf" else float(opt["--gamma"])
        return check_profile_table(table, json.loads(res.stderr), params(m, g), int(opt["--points"]),
                                   float(opt["--x-min"]), float(opt["--x-max"]), None, [0, 25, 49])
    if sub == "oracle":
        return check_oracle_cli(opt, res.stdout)
    if sub == "constraints":
        report = json.loads(res.stdout)
        if "--solve" in opt:
            fix = [float(v) for v in opt.get("--fix", "").split(",") if v]
            sols = [ec.make_system(s) for s in report["solutions"]]
            return check_solutions(sols, int(opt["--solve"]), fix)
        rep = ec.residuals(ec.make_system(opt["--gammas"].split(",")))
        verdict = "CANCELS" if rep.cancels() else "DIVERGENT"
        if report["verdict"] != verdict or not close(report["r_log"], rep.r_log, abs(rep.r_log) + 1.0):
            return "constraints: report differs from residuals()"
        return None
    if sub == "dual":
        q = ec.reflection_dual(params(float(opt["--m"]), float(opt["--gamma"])))
        want = {"m": q.m, "gamma": "inf" if q.gamma.is_infinite else q.gamma.value}
        return None if json.loads(res.stdout) == want else "dual: wrong dual parameters"
    return None


def check_oracle_cli(opt: dict, stdout: str) -> str | None:
    lines = stdout.strip().splitlines()
    if len(lines) != 2 or lines[0] != "quantity,closed_form,oracle,abs_dev,rel_dev,verdict":
        return "oracle: malformed output"
    name, closed, _, _, rel, verdict = lines[1].split(",")
    m, x, what = float(opt["--m"]), float(opt["--x"]), opt["--what"]
    tol = {"edge": TOL_EDGE, "bulk": TOL_BULK, "branch-cut": TOL_BRANCH}[what]
    if verdict != "PASS" or not float(rel) < tol:
        return f"oracle-{what}: FAIL"
    if what == "branch-cut":
        ref = math.pi * math.exp(-2.0 * m * x) * (m / (2.0 * x) + 1.0 / (4.0 * x * x))
    else:
        dec = ec.total_decomposition(params(m, float(opt.get("--gamma", "2"))))
        ref = dec.edge_smooth(x) if what == "edge" else dec.bulk_smooth(x)
    if not close(float(closed), ref, abs(ref)):
        return f"oracle-{what}: closed_form column differs from the library"
    return None


WORKLOADS = {w.name: w for w in (CliOneshot, Tabulate, Verify)}


def run_item(item: Item, traced: bool = False) -> tuple[float, Any, str | None]:
    """Run one item, timed; returns (seconds, output, failure reason from the call)."""
    fn = item.traced_run if (traced and item.traced_run is not None) else item.run
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a raising operation is a counted failure, not a crash
        return time.perf_counter() - t0, None, f"{item.cls}: {exception_reason(exc)}"
    return time.perf_counter() - t0, out, None


def check_item(item: Item, out) -> str | None:
    try:
        return item.check(out)
    except Exception as exc:  # a check that cannot parse the output fails the operation
        return f"{item.cls}: output check raised {exception_reason(exc)}"


def cli_env(root: Path, blas: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(blas)
    env["PYTHONPATH"] = str(root / "src")
    return env
