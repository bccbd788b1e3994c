"""edgecurrents benchmark: three closed-loop workloads with output checks.

    python3 bench/run.py --workload {cli-oneshot,tabulate,verify} --seed N \\
        --seconds S --trace {0,1}
    python3 bench/run.py --smoke
    python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl

Run from the repository root; the package is imported from ``src/`` (it need
not be installed).  With ``--trace 0`` the last stdout line is a JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run.  The lines before it show every metric by name and
unit, the failure reasons and the machine facts.  Each run also appends its
full record to ``.bench_out/results.jsonl`` (``--out`` to change), which is
what ``--compare`` reads.

BLAS is pinned to one thread for the benchmark and every process it starts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
# The host's speed drifts by +-20% over minutes (other tenants share the CPU).
# Gated times are therefore corrected by a reference loop timed right before
# and after each measured call: t * REF_NOMINAL_S / (reference time), i.e.
# seconds at the reference loop's nominal speed.  Wall times are kept too.
REF_LOOP = 40_000
REF_NOMINAL_S = 0.0025

# name -> (unit, better, bound); the gated end-to-end metrics of every workload
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "mix_s": ("s", "lower", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.1),
}
# The per-operation-class metrics, each on the workloads that run that class.
# They are printed and compared (``--compare``) but not part of BENCHMARK.json,
# whose end-to-end metrics must exist on every workload.
DETAIL = {
    "cli_call_p50_s": ("s", "lower", 0.25, ("cli-oneshot",)),
    "cli_call_tail_s": ("s", "lower", 0.25, ("cli-oneshot",)),
    "profile_rows_per_s": ("rows/s", "higher", 0.25, ("tabulate",)),
    "profile_array_points_per_s": ("points/s", "higher", 0.25, ("tabulate",)),
    "spectrum_rows_per_s": ("rows/s", "higher", 0.25, ("tabulate",)),
    "residual_checks_per_s": ("checks/s", "higher", 0.25, ("tabulate",)),
    "oracle_check_p50_s": ("s", "lower", 0.25, ("verify",)),
    "oracle_check_tail_s": ("s", "lower", 0.25, ("verify",)),
    "solve_p50_s": ("s", "lower", 0.25, ("verify",)),
    "fail_ratio": ("ratio", "lower", 0.0, ("cli-oneshot", "tabulate", "verify")),
}


def _near_cpt(g) -> bool:
    """gamma within 0.1 of +-1 (the draws' near-CPT band)."""
    return g is not None and abs(abs(g) - 1.0) <= 0.1


def _oracle_x_limits(i) -> bool:
    """x outside [0.6, 2]: the Abel-damped oracles lose accuracy at small x and
    where the current is tiny at large x (seed failures seen up to x = 0.47 and
    from x = 2.8)."""
    return not 0.6 <= i["x"] <= 2.0


def _negative_mass_edge(i) -> bool:
    """m < 0 with finite gamma < 0: the edge closed form, which takes the
    reflection-duality route there, differs from ``oracle_edge_current``."""
    return i["m"] < 0 and i["gamma"] is not None and i["gamma"] < 0


# The seed code's known defects (BASELINE.md): failure reason -> the inputs on
# which it is known to occur.  Such a failure counts in ``failed`` and keeps
# ``correct`` true; any other failure, including a known reason outside its
# domain, makes ``correct`` false.  A fix in the library removes its entry.
KNOWN_DEFECTS = {
    "cli-constraints: exit 1 with traceback (ValueError: math domain error)":
        lambda i: i["argv"] == "constraints --solve 3 --fix 2",
    "solve: ValueError: math domain error":
        lambda i: i["free"] >= 2 or any(_near_cpt(g) for g in i["pinned"]),
    "oracle-bulk: rel_dev above 0.01": _oracle_x_limits,
    "oracle-bulk: NonConvergent: Abel extrapolation unstable: error estimate #": _oracle_x_limits,
    "oracle-branch-cut: rel_dev above 0.0001": _oracle_x_limits,
    "oracle-branch-cut: NonConvergent: Abel extrapolation unstable: error estimate #": _oracle_x_limits,
    "oracle-edge: rel_dev above 1e-08": _negative_mass_edge,
    "profile: edge column vs oracle_edge_current above 1e-08": _negative_mass_edge,
    # the edge oracle's quad epsabs=1e-12 bounds its relative accuracy where
    # the edge current is exponentially small
    "oracle-edge: rel_dev above 1e-08, abs_dev below 1e-10": lambda i: True,
    "profile: edge column vs oracle_edge_current above 1e-08, abs_dev below 1e-10": lambda i: True,
}


def known_defect(reason: str, inputs: dict) -> bool:
    domain = KNOWN_DEFECTS.get(reason)
    return domain is not None and domain(inputs)


LAYER_UNITS = {
    "import.edgecurrents_s": "s", "import.scipy_s": "s", "import.numpy_floor_s": "s",
    "cli.calls": "count", "cli.self_s": "s", "cli.bytes_out": "bytes",
    "currents.calls": "count", "currents.self_s": "s", "currents.points_per_call": "points",
    "spectrum.calls": "count", "spectrum.self_s": "s", "spectrum.points_per_call": "points",
    "fd.calls": "count", "fd.self_s": "s", "fd.grid_points": "points",
    "oracle.calls": "count", "oracle.self_s": "s", "oracle.quad_calls": "count",
    "oracle.quad_s": "s", "oracle.quad_calls_per_check": "count", "oracle.pass_ratio": "ratio",
    "oracle.max_rel_dev": "ratio", "oracle.nonconvergent": "count",
    "multifermion.calls": "count", "multifermion.self_s": "s",
    "multifermion.residual_evals": "count", "multifermion.solutions_per_kilo_eval": "sol/keval",
    "multifermion.errors": "count",
    "params.calls": "count", "params.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# statistics


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def tail(xs) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    s = sorted(xs)
    if len(s) < 11:
        return float("nan"), float("nan")
    i = len(s) - 11
    return s[i], 100.0 * (i + 1) / len(s)


# ---------------------------------------------------------------------------
# machine and run facts


def facts(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for f in sorted((SRC / "edgecurrents").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": dict(BLAS_ENV),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def host_probe() -> float:
    """Wall time of a fixed pure-Python loop (2 to 3 ms): the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i
    return time.perf_counter() - t0


def bracket(fn, probes: list[float]):
    """Run fn between two host probes: (fn's result, factor turning its wall time into corrected time)."""
    r0 = host_probe()
    out = fn()
    r1 = host_probe()
    probes += (r0, r1)
    return out, REF_NOMINAL_S / (0.5 * (r0 + r1))


# ---------------------------------------------------------------------------
# set-up time and import profile (fresh interpreters)


def measure_setup(name: str, env: dict, repeats: int, probes: list[float]):
    """Fresh processes: import (cli-oneshot) or import plus warm-up; (wall, corrected) lists."""
    if name == "cli-oneshot":
        cmd = [sys.executable, "-c", "import edgecurrents"]
    else:
        cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", name]
    def once():
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-500:]}")
        return time.perf_counter() - t0

    wall, corrected = [], []
    for _ in range(repeats):
        dt, k = bracket(once, probes)
        wall.append(dt)
        corrected.append(dt * k)
    return wall, corrected


def import_profile(env: dict, repeats: int) -> dict:
    """Medians over fresh ``-X importtime`` interpreters importing edgecurrents."""
    acc = {"import.edgecurrents_s": [], "import.scipy_s": [], "import.numpy_floor_s": []}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import edgecurrents"],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        scipy_self = 0
        found = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line[len("import time:"):].split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            self_us, cum_us, name = int(parts[0]), int(parts[1]), parts[2].strip()
            if name == "scipy" or name.startswith("scipy."):
                scipy_self += self_us
            if name in ("edgecurrents", "numpy"):
                found[name] = cum_us
        acc["import.edgecurrents_s"].append(found.get("edgecurrents", 0) / 1e6)
        acc["import.numpy_floor_s"].append(found.get("numpy", 0) / 1e6)
        acc["import.scipy_s"].append(scipy_self / 1e6)
    return {k: median(v) for k, v in acc.items()}


# ---------------------------------------------------------------------------
# one run


def oracle_outcome(item, out, reason):
    """(is an oracle check, rel_dev or None, passed, non-convergent) of one operation."""
    import workloads as W

    cls = item.cls
    if cls.startswith("oracle-"):
        rel = W.rel_dev(*out) if isinstance(out, tuple) else None
        return True, rel, reason is None, bool(reason and "NonConvergent" in reason)
    if cls == "cli-oracle" and out is not None:
        nonconv = "non-convergent" in out.stdout
        rel = None
        lines = out.stdout.strip().splitlines()
        if len(lines) == 2 and lines[1].count(",") == 5:
            try:
                rel = float(lines[1].split(",")[4])
            except ValueError:
                rel = None
        return True, rel, reason is None, nonconv
    return False, None, False, False


def solutions_in(item, out) -> int:
    if item.cls == "solve" and isinstance(out, list):
        return len(out)
    if item.cls == "cli-constraints" and out is not None and '"solutions"' in out.stdout:
        try:
            return len(json.loads(out.stdout)["solutions"])
        except (ValueError, KeyError):
            return 0
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None,
                 setup_repeats: int = SETUP_REPEATS, importtime_repeats: int = IMPORTTIME_REPEATS) -> dict:
    import numpy as np

    import workloads as W
    from spans import Tracer, merge

    t_run = time.perf_counter()
    load_start = os.getloadavg()
    tmp = OUT_DIR / "tmp" / f"{name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = W.cli_env(ROOT, BLAS_ENV)
    ctx = W.Context(root=ROOT, tmp=tmp, sizes=sizes or W.Sizes(), cli_env=env,
                    trace_child=[sys.executable, str(Path(__file__)), "--cli-child"])
    probes: list[float] = []
    setup_wall, setup = measure_setup(name, env, setup_repeats, probes)
    wl = W.WORKLOADS[name](ctx)
    wl.warmup()
    items = wl.items(np.random.default_rng(seed))

    samples: list[list[float]] = [[] for _ in items]  # wall seconds
    corrected: list[list[float]] = [[] for _ in items]  # host-corrected seconds
    traced_wall = untraced_wall = 0.0
    attempted = failed = 0  # over the first full pass, which is the same on every run of a seed
    reasons: dict[str, dict] = {}  # first pass
    unexpected: dict[str, dict] = {}  # every pass
    oracle_checks = oracle_pass = nonconv = solutions = mf_errors = 0
    max_rel = 0.0
    bytes_out = 0
    tracer = Tracer(max_spans=100_000) if trace else None
    child_summaries: list[dict] = []
    child_spans: list[list] = []
    deadline = time.perf_counter() + seconds
    rep = 0
    op = 0
    while True:
        for i, item in enumerate(items):
            if rep > 0 and time.perf_counter() >= deadline:
                break
            op += 1
            traced_first = trace and (op % 2 == 0)
            if traced_first:
                tr_dt, tr_out = _traced(item, tracer, op)
            (dt, out, reason), k = bracket(lambda: W.run_item(item), probes)
            if trace and not traced_first:
                tr_dt, tr_out = _traced(item, tracer, op)
            if trace:
                traced_wall += tr_dt
                untraced_wall += dt
                if wl.in_process:
                    bytes_out += sum(f.stat().st_size for f in item.out_files if f.exists())
                elif tr_out is not None:
                    bytes_out += len(tr_out.stdout.encode()) + len(tr_out.stderr.encode())
                    if tr_out.trace is not None:
                        child_summaries.append(tr_out.trace["summary"])
                        child_spans += [s[:4] + [op] for s in tr_out.trace["spans"]]
            if reason is None:
                reason = W.check_item(item, out)
            samples[i].append(dt)
            corrected[i].append(dt * k)
            attempted += rep == 0
            is_oracle, rel, passed, nc = oracle_outcome(item, out, reason)
            if is_oracle:
                oracle_checks += 1
                oracle_pass += passed
                nonconv += nc
                if rel is not None and rel == rel:
                    max_rel = max(max_rel, rel)
            solutions += solutions_in(item, out)
            if reason is None:
                continue
            if item.cls in ("solve", "cli-constraints") and ("Error" in reason or "traceback" in reason):
                mf_errors += 1
            tallies = [reasons] if rep == 0 else []
            if not known_defect(reason, item.inputs):
                tallies.append(unexpected)
            failed += rep == 0
            for tally in tallies:
                r = tally.setdefault(reason, {"count": 0, "examples": []})
                r["count"] += 1
                if len(r["examples"]) < 3 and item.label not in r["examples"]:
                    r["examples"].append(item.label)
        else:
            rep += 1
            if time.perf_counter() < deadline:
                continue
        break
    measured_s = time.perf_counter() - (deadline - seconds)

    by_cls: dict[str, list[float]] = {}
    corrected_by_cls: dict[str, list[float]] = {}
    mix_by_cls: dict[str, float] = {}
    size_of: dict[str, int] = {}
    for item, ts, cs in zip(items, samples, corrected):
        by_cls.setdefault(item.cls, []).extend(ts)
        corrected_by_cls.setdefault(item.cls, []).extend(cs)
        mix_by_cls[item.cls] = mix_by_cls.get(item.cls, 0.0) + (median(cs) if cs else 0.0)
        size_of[item.cls] = item.size
    mix = sum(mix_by_cls.values())
    if wl.in_process:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    metrics: dict[str, dict] = {
        "setup_s": {"value": median(setup), "unit": "s", "samples": len(setup)},
        "mix_s": {"value": mix, "unit": "s", "samples": sum(len(ts) for ts in samples)},
        "setup_wall_s": {"value": median(setup_wall), "unit": "s"},
        "mix_wall_s": {"value": sum(median(ts) for ts in samples if ts), "unit": "s"},
        "peak_rss_mib": {"value": rss_kib / 1024.0, "unit": "MiB"},
        "fail_ratio": {"value": failed / max(attempted, 1), "unit": "ratio"},
    }
    detail = _detail(name, corrected_by_cls, size_of)
    metrics.update(detail)

    record = {
        "schema": 1, "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": attempted, "failed": failed, "repetitions": rep,
        "metrics": metrics, "failures": reasons, "unexpected_failures": unexpected,
        "per_class": {c: {"calls": len(ts), "median_s": median(ts), "mix_s": mix_by_cls[c]}
                      for c, ts in by_cls.items()},
        "wall_s": {"run": None, "measured": measured_s},
        "note": "closed loop, one client, single-threaded: no layer queues or waits, "
                "so no wait times are reported",
    }
    if trace:
        summary = merge([tracer.summary(), *child_summaries])
        layer = _layer_metrics(summary, oracle_checks, oracle_pass, max_rel, nonconv,
                               solutions, mf_errors, bytes_out)
        layer.update(import_profile(env, importtime_repeats))
        layer["trace.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else float("nan")
        # an absent metric (its hook is gone) reads 0 and is flagged
        record["layers"] = {k: {"value": 0.0 if layer.get(k) is None else layer[k], "unit": u,
                                **({"absent": True} if layer.get(k) is None else {})}
                            for k, u in LAYER_UNITS.items()}
        record["trace_summary"] = {"spans_seen": summary["spans_seen"],
                                   "spans_kept": summary["spans_kept"],
                                   "missing_hooks": summary["missing"]}
        record["wall_s"].update(untraced_ops=untraced_wall, traced_ops=traced_wall)
        spans_file = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.save(spans_file, child_spans)
        record["spans_file"] = str(spans_file.relative_to(ROOT))
    record["wall_s"]["run"] = time.perf_counter() - t_run
    record["facts"] = facts(seed)
    record["facts"]["loadavg_start"] = load_start
    record["facts"]["loadavg_end"] = os.getloadavg()
    record["facts"]["host_probe_s"] = median(probes)
    record["facts"]["host_probe_nominal_s"] = REF_NOMINAL_S
    _cleanup(tmp)
    return record


def _traced(item, tracer, op: int):
    import workloads as W

    tracer.op_id = op
    if item.traced_run is not None:  # a traced child process does its own tracing
        dt, out, _ = W.run_item(item, traced=True)
        return dt, out
    tracer.install()
    try:
        dt, out, _ = W.run_item(item)
    finally:
        tracer.uninstall()
    return dt, out


def _detail(name: str, by_cls: dict, size_of: dict) -> dict:
    out = {}

    def put(metric, value, **extra):
        out[metric] = {"value": value, "unit": DETAIL[metric][0], **extra}

    if name == "cli-oneshot":
        calls = [t for c, ts in by_cls.items() for t in ts]
        put("cli_call_p50_s", median(calls), samples=len(calls))
        v, pct = tail(calls)
        put("cli_call_tail_s", v, percentile=pct, samples=len(calls))
    elif name == "tabulate":
        for metric, cls in (("profile_rows_per_s", "profile-cli"),
                            ("profile_array_points_per_s", "profile-array"),
                            ("spectrum_rows_per_s", "spectrum-cli"),
                            ("residual_checks_per_s", "fd-residual")):
            ts = by_cls.get(cls, [])
            put(metric, size_of.get(cls, 1) / median(ts) if ts else float("nan"), samples=len(ts))
    else:
        checks = [t for c, ts in by_cls.items() if c.startswith("oracle-") for t in ts]
        put("oracle_check_p50_s", median(checks), samples=len(checks))
        v, pct = tail(checks)
        put("oracle_check_tail_s", v, percentile=pct, samples=len(checks))
        solves = by_cls.get("solve", [])
        put("solve_p50_s", median(solves), samples=len(solves))
    return out


def _layer_metrics(s: dict, checks, passes, max_rel, nonconv, solutions, mf_errors, bytes_out) -> dict:
    """Per-layer metrics from merged tracer counters; None marks an absent metric."""
    calls, self_s, total_s, points = s["calls"], s["self_s"], s["total_s"], s["points"]
    missing = set(s["missing"])

    def of(layer, d, skip=()):
        return sum(v for k, v in d.items() if k.split(".")[0] == layer and k not in skip)

    out: dict = {}
    for layer in ("params", "spectrum", "fd", "currents", "oracle", "multifermion", "cli"):
        if layer in missing:
            out[f"{layer}.calls"] = out[f"{layer}.self_s"] = None
            continue
        out[f"{layer}.calls"] = of(layer, calls, skip=("oracle.quad",))
        out[f"{layer}.self_s"] = of(layer, self_s)
    for layer in ("currents", "spectrum"):
        n = sum(calls[k] for k in points if k.startswith(layer + "."))
        out[f"{layer}.points_per_call"] = of(layer, points) / n if n else 0.0
    out["fd.grid_points"] = of("fd", points)
    out["cli.bytes_out"] = bytes_out
    quad = "oracle.quad" not in missing
    out["oracle.quad_calls"] = calls.get("oracle.quad", 0) if quad else None
    out["oracle.quad_s"] = total_s.get("oracle.quad", 0.0) if quad else None
    out["oracle.quad_calls_per_check"] = (out["oracle.quad_calls"] / checks if checks else 0.0) if quad else None
    out["oracle.pass_ratio"] = passes / checks if checks else 0.0
    out["oracle.max_rel_dev"] = max_rel
    out["oracle.nonconvergent"] = nonconv
    res = "multifermion.residuals" not in missing
    evals = calls.get("multifermion.residuals", 0)
    out["multifermion.residual_evals"] = evals if res else None
    out["multifermion.solutions_per_kilo_eval"] = (1000.0 * solutions / evals if evals else 0.0) if res else None
    out["multifermion.errors"] = mf_errors
    return out


def _cleanup(tmp: Path) -> None:
    for f in tmp.iterdir():
        f.unlink()
    tmp.rmdir()


# ---------------------------------------------------------------------------
# output


def result_line(record: dict) -> dict:
    """The JSON object of the last stdout line."""
    if record["trace"]:
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in record["layers"].items()}
    else:
        metrics = {k: {"value": record["metrics"][k]["value"], "unit": u}
                   for k, (u, _, _) in END_TO_END.items()}
    correct = not record["unexpected_failures"] and all(
        isinstance(m["value"], (int, float)) and m["value"] == m["value"] for m in metrics.values())
    return {"correct": correct, "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def print_report(record: dict) -> None:
    w = record["workload"]
    print(f"workload {w}  seed {record['seed']}  seconds {record['seconds']}  trace {record['trace']}"
          f"  ({record['repetitions']} full passes over the mix)")
    print(f"  {record['note']}")
    for k, m in record["metrics"].items():
        extra = ""
        if "percentile" in m:
            extra = f"  (p{m['percentile']:.0f} of {m['samples']} calls)"
        elif "samples" in m:
            extra = f"  ({m['samples']} samples)"
        gated = "  [gated]" if k in END_TO_END else ""
        print(f"  {k:<28} {m['value']:.6g} {m['unit']}{extra}{gated}")
    print(f"  first pass: attempted {record['attempted']}  failed {record['failed']}")
    for reason, r in sorted(record["failures"].items(), key=lambda kv: -kv[1]["count"]):
        print(f"    FAIL x{r['count']}: {reason}  e.g. {'; '.join(r['examples'])}")
    for reason, r in sorted(record["unexpected_failures"].items(), key=lambda kv: -kv[1]["count"]):
        print(f"    UNEXPECTED x{r['count']} over all passes: {reason}  e.g. {'; '.join(r['examples'])}")
    for cls, c in record["per_class"].items():
        print(f"    class {cls:<18} {c['calls']:>4} calls  median {c['median_s']:.4g} s"
              f"  share of mix_s {c['mix_s']:.4g} s")
    if record["trace"]:
        for k, m in record["layers"].items():
            print(f"  {k:<38} {'absent' if m.get('absent') else format(m['value'], '.6g')} {m['unit']}")
        print(f"  traced spans {record['trace_summary']}  file {record['spans_file']}")
    f = record["facts"]
    print(f"  facts: nproc {f['nproc']} (usable {f['cpus_usable']}), Python {f['python']}, "
          f"numpy {f['numpy']}, scipy {f['scipy']}, BLAS {f['blas']}, threads {f['blas_threads_env']}, "
          f"loadavg {f['loadavg_start']} -> {f['loadavg_end']}, host probe {f['host_probe_s']:.4g} s, "
          f"commit {f['git_commit']}, "
          f"src {f['src_sha256']}")
    print(f"  wall: {json.dumps({k: (round(v, 3) if v else v) for k, v in record['wall_s'].items()})}")


# ---------------------------------------------------------------------------
# helper processes


def setup_probe(name: str) -> int:
    """Import the package and run the workload's warm-up (a set-up sample)."""
    import workloads as W

    tmp = OUT_DIR / "tmp" / f"probe-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    ctx = W.Context(root=ROOT, tmp=tmp, sizes=W.Sizes(), cli_env=W.cli_env(ROOT, BLAS_ENV))
    try:
        W.WORKLOADS[name](ctx).warmup()
    finally:
        _cleanup(tmp)
    return 0


def cli_child(trace_path: str, argv: list[str]) -> int:
    """Run the CLI in-process with the tracer installed, like ``python -m edgecurrents.cli``."""
    import edgecurrents.cli
    from spans import Tracer

    tracer = Tracer(max_spans=20_000)
    tracer.install()
    try:
        rc = edgecurrents.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # mirror the interpreter: traceback on stderr, exit 1
        traceback.print_exc()
        rc = 1
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(trace_path, "w") as fh:
            json.dump({"summary": tracer.summary(), "spans": tracer.spans()}, fh)
    return rc


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("cli-oneshot", "tabulate", "verify"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=OUT_DIR / "results.jsonl")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, every workload; self-test")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), type=Path)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--cli-child", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.compare:
        import compare
        return compare.main(*args.compare)
    if not (SRC / "edgecurrents" / "__init__.py").is_file():
        print(f"error: no edgecurrents package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy loads OpenBLAS
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import edgecurrents
    if Path(edgecurrents.__file__).resolve().parent != (SRC / "edgecurrents").resolve():
        print(f"error: edgecurrents imported from {edgecurrents.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.cli_child is not None:
        return cli_child(args.cli_child[0], args.cli_child[1:])
    if args.setup_probe:
        return setup_probe(args.workload)
    if args.smoke:
        import smoke
        return smoke.main()
    if args.workload is None:
        ap.error("--workload is required")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print_report(record)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
