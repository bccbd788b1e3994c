"""The benchmark's own test: every workload, operation class, check and hook at tiny sizes.

    python3 bench/run.py --smoke

Runs each workload once untraced and once traced at ``SMOKE_SIZES``, checks
that the result lines carry every metric of BENCHMARK.json with a finite
value and ``correct`` true, that every operation class ran, that every output
check rejects a corrupted output, that only a known defect inside its domain
keeps a run correct, and that ``--compare`` reads the records.  Prints one
PASS/FAIL line per step and exits 1 on any failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np

import edgecurrents as ec
import edgecurrents.cli as ec_cli
import run
import workloads as W

CLASSES = {
    "cli-oneshot": {"cli-spectrum", "cli-profile", "cli-oracle", "cli-constraints", "cli-dual"},
    "tabulate": {"profile-array", "profile-cli", "spectrum-cli", "fd-residual"},
    "verify": {"oracle-edge", "oracle-bulk", "oracle-branch-cut", "solve"},
}


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def check_records(records: list[dict]) -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    problems = []
    if e2e != set(run.END_TO_END) or layers != set(run.LAYER_UNITS):
        problems.append("BENCHMARK.json metric names differ from bench/run.py")
    if {w["name"] for w in spec["workloads"]} != set(W.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/workloads.py")
    for rec in records:
        line = run.result_line(rec)
        want = layers if rec["trace"] else e2e
        tag = f"{rec['workload']} trace {rec['trace']}"
        if set(line) != {"correct", "attempted", "failed", "metrics"} or set(line["metrics"]) != want:
            problems.append(f"{tag}: result line keys")
        if not all(_finite(m["value"]) for m in line["metrics"].values()):
            problems.append(f"{tag}: non-finite metric")
        if not line["correct"]:
            problems.append(f"{tag}: failures outside the known defects "
                            f"{sorted(rec['unexpected_failures'])}")
        if not CLASSES[rec["workload"]] <= set(rec["per_class"]):
            problems.append(f"{tag}: missing operation classes")
        if not rec["trace"] and not all(_finite(m["value"]) for k, m in rec["metrics"].items()
                                        if k in run.DETAIL and rec["workload"] in run.DETAIL[k][3]
                                        and "tail" not in k):
            problems.append(f"{tag}: non-finite detail metric")
        if rec["trace"]:
            absent = [k for k, m in rec["layers"].items() if m.get("absent")]
            if absent:
                problems.append(f"{tag}: absent layer metrics {absent}")
            calls = {k: m["value"] for k, m in rec["layers"].items() if k.endswith(".calls")}
            busy = {"cli-oneshot": ("cli", "currents", "oracle", "multifermion", "params", "spectrum"),
                    "tabulate": ("cli", "currents", "spectrum", "fd"),
                    "verify": ("currents", "oracle", "multifermion", "params")}[rec["workload"]]
            if any(calls[f"{layer}.calls"] <= 0 for layer in busy):
                problems.append(f"{tag}: a hooked layer recorded no calls")
    return problems


def check_checks(tmp: Path) -> list[str]:
    """Each output check accepts a good output and rejects a corrupted one."""
    problems = []

    def expect(name, good, bad):
        if good is not None:
            problems.append(f"{name}: rejects a good output ({good})")
        if bad is None:
            problems.append(f"{name}: accepts a corrupted output")

    m, g, n = 1.0, 2.0, 40
    p = W.params(m, g)
    spec = tmp / "s.csv"
    ec_cli.main(["spectrum", "--m", "1", "--gamma", "2", "--points", str(n), "--out", str(spec)])
    text = spec.read_text()
    row = text.split("\n")[-2].split(",")
    bad = text.replace(",".join(row), ",".join([row[0], repr(float(row[1]) * 1.001), *row[2:]]))
    expect("spectrum", W.check_spectrum_text(text, m, g, -2.0, 2.0, n),
           W.check_spectrum_text(bad, m, g, -2.0, 2.0, n))

    prof = tmp / "p.csv"
    ec_cli.main(["profile", "--m", "1", "--gamma", "2", "--points", str(n), "--out", str(prof)])
    table = W.parse_profile_csv(prof.read_text())
    side = json.loads(Path(str(prof) + ".json").read_text())
    ref = ec.total_decomposition(p).regular(np.geomspace(0.1, 5.0, n))
    bad_reg = table.copy()
    bad_reg[7, 4] *= 1.0 + 1e-9
    expect("profile vs array path", W.check_profile_table(table, side, p, n, 0.1, 5.0, ref, [3]),
           W.check_profile_table(bad_reg, side, p, n, 0.1, 5.0, ref, [3]))
    bad_edge = table.copy()
    bad_edge[3, 2] *= 1.0 + 1e-6
    bad_edge[3, 3] = bad_edge[3, 1] + bad_edge[3, 2]
    bad_edge[3, 4] = bad_edge[3, 3] - bad_edge[3, 5]
    expect("profile vs edge oracle", None,
           W.check_profile_table(bad_edge, side, p, n, 0.1, 5.0, bad_edge[:, 4], [3]))

    fd = W.Tabulate._order2("fd", p, -1.0, 0.01, 8, None, 1.0, 1.0)
    expect("fd order-2 bound", fd.check(1e-9), fd.check(1.0))
    rng = np.random.default_rng(0)
    for kind in ("edge", "bulk", "branch-cut"):
        item = W.Verify._oracle(rng, kind, 0, 1.0)
        expect(f"oracle {kind}", item.check((1.0, 1.0)), item.check((1.0, 1.1)))
    expect("solve", W.check_solutions([ec.conjugate_pair(2.0)], 2, [2.0]),
           W.check_solutions([ec.make_system([2.0, 3.0])], 2, [2.0]))
    expect("solve (empty is valid)", W.check_solutions([], 3, [2.0]), "placeholder")

    argv, _ = W.CliOneshot.COMMANDS[7]  # dual
    good = W.CliResult(0, json.dumps({"gamma": "inf", "m": -1.0}), "")
    expect("cli exit code", W.check_cli(argv, 0, good), W.check_cli(argv, 0, W.CliResult(1, good.stdout, "")))
    expect("cli traceback", None, W.check_cli(argv, 0, W.CliResult(0, good.stdout, "Traceback (most...")))
    expect("cli usage text", W.check_cli(argv, 2, W.CliResult(2, "", "usage: x")),
           W.check_cli(argv, 2, W.CliResult(2, "", "")))
    return problems


def check_known_defects(record: dict) -> list[str]:
    """Only a known reason inside its domain keeps a run correct."""
    problems = []
    solve = "solve: ValueError: math domain error"
    if not run.known_defect(solve, {"n": 3, "pinned": [2.0], "free": 2}):
        problems.append("known defect: a two-free-species solve error is not known")
    if run.known_defect(solve, {"n": 2, "pinned": [2.0], "free": 1}):
        problems.append("known defect: a solve error outside its domain counts as known")
    if run.known_defect("profile: rows differ from regular(xs) of the array path", {"m": 1.0, "gamma": 2.0}):
        problems.append("known defect: an unlisted reason counts as known")
    broken = dict(record, unexpected_failures={"solve: wrong": {"count": 1, "examples": []}})
    if run.result_line(broken)["correct"]:
        problems.append("result line: correct stays true with an unexpected failure")
    return problems


def main() -> int:
    problems: list[str] = []
    records = []
    for name in W.WORKLOADS:
        for trace in (False, True):
            rec = run.run_workload(name, seed=1, seconds=0.0, trace=trace, sizes=W.SMOKE_SIZES,
                                   setup_repeats=1, importtime_repeats=1)
            records.append(rec)
            print(f"smoke: ran {name} trace {int(trace)}: {rec['attempted']} operations, "
                  f"{rec['failed']} failed, {rec['wall_s']['run']:.1f} s")
    problems += check_records(records)
    problems += check_known_defects(records[0])
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as d:
        problems += check_checks(Path(d))
        path = Path(d) / "records.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            import compare
            compare.main(path, path)
        rows = [r for r in buf.getvalue().splitlines()[1:] if r.strip()]
        if len(rows) < len(W.WORKLOADS) * len(run.END_TO_END):
            problems.append("compare: missing rows")
    for p in problems:
        print(f"smoke: FAIL {p}")
    print("smoke: PASS" if not problems else f"smoke: FAIL ({len(problems)} problems)")
    return 0 if not problems else 1
