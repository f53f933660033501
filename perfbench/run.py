"""Benchmark of cobweb: three seeded closed-loop workloads, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload incidence-dense --seed 1 --seconds 24 --trace 0

It times a fresh ``import cobweb, cobweb.cli`` (setup_s), runs about
--seconds of the workload's requests in worker.py processes (an eighth
of it eight times over, each request's latency the fastest of its eight),
checks every output against reference.py, prints a JSON report, and ends with
one result line: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from a traced replay.
Per-request records and spans go to ``.perfbench_out/``.  Timing uses
time.perf_counter only; nothing profiles the machine.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from workloads import KNOWN_DEFECT_ARGV, WORKLOADS, cycle_count, digest  # noqa: E402

SETUP_SPAWNS = 9
PASSES = 8
SETUP_SPAWNS_PER_PASS = 2
IMPORT_SNIPPET = "import cobweb, cobweb.cli"
COBWEB_MODULES = ("cobweb", "cobweb.fib_core", "cobweb.poset", "cobweb.incidence", "cobweb.chains",
                  "cobweb.konvalina", "cobweb.paths_fences", "cobweb.crosscheck", "cobweb.cli")
WORKER_TIMEOUT_S = 170

END_TO_END = (
    ("throughput_rps", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("success_frac", "frac", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)


def _per_layer() -> list[tuple[str, str, str]]:
    """Per-layer metrics of the traced replay.  Counts and seconds are per
    request of the replay; cli.* spawn and import times are medians."""
    counts = [
        "fib_core.fib.calls", "fib_core.result_bits", "poset.truncate.calls", "poset.from_linear.calls",
        "poset.to_linear.calls", "incidence.entries_built", "chains.brute_force_max_chains.calls",
        "konvalina.brute_sum.calls", "paths_fences.path_determinant.calls",
        "crosscheck.checks_failed", "cli.stdout_bytes", "cli.exit_nonzero",
    ]
    seconds = [
        "fib_core.fib", "fib_core.psi_factorial", "fib_core.psi_falling", "fib_core.fibonomial_def",
        "fib_core.fibonomial_rec", "poset.truncate", "poset.from_linear", "poset.to_dot",
        "poset.enumerate_copies_rooted", "incidence.zeta_from_order", "incidence.zeta_explicit",
        "incidence.mobius", "incidence.matmul", "incidence.matrix_init", "incidence.chain_count",
        "incidence.maximal_chain_matrix", "incidence.export", "chains.fibonomial_via_chains",
        "chains.brute_force_max_chains", "chains.chain_count_report", "konvalina.brute_sum",
        "konvalina.dp", "paths_fences.path_determinant", "paths_fences.fibonomial_via_gv",
        "paths_fences.gv_terms", "paths_fences.fence_ideals_brute", "paths_fences.iter_fence_ideals",
        "paths_fences.fence_ideals", "cli.main",
    ]
    out = [(name, "count", "lower") for name in counts]
    out += [(f"{name}.self_s", "s", "lower") for name in seconds]
    for check in reference.CROSSCHECK_NAMES:
        out += [(f"crosscheck.check.{check}.self_s", "s", "lower"),
                (f"crosscheck.check.{check}.total_s", "s", "lower")]
    out += [(f"{key}.repeat_frac", "frac", "lower")
            for key in ("request", "fib_core.fib", "poset.truncate", "incidence.zeta")]
    out += [("cli.spawn_s", "s", "lower"), ("cli.import_s", "s", "lower")]
    out += [(f"cli.import.{mod}.self_s", "s", "lower") for mod in COBWEB_MODULES + ("other",)]
    out.append(("trace.overhead_frac", "frac", "lower"))
    return out


PER_LAYER = _per_layer()


def child_env(root: Path) -> dict:
    """Environment of every process that runs cobweb: the checkout's src on
    the path, bytecode writes allowed, the default int-to-str digit limit."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONINTMAXSTRDIGITS", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def _spawn_s(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=60, check=True)
    return time.perf_counter() - t0, proc


def import_s(env: dict) -> float:
    """Wall time of one fresh interpreter importing cobweb and cobweb.cli."""
    return _spawn_s([sys.executable, "-c", IMPORT_SNIPPET], env)[0]


def measure_setup(env: dict) -> dict:
    """The traced run's set-up figures: the median import time, the
    bare-interpreter floor and the per-module split."""
    py = sys.executable
    out = {"setup_s": statistics.median(import_s(env) for _ in range(SETUP_SPAWNS))}
    out["cli.spawn_s"] = statistics.median(_spawn_s([py, "-c", "pass"], env)[0] for _ in range(SETUP_SPAWNS))
    out["cli.import_s"] = out["setup_s"] - out["cli.spawn_s"]
    floor = _importtime(py, "pass", env)
    runs = [_importtime(py, IMPORT_SNIPPET, env) for _ in range(3)]
    for mod in COBWEB_MODULES:
        out[f"cli.import.{mod}.self_s"] = statistics.median(r.get(mod, 0.0) for r in runs)
    out["cli.import.other.self_s"] = statistics.median(
        sum(v for m, v in r.items() if m not in floor and m not in COBWEB_MODULES) for r in runs)
    return out


def _importtime(py: str, code: str, env: dict) -> dict[str, float]:
    """Self import seconds per module, from ``-X importtime``."""
    proc = _spawn_s([py, "-X", "importtime", "-c", code], env)[1]
    out = {}
    for line in proc.stderr.decode().splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
        if m:
            out[m.group(2)] = int(m.group(1)) / 1e6
    return out


def check(rec: dict) -> bool:
    """True when the request's output equals the independent reference."""
    op, args = rec["op"], tuple(rec["args"])
    if op == "cli":
        if rec["sizes"]["exit"] != 0:
            return False
        want = reference.cli_stdout(args)
        return reference.crosscheck_table_ok(rec["stdout"]) if want is None else rec["stdout"] == want
    return rec["digest"] == _expected_digest(op, args)


@functools.lru_cache(maxsize=None)
def _expected_digest(op: str, args: tuple) -> str:
    return digest(reference.expected(op, args))


def known_defect_probe(env: dict) -> dict:
    """Outside the timed loop: see workloads.KNOWN_DEFECT_ARGV."""
    requests = []
    for argv in KNOWN_DEFECT_ARGV:
        proc = subprocess.run([sys.executable, "-m", "cobweb", *argv], env=env, capture_output=True, timeout=60)
        ok = proc.returncode == 0 and proc.stdout.decode() == reference.cli_stdout(argv)
        requests.append({"argv": list(argv), "ok": ok, "exit": proc.returncode,
                         "stderr": proc.stderr.decode().strip()[-200:]})
    return {"failed": sum(not r["ok"] for r in requests), "requests": requests}


def tail(latencies: list[float]) -> dict:
    """Latency at the highest percentile that still has 10 samples above it
    (the maximum when a run has no more than 10 samples)."""
    xs = sorted(latencies)
    above = 10 if len(xs) > 10 else 0
    return {"value_ms": 1e3 * xs[-1 - above], "percentile": 100.0 * (len(xs) - above) / len(xs),
            "samples_above": above, "samples": len(xs)}


def class_summary(records: list[dict]) -> dict:
    """Per request class: count, median latency and the range of each size."""
    by: dict[str, list[dict]] = {}
    for rec in records:
        key = rec["op"] if rec["op"] != "cli" else f"cli {rec['args'][0]}"
        by.setdefault(key, []).append(rec)
    out = {}
    for key, recs in sorted(by.items()):
        sizes: dict[str, list] = {}
        for rec in recs:
            for name, val in rec.get("sizes", {}).items():
                lo_hi = sizes.setdefault(name, [val, val])
                lo_hi[0], lo_hi[1] = min(lo_hi[0], val), max(lo_hi[1], val)
        out[key] = {"count": len(recs), "latency_p50_ms": 1e3 * statistics.median(r["s"] for r in recs),
                    "size_ranges": sizes}
    return out


def per_layer_metrics(res: dict, setup: dict) -> dict:
    tr = res["trace"]
    stats, reqs = tr["stats"], res["traced_requests"]
    traced = res["records"][-reqs:]

    def stat(name: str, i: int) -> float:
        return stats.get(name, [0, 0.0, 0.0, 0])[i] / reqs

    values = {
        "fib_core.result_bits": tr["result_bits"] / reqs,
        "incidence.entries_built": tr["entries_built"] / reqs,
        "crosscheck.checks_failed": sum(v[3] for k, v in stats.items() if k.startswith("crosscheck.check.")),
        "cli.stdout_bytes": sum(r["sizes"]["output_bytes"] for r in traced if r["op"] == "cli") / reqs,
        "cli.exit_nonzero": sum(1 for r in traced if r["op"] == "cli" and r.get("sizes", {}).get("exit", 1)),
        "trace.overhead_frac": res["traced_s"] / res["untraced_s"] - 1.0,
    }
    seen, repeated = set(), 0
    for r in traced:
        key = (r["op"], json.dumps(r["args"]))
        repeated += key in seen
        seen.add(key)
    values["request.repeat_frac"] = repeated / reqs
    for key, (repeated, calls) in tr["repeats"].items():
        values[f"{key}.repeat_frac"] = repeated / calls if calls else 0.0
    for name, unit, _ in PER_LAYER:
        if name in values or name in setup:
            continue
        if name.endswith(".calls"):
            values[name] = stat(name[: -len(".calls")], 0)
        elif name.endswith(".total_s"):
            values[name] = stat(name[: -len(".total_s")], 1)
        elif name.endswith(".self_s"):
            values[name] = stat(name[: -len(".self_s")], 2)
        elif name.endswith(".repeat_frac"):
            values[name] = 0.0  # the layer saw no calls in this workload
    values.update({k: v for k, v in setup.items() if k != "setup_s"})
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "cobweb" / "__init__.py").is_file():
        print(f"error: no cobweb source under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    # the checker prints references above 4300 digits; it never imports cobweb
    sys.set_int_max_str_digits(0)
    outdir = root / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = child_env(root)
    pyc = root / "src" / "cobweb" / "__pycache__"
    bytecode_warm = pyc.is_dir() and any(pyc.glob("cli.*.pyc"))

    import_s(env)  # compiles bytecode if it is missing
    setup = measure_setup(env) if args.trace else {}
    deadline = time.monotonic() + WORKER_TIMEOUT_S

    def worker(count: int) -> dict:
        out = outdir / f"worker-{tag}.json"
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--count", str(count), "--trace", str(args.trace), "--out", str(out),
             "--spans", str(outdir / f"spans-{tag}.json")],
            env=env, timeout=max(1.0, deadline - time.monotonic()), check=True,
        )
        res = json.loads(out.read_text())
        out.unlink()
        return res

    if args.trace:
        res = worker(cycle_count(args.workload, args.seconds / 6))
        runs = [res["records"]]
    else:
        # PASSES passes over the same cycles, each in a fresh worker.  On a
        # shared host the same code runs up to 1.7x slower in stretches of
        # one to twenty seconds; a request's latency is the fastest of its
        # passes, which lie seconds apart.  Set-up is sampled before every
        # pass, so its median spans the run too.
        count = cycle_count(args.workload, args.seconds / PASSES)
        passes, imports = [], []
        for _ in range(PASSES):
            imports += [import_s(env) for _ in range(SETUP_SPAWNS_PER_PASS)]
            passes.append(worker(count))
        setup["setup_s"] = statistics.median(imports)
        runs = [part["records"] for part in passes]
        res = {"int_max_str_digits": passes[0]["int_max_str_digits"],
               "peak_rss_kb": max(part["peak_rss_kb"] for part in passes)}
    executed = [rec for run in runs for rec in run]
    failed = wrong = 0
    for rec in executed:
        rec["ok"] = "error" not in rec and check(rec)
        failed += not rec["ok"]
        wrong += "error" not in rec and not rec["ok"]
    if args.trace:
        records = executed
    else:
        records = [{**same[0], "s": min(r["s"] for r in same), "pass_s": [r["s"] for r in same],
                    "ok": all(r["ok"] for r in same)} for same in zip(*runs)]
    with open(outdir / f"requests-{tag}.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({k: v for k, v in rec.items() if k not in ("stdout", "digest")}) + "\n")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": {
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "bytecode_warm_at_start": bytecode_warm,
            "worker_int_max_str_digits": res["int_max_str_digits"],
            "timer": "time.perf_counter; no system-wide profiling",
            "loop": "closed, one client, no threads",
        },
        "classes": class_summary(records),
        "wrong_outputs": wrong,
    }
    if args.trace:
        metrics = per_layer_metrics(res, setup)
        report["traced_replay"] = {"requests": res["traced_requests"], "untraced_s": res["untraced_s"],
                                   "traced_s": res["traced_s"]}
    else:
        lat = [r["s"] for r in records]
        report["latency_tail"] = tail(lat)
        report["fail_frac"] = failed / len(executed)
        if args.workload == "cli-cold":
            report["known_defect_probe"] = known_defect_probe(env)
        values = {
            "throughput_rps": len(lat) / sum(lat),
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_tail_ms": report["latency_tail"]["value_ms"],
            "success_frac": 1.0 - failed / len(executed),
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
            "setup_s": setup["setup_s"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    print(json.dumps(report, indent=2))
    print(json.dumps({"correct": wrong == 0, "attempted": len(executed), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
