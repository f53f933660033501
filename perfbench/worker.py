"""The process that runs cobweb: one closed-loop client, no threads.

Started by run.py with ``src`` on PYTHONPATH and the interpreter's default
int-to-str digit limit.  It times each request with time.perf_counter,
encodes each result after its timing stops, and writes all records as
JSON for run.py to check.  Run it through run.py, not directly.

Untraced (--trace 0): run.py starts one worker per pass, and the worker
runs that pass's cycles once.  In-process workloads call the library;
cli-cold starts ``python -m cobweb`` once per request.

Traced (--trace 1): one worker runs the given cycles untraced, then once
more untraced and once with tracing.py's wrappers installed;
trace.overhead_frac compares the last two passes.  cli-cold runs all
passes in-process through cobweb.cli.main with stdout captured, so the
passes differ only by the tracing.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import cobweb
import cobweb.cli
import tracing
import workloads
from cobweb import chains, fib_core, incidence, poset
from workloads import encode_int, encode_rows, encode_truncation, encode_vertices

CLI_TIMEOUT_S = 60


def _export(m, fmt: str):
    if fmt == "dense":
        return m.to_dense_text()
    if fmt == "csv":
        return m.to_csv()
    return m.to_json_dict()


def call(op: str, args: tuple):
    """Run one in-process request.  Library names are looked up at call
    time so the tracing wrappers, once installed, are the ones called."""
    if op == "def":
        return fib_core.fibonomial_def(*args)
    if op == "chains":
        return chains.fibonomial_via_chains(*args)
    if op == "rec":
        return fib_core.fibonomial_rec(*args)
    if op == "fib":
        return fib_core.fib(*args)
    if op == "pipeline":
        return _export(incidence.mobius(incidence.zeta_from_order(args[0])), args[1])
    if op == "product":
        z = incidence.zeta_from_order(args[0])
        return incidence.mobius(z) * z
    if op == "explicit":
        return incidence.zeta_explicit(workloads.vertex_count(args[0]))
    if op == "chain_count":
        L, x, y, length = args
        return incidence.chain_count(incidence.zeta_from_order(L), x, y, length)
    if op == "maxchain":
        return incidence.maximal_chain_matrix(*args)
    if op == "sweep":
        L, stride = args
        n = workloads.vertex_count(L)
        return [poset.from_linear((t * stride) % n) for t in range(n)]
    if op == "truncate":
        return poset.truncate(*args)
    if op == "cli":
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            try:
                rc = cobweb.cli.main(list(args))
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
        return rc, buf.getvalue()
    raise ValueError(f"unknown op {op!r}")


def encode(op: str, args: tuple, out) -> tuple[dict, bytes | None, str | None]:
    """(sizes, encoded result, stdout text) of one finished request."""
    if op in ("def", "chains", "rec", "fib", "chain_count"):
        data = encode_int(out)
        sizes = dict(zip(("n", "k"), args[:2])) if op != "chain_count" else {"L": args[0]}
        return {**sizes, "result_bits": out.bit_length()}, data, None
    if op == "cli":
        rc, text = out
        return {"exit": rc, "output_bytes": len(text.encode())}, None, text
    L = args[0]
    sizes = {"L": L, "N": workloads.vertex_count(L)}
    if op == "pipeline":
        data = out.encode() if isinstance(out, str) else json.dumps(out, sort_keys=True).encode()
    elif op in ("explicit", "product"):
        data = encode_rows(out.rows)
    elif op == "maxchain":
        data = encode_rows(out)
    elif op == "sweep":
        data = encode_vertices((v.level, v.pos) for v in out)
    else:  # truncate
        data = encode_truncation(out.vertex_count, out.edges)
    return {**sizes, "output_bytes": len(data)}, data, None


def run_one(req, subprocess_cli: bool) -> dict:
    op, args = req
    rec = {"op": op, "args": list(args)}
    if subprocess_cli:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "cobweb", *args], capture_output=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rec.update(s=time.perf_counter() - t0, error=f"timed out after {CLI_TIMEOUT_S} s")
            return rec
        rec["s"] = time.perf_counter() - t0
        text = proc.stdout.decode()
        rec.update(sizes={"exit": proc.returncode, "output_bytes": len(proc.stdout)}, stdout=text)
        if proc.returncode:
            rec["error"] = f"exit {proc.returncode}: {proc.stderr.decode().strip()[-300:]}"
        return rec
    t0 = time.perf_counter()
    try:
        out = call(op, tuple(args))
    except Exception as exc:  # a failed request is counted, the run goes on
        rec.update(s=time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
        return rec
    rec["s"] = time.perf_counter() - t0
    sizes, data, text = encode(op, tuple(args), out)
    rec["sizes"] = sizes
    if data is not None:
        rec["digest"] = workloads.digest(data)
    if text is not None:
        rec["stdout"] = text
        if sizes["exit"]:
            rec["error"] = f"exit {sizes['exit']}"
    return rec


def closed_loop(stream, subprocess_cli: bool) -> list[dict]:
    """Issue the requests of the given cycles one after another."""
    return [{**run_one(req, subprocess_cli), "cycle": i} for i, cycle in enumerate(stream) for req in cycle]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True, help="number of cycles to run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args()
    stream = itertools.islice(workloads.cycles(args.workload, args.seed), args.count)
    cli = args.workload == "cli-cold"
    result = {"int_max_str_digits": sys.get_int_max_str_digits()}
    if not args.trace:
        records = closed_loop(stream, cli)
        who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        result.update(records=records, peak_rss_kb=resource.getrusage(who).ru_maxrss)
    else:
        chosen = closed_loop(stream, False)
        reqs = [(rec["op"], tuple(rec["args"])) for rec in chosen]
        untraced = [run_one(req, False) for req in reqs]
        tracer = tracing.Tracer()
        tracing.install(tracer, cobweb)
        traced = []
        for i, req in enumerate(reqs):
            tracer.request_id = i
            traced.append(run_one(req, False))
        tracer.write_spans(args.spans)
        result.update(records=chosen + untraced + traced, untraced_s=sum(r["s"] for r in untraced),
                      traced_s=sum(r["s"] for r in traced), traced_requests=len(traced), trace=tracer.summary())
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
