"""lcbayes benchmark: runs the ``lcbayes`` command on seeded workloads.

Usage, from the root of a checkout::

    python3 bench/run.py --workload finite-small --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --self-test
    python3 bench/run.py --record-golden      # re-pin baseline values (see README)

With ``--trace 0`` it is a closed loop with one client: each request is a
fresh ``python -m lcbayes.cli`` subprocess, sent only after the previous
one has exited, for ``--seconds`` seconds.  Every output is checked by an
independent oracle, and the end-to-end metrics are printed.  With
``--trace 1`` the same requests run in-process under a span tracer and
the per-layer metrics are printed instead.  The last line of standard
output is always one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from workloads import GENERATORS, TIME_LIMIT_S, WORKLOADS, Request  # noqa: E402

SETUP_ROUNDS = 7
TRACE_REQUESTS = {"finite-small": 60, "finite-large": 2, "lc-reports": 60}
SPAWN_SAMPLES = 7


@dataclass
class Outcome:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    timed_out: bool


class Spawner:
    """Runs ``python -m lcbayes.cli`` in a work directory, one at a time."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        # requests cache their bytecode under src/, as an installed package
        # does, whatever the caller's environment says; set-up writes it
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(SRC)

    def run(self, argv, limit_s: float, module=("-m", "lcbayes.cli")) -> Outcome:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *module, *argv], cwd=self.workdir,
                                env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=limit_s)
            timed_out = False
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            timed_out = True
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return Outcome(proc.returncode, out, err, wall, cpu, timed_out)


# ----------------------------------------------------------------------
# judging outputs
# ----------------------------------------------------------------------

OK, KNOWN_DEFECT, WRONG = "ok", "known-defect", "wrong"


def judge(req: Request, code: int, stdout: str, stderr: str, timed_out: bool,
          golden: dict):
    """Classify one request's result as ok, a known defect, or wrong.

    Known-bad requests pass once the program handles them as documented
    (exit 2 without a traceback, or a correct result); their behaviour
    at the baseline, a traceback or a time-out, is a known defect.
    """
    if req.known_bad:
        if code == 2 and "Traceback" not in stderr:
            return OK, []
        if req.kind == "bad-lc":
            if timed_out:
                return KNOWN_DEFECT, ["time-out"]
        elif code == 1 and "Traceback" in stderr:
            return KNOWN_DEFECT, ["traceback, exit 1"]
        if code != 0:
            return WRONG, [f"exit {code}"]
    elif timed_out:
        return WRONG, ["time-out"]
    elif code != 0:
        return WRONG, [f"exit {code}: {stderr.strip()[-200:]}"]
    try:
        payload = json.loads(stdout)
    except ValueError:
        return WRONG, ["output is not JSON"]
    problems = oracle.check_output(req.kind, payload, req.check, golden.get("examples", {}))
    return (WRONG if problems else OK), problems


# ----------------------------------------------------------------------
# set-up: warm-up requests with pinned outputs, and the oracle self-test
# ----------------------------------------------------------------------


def write_inputs(workdir: Path, requests):
    for req in requests:
        for name, text in req.files.items():
            (workdir / name).write_text(text)


def run_setup(spawner: Spawner, golden: dict, rounds: int):
    """Run the fixed warm-up requests ``rounds`` times.

    Returns the median round time, the outputs of the first round, and
    the problems found: outputs must match the baseline pins and repeat
    byte for byte across rounds.
    """
    requests = workloads.setup_requests()
    write_inputs(spawner.workdir, requests)
    times, first, problems = [], None, []
    for _ in range(rounds):
        start = time.perf_counter()
        outs = [spawner.run(req.argv, 60.0) for req in requests]
        times.append(time.perf_counter() - start)
        if first is None:
            first = outs
            for req, out, expected in zip(requests, outs, golden.get("setup", [])):
                status, found = judge(req, out.returncode, out.stdout, out.stderr,
                                      out.timed_out, golden)
                if status != OK:
                    problems.append(f"setup {req.kind}: {found}")
                elif oracle.check_pinned(req.kind, json.loads(out.stdout), expected):
                    problems.append(f"setup {req.kind}: differs from the baseline")
            if len(golden.get("setup", [])) != len(requests):
                problems.append("golden.json does not match the set-up requests")
        elif [o.stdout for o in outs] != [o.stdout for o in first]:
            problems.append("set-up outputs are not byte-identical across rounds")
    return statistics.median(times), requests, first, problems


def self_test(requests, outputs, golden: dict) -> list:
    """Corrupted outputs must be judged wrong: a prior weight, epsilon*, an LC term."""
    by_kind = {req.kind: (req, json.loads(out.stdout)) for req, out in zip(requests, outputs)
               if out.returncode == 0}
    problems = []

    def expect_wrong(label, kind, mutate):
        if kind not in by_kind:
            problems.append(f"self-test: no {kind} output to corrupt")
            return
        req, payload = by_kind[kind]
        bad = json.loads(json.dumps(payload))
        mutate(bad)
        status, _ = judge(req, 0, json.dumps(bad), "", False, golden)
        if status != WRONG:
            problems.append(f"self-test: {label} was not detected")

    def alter_prior(p):
        w = Fraction(p[0]["prior"][0])
        p[0]["prior"][0] = str(w + Fraction(1, 7))

    def alter_eps(p):
        p[0]["epsilon_star"] = str(Fraction(p[0]["epsilon_star"]) + 1)

    def drop_term(p):
        p["value"] = p["value"].rsplit(" ", 2)[0]

    expect_wrong("altered prior weight", "classify", alter_prior)
    expect_wrong("altered epsilon*", "classify", alter_eps)
    expect_wrong("dropped LC term", "lc-eval", drop_term)
    return problems


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------


def provenance(args) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha or "unknown", "python": platform.python_version(),
            "cpu_model": cpu, "nproc": os.cpu_count(), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace}


# ----------------------------------------------------------------------
# untraced run: end-to-end metrics
# ----------------------------------------------------------------------


def quantile(values, q: int) -> float:
    """The q-th percentile (q in 1..99), interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, spawner: Spawner, stream, golden: dict, setup_s: float):
    limit = TIME_LIMIT_S[args.workload]
    results = []
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        req = stream[i % len(stream)]
        i += 1
        results.append((req, spawner.run(req.argv, limit)))
    loop_s = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    latencies, wrong = [], []
    ok = verdicts = 0
    cpu_s = 0.0
    classes = dict.fromkeys(workloads.CLASSES, 0)
    for req, out in results:
        status, problems = judge(req, out.returncode, out.stdout, out.stderr, out.timed_out,
                               golden)
        cpu_s += out.cpu_s
        # a failed request counts as missing any latency limit
        latencies.append(out.wall_s if status == OK else limit)
        if status != OK:
            wrong.append({"argv": req.argv, "problems": problems[:3]})
            continue
        ok += 1
        verdicts += req.verdicts
        for cls in req.check.get("classes", [req.check.get("cls")]):
            if cls in classes:
                classes[cls] += 1
    attempted = len(results)
    latencies_ms = [t * 1000 for t in latencies]
    metrics = {
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_p90_ms": (quantile(latencies_ms, 90), "ms"),
        "throughput_rps": (ok / loop_s, "1/s"),
        "verdicts_per_s": (verdicts / loop_s, "1/s"),
        "cpu_ms_per_request": (cpu_s * 1000 / attempted, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    known = known_bad_probe(args, spawner, golden)
    extra = {
        "failed_frac": (attempted - ok) / attempted,
        "latency_samples": attempted,
        "verdict_classes": classes,
        "known_bad": known,
        "wrong_examples": wrong[:5],
    }
    return metrics, attempted, attempted - ok, ok == attempted and not known[WRONG], extra


def known_bad_probe(args, spawner: Spawner, golden: dict) -> dict:
    """Run the workload's known-bad requests once, after timing.

    They stay out of the timed loop and of ``attempted`` and ``failed``;
    the count of each outcome is reported beside the result instead.  A
    known-bad request that fails in some other way than at the baseline
    makes the run incorrect.
    """
    requests = workloads.known_bad_requests(args.workload, args.seed)
    write_inputs(spawner.workdir, requests)
    counts = {OK: 0, KNOWN_DEFECT: 0, WRONG: 0}
    for req in requests:
        out = spawner.run(req.argv, TIME_LIMIT_S[args.workload])
        status, _ = judge(req, out.returncode, out.stdout, out.stderr, out.timed_out, golden)
        counts[status] += 1
    return counts


# ----------------------------------------------------------------------
# traced run: per-layer metrics
# ----------------------------------------------------------------------


def run_in_process(cli, requests, tracer=None):
    """Call ``lcbayes.cli.main`` per request; returns wall time and results."""
    results = []
    start = time.perf_counter()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(req.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # the program's own failure: judged below
                print(f"Traceback: {exc!r}", file=err)
                code = 1
        results.append((req, code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, results


def spawn_median_ms(spawner: Spawner, code: str) -> float:
    times = []
    for _ in range(SPAWN_SAMPLES):
        out = spawner.run([code], 60.0, module=("-c",))
        if out.returncode != 0:
            raise RuntimeError(f"python -c {code!r} failed: {out.stderr[-200:]}")
        times.append(float(out.stdout))
    return statistics.median(times)


def per_layer(args, spawner: Spawner, stream, golden: dict):
    import tracing

    interp_ms = statistics.median(spawner.run(["pass"], 60.0, module=("-c",)).wall_s * 1000
                                  for _ in range(SPAWN_SAMPLES))
    import_ms = spawn_median_ms(spawner, "import time; t = time.perf_counter(); "
                                "import lcbayes.cli; print((time.perf_counter() - t) * 1000)")

    os.chdir(spawner.workdir)
    sys.path.insert(0, str(SRC))
    import lcbayes.cli as cli

    requests = stream[:TRACE_REQUESTS[args.workload]]
    # after a warm-up pass, alternate traced and untraced passes and compare
    # the faster of each, so one-time costs and drift do not read as overhead
    run_in_process(cli, requests)
    traced, plain = [], []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            traced.append(run_in_process(cli, requests, tracer) + (tracer,))
        plain.append(run_in_process(cli, requests)[0])
    traced_s, results, tracer = min(traced, key=lambda t: t[0])
    plain_s = min(plain)
    wrong = 0
    for req, code, out, err in results:
        status, _ = judge(req, code, out, err, False, golden)
        wrong += status != OK

    metrics = {"cli.interpreter_ms": (interp_ms, "ms"), "cli.import_ms": (import_ms, "ms")}
    metrics.update(tracing.layer_metrics(tracer))
    metrics.update(tracing.lcnum_microbench())
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({"provenance": provenance(args),
                                      "spans": tracer.span_records()}))
    return metrics, len(results), wrong, wrong == 0, {"spans_file": str(spans_path.name)}


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def load_golden() -> dict:
    try:
        return json.loads(GOLDEN.read_text())
    except (OSError, ValueError):
        return {}


def record_golden(spawner: Spawner) -> int:
    """Pin the unique output fields of the current program (the baseline)."""
    setup = workloads.setup_requests()
    write_inputs(spawner.workdir, setup)
    pins = {"setup": [], "examples": {}}
    for req in setup:
        out = spawner.run(req.argv, 600.0)
        pins["setup"].append(oracle.pinned(req.kind, json.loads(out.stdout)))
    for name, dim, order in workloads.EXAMPLES:
        req = workloads.example_request(name, dim, order)
        out = spawner.run(req.argv, 600.0)
        pins["examples"][req.check["key"]] = oracle.pinned("example", json.loads(out.stdout))
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "lcbayes" / "cli.py").is_file():
        print(f"error: no lcbayes sources under {SRC}", file=sys.stderr)
        return 2
    if not (args.workload or args.self_test or args.record_golden):
        parser.error("--workload is required")
    # One core for the harness and, by inheritance, every request it spawns:
    # requests then start on a warm core, which on a small shared machine
    # cuts the run-to-run spread of latencies from about 10% to 2-3%.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload or 'tools'}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        return _main(args, Spawner(workdir))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


def _main(args, spawner: Spawner) -> int:
    if args.record_golden:
        return record_golden(spawner)
    golden = load_golden()
    if not golden:
        print(f"error: baseline pins missing: {GOLDEN}", file=sys.stderr)
        return 2

    rounds = SETUP_ROUNDS if args.workload and not args.trace else 1
    setup_s, setup_reqs, setup_outs, problems = run_setup(spawner, golden, rounds)
    problems += self_test(setup_reqs, setup_outs, golden)
    if args.self_test:
        for problem in problems:
            print(problem)
        print("self-test", "failed" if problems else "passed")
        return 1 if problems else 0

    stream = GENERATORS[args.workload](args.seed)
    write_inputs(spawner.workdir, stream)
    if args.trace:
        metrics, attempted, failed, correct, extra = per_layer(args, spawner, stream, golden)
    else:
        metrics, attempted, failed, correct, extra = end_to_end(args, spawner, stream,
                                                                golden, setup_s)
    correct = correct and not problems
    record = {"provenance": provenance(args), "correct": correct, "attempted": attempted,
              "failed": failed, "setup_problems": problems, "extra": extra,
              "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}}
    (OUT / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    prov = record["provenance"]
    print(f"# lcbayes benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} sha={prov['git_sha']} python={prov['python']} "
          f"cpu={prov['cpu_model']!r} nproc={prov['nproc']}")
    for problem in problems:
        print(f"# setup problem: {problem}")
    for key, value in extra.items():
        if key == "verdict_classes" and not any(value.values()):
            continue
        print(f"# {key}: {json.dumps(value)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v[0], "unit": v[1]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
