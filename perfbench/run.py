"""The repository benchmark: ``eval-cold``, ``eval-warm`` and ``serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload eval-cold --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # every workload, one table

Each pass runs in a fresh interpreter (``perfbench/child.py``) against the
sources in ``src/``; this process times it from outside, checks its
outputs, counts what it left behind and prints one line per metric
(name, value, unit, sample count). The last line of standard output is
the JSON result: ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` its per-layer metrics from one traced
pass next to one untraced pass. Every file goes under
``.bench_build/perfbench/``; each result set is kept there with a machine
fingerprint. ``CATALOGUE.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("eval-cold", "eval-warm", "serve")
MIN_EVAL_PASSES = 2
RUN_BUDGET_S = 170.0  # every pass of a run; a run must end within 180 s
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SHM = Path("/dev/shm")


class PassFailed(RuntimeError):
    pass


def fingerprint() -> dict:
    """The machine a result set was measured on. Thread settings are
    recorded as found, never changed."""
    import importlib.metadata

    import numpy

    config = io.StringIO()
    with redirect_stdout(config):
        numpy.show_config()
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy,
        "blas": _blas(config.getvalue()),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def _blas(text: str) -> "dict[str, str]":
    """``name``/``version`` of the BLAS entry in ``numpy.show_config()``."""
    found: "dict[str, str]" = {}
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.strip() == "blas:":
            for item in lines[i + 1 : i + 8]:
                key, _, value = item.strip().partition(":")
                if key in ("name", "version") and key not in found:
                    found[key] = value.strip()
            break
    return found


def shm_segments() -> "set[str]":
    try:
        return {entry.name for entry in SHM.iterdir() if entry.name.startswith("psm_")}
    except OSError:
        return set()


def reap_strays(token: str) -> int:
    """Kill every process whose command line names this run's directory
    (workers a pass left running) and wait until each has ended."""
    me = os.getpid()
    strays = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == me:
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if token.encode() in cmdline:
            strays.append(int(entry.name))
    for pid in strays:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    for pid in strays:
        while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
            time.sleep(0.05)
    return len(strays)


class Run:
    """The passes of one benchmark run and where they keep their files.

    Nothing outlives the run: each pass gets an empty store in the run's
    own directory, and an eval-warm run fills its warm store there with an
    untimed cold pass first.
    """

    def __init__(self, workload: str, seed: int, scale: str):
        self.kind = "serve" if workload == "serve" else "eval"
        self.seed = seed
        self.scale = scale
        self.work = ROOT / ".bench_build" / "perfbench" / f"{workload}-s{seed}-p{os.getpid()}"
        self.warm_store = self.work / "warm-store"
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.n_passes = 0

    def __enter__(self) -> "Run":
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        return self

    def __exit__(self, *exc_info) -> None:
        reap_strays(self.work.name)
        shutil.rmtree(self.work, ignore_errors=True)

    def fill_warm_store(self) -> dict:
        """One untimed cold pass that leaves its store as the warm store."""
        return self.run_pass(self.kind, self.warm_store, 0)

    def next_pass(self, trace: int, warm: bool = False) -> dict:
        """One pass of this run's workload, on the warm store when ``warm``
        and otherwise on an empty store that is removed afterwards."""
        if warm:
            return self.run_pass(self.kind, self.warm_store, trace)
        store = self.work / f"store-{self.n_passes + 1}"
        try:
            return self.run_pass(self.kind, store, trace)
        finally:
            shutil.rmtree(store, ignore_errors=True)

    def gate_serve(self, passes: list) -> dict:
        """The untimed serve gate over ``passes``, in a pass of its own."""
        store = self.work / "gate-store"
        try:
            return self.run_pass("gate", store, 0, served=[r["out"] for r in passes])
        finally:
            shutil.rmtree(store, ignore_errors=True)

    def run_pass(self, kind: str, store: Path, trace: int, served: "list[str]" = ()) -> dict:
        """One child pass; its result plus what this process observed."""
        self.n_passes += 1
        label = f"pass{self.n_passes}-{kind}-trace{trace}"
        out = self.work / f"{label}.json"
        log = self.work / f"{label}.log"
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["TMPDIR"] = str(self.work / "tmp")
        shm_before = shm_segments()
        launched = time.monotonic()
        command = [
            sys.executable,
            str(HERE / "child.py"),
            f"--workload={kind}",
            f"--store={store}",
            f"--work={self.work}",
            f"--out={out}",
            f"--seed={self.seed}",
            f"--trace={trace}",
            f"--scale={self.scale}",
            f"--launched={launched!r}",
            *(f"--served={path}" for path in served),
        ]
        with open(log, "wb") as sink:
            proc = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=sink, stderr=subprocess.STDOUT
            )
            # A blocking wait sees the exit at once (a wait with a timeout
            # polls, up to 50 ms late); a timer enforces the deadline.
            timer = threading.Timer(max(1.0, self.deadline - launched), proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
                timer.join()
        exited = time.monotonic()
        strays = reap_strays(self.work.name)
        leaked = shm_segments() - shm_before
        for name in leaked:  # do not let a leak pile up across runs
            (SHM / name).unlink(missing_ok=True)
        if code != 0 or not out.exists():
            tail = log.read_text(errors="replace").splitlines()[-30:]
            raise PassFailed(f"{label} exited with {code}:\n" + "\n".join(tail))
        result = json.loads(out.read_text())
        result.update(
            out=str(out),
            exited=exited,
            traced=bool(trace),
            stray_processes=strays,
            leaked_shm=len(leaked),
        )
        return result


# -- eval ---------------------------------------------------------------------


def eval_gate(reference: dict, passes: list, warm: bool) -> "tuple[int, int, list[str]]":
    """``(attempted, failed, problems)``: every pass must reproduce the
    reference pass's summary and records byte for byte; warm passes must
    not miss the store."""
    attempted = failed = 0
    problems = []
    for i, result in enumerate(passes):
        attempted += result["n"]
        bad = sum(
            result["records"].get(key) != record for key, record in reference["records"].items()
        ) + len(set(result["records"]) - set(reference["records"]))
        failed += bad
        if bad:
            problems.append(f"pass {i}: {bad} records differ from the reference")
        if result["summary"] != reference["summary"]:
            problems.append(f"pass {i}: summary differs from the reference")
        if warm and result["cache"]["misses"]:
            failed += result["cache"]["misses"]
            problems.append(f"pass {i}: {result['cache']['misses']} misses against a filled store")
    return attempted, failed, problems


def tail_label(n: int) -> str:
    """Which percentile the percentile rule reports for ``n`` samples."""
    return f"p{stats.tail_percentile(n) * 100:g} of {n}"


def eval_metrics(passes: list) -> "dict[str, tuple]":
    """End-to-end metrics as ``name -> (value, samples, statistic)``. A
    query is one instance: its latency is its ``RTSPipeline.link`` call.
    Latency percentiles are taken per pass, over the same instances each
    time, so the percentile does not depend on the number of passes."""

    def per_pass(fn, stat: "str | None" = None) -> "tuple[float, int, str]":
        label = f"{stat} per pass, median of passes" if stat else "median of passes"
        return stats.median([fn(r) for r in passes]), len(passes), label

    def latencies(result: dict) -> "list[float]":
        return [(end - start) * 1000.0 for start, end in result["link_calls"]]

    summary = json.loads(passes[0]["summary"])
    n = summary["n"]
    return {
        "setup_s": per_pass(lambda r: r["link_calls"][0][1] - r["launched"]),
        "run_s": per_pass(lambda r: r["close"][1] - r["launched"]),
        "link_per_s": per_pass(lambda r: r["n"] / (r["run_link"][1] - r["run_link"][0])),
        "query_p50_ms": per_pass(lambda r: stats.percentile(latencies(r), 0.5), f"p50 of {n}"),
        "query_p99_ms": per_pass(lambda r: stats.tail(latencies(r)), tail_label(n)),
        "query_per_s": per_pass(lambda r: r["n"] / (r["close"][1] - r["launched"])),
        "shutdown_s": per_pass(lambda r: r["exited"] - r["close"][0]),
        "peak_rss_mb": per_pass(lambda r: r["peak_rss_mib"]),
        "tar": (summary["tar"], n, "run summary"),
        "far": (summary["far"], n, "run summary"),
    }


# -- serve --------------------------------------------------------------------


def serve_gate(passes: list, gate: dict) -> "tuple[int, int, list[str]]":
    attempted = sum(len(result["queries"]) for result in passes)
    failed = sum(gate["failed"].values())
    problems = [f"{n} × {kind}" for kind, n in sorted(gate["failed"].items()) if n]
    return attempted, failed, problems


def serve_metrics(passes: list) -> "dict[str, tuple]":
    result = passes[0]  # a serve run measures one pass
    latencies = result["latencies_ms"]
    quality = result["quality"]
    load_start, load_end = result["load"]
    load_s = load_end - load_start
    n_links = sum(load_start <= end <= load_end for _start, end in result["link_calls"])
    shutdown_s = (result["shutdown"][1] - result["shutdown"][0]) + (
        result["close"][1] - result["close"][0]
    )
    one = "one pass"
    return {
        "setup_s": (result["first_query"] - result["launched"], 1, one),
        "run_s": (result["close"][1] - result["launched"], 1, one),
        "link_per_s": (n_links / load_s, n_links, "links in the load phase"),
        "query_p50_ms": (stats.percentile(latencies, 0.5), len(latencies), "p50"),
        "query_p99_ms": (stats.tail(latencies), len(latencies), tail_label(len(latencies))),
        "query_per_s": (len(latencies) / load_s, len(latencies), "queries in the load phase"),
        "shutdown_s": (shutdown_s, 1, one),
        "peak_rss_mb": (result["peak_rss_mib"], 1, one),
        "tar": (quality["tar"], quality["n_distinct"], "distinct served outcomes"),
        "far": (quality["far"], quality["n_distinct"], "distinct served outcomes"),
    }


# -- one workload ---------------------------------------------------------------


def teardown(passes: list) -> dict:
    """What the passes left behind, summed over passes."""
    return {
        "teardown.leaked_threads": sum(len(r["teardown"]["threads"]) for r in passes),
        "teardown.leaked_processes": sum(r["stray_processes"] for r in passes),
        "teardown.leaked_shm": sum(r["leaked_shm"] for r in passes),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    """Run one workload; its result set (metrics with sample counts, gate
    outcome, what the passes left behind)."""
    warm = workload == "eval-warm"
    metrics_of = serve_metrics if workload == "serve" else eval_metrics
    with Run(workload, seed, scale) as run:
        fill = run.fill_warm_store() if warm else None
        passes = []
        if trace:
            # An untraced pass right before the traced one: the tracing
            # overhead is the difference between the two.
            passes.append(run.next_pass(0, warm))
            passes.append(run.next_pass(1, warm))
        else:
            began = time.monotonic()
            while True:
                passes.append(run.next_pass(0, warm))
                if workload == "serve":
                    break
                elapsed = time.monotonic() - began
                enough = len(passes) >= MIN_EVAL_PASSES and elapsed >= seconds
                if enough or time.monotonic() + elapsed / len(passes) > run.deadline:
                    break
        checked = passes + ([fill] if fill else [])
        if workload == "serve":
            gate = run.gate_serve(passes)
            for result in passes:
                result["quality"] = gate
            attempted, failed, problems = serve_gate(passes, gate)
        else:
            reference = fill or passes[0]
            attempted, failed, problems = eval_gate(reference, passes, warm)
        metrics = metrics_of([r for r in passes if not r["traced"]])
        layers = None
        if trace:
            traced = passes[-1]
            layers = dict(traced["trace"]["metrics"])
            layers.update(teardown(checked))
            baseline = metrics_of(passes[:1])["run_s"][0]
            layers["trace.overhead_share"] = metrics_of([traced])["run_s"][0] / baseline - 1.0
        n_passes = run.n_passes
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "passes": n_passes,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            name: {"value": v, "samples": n, "statistic": stat}
            for name, (v, n, stat) in metrics.items()
        },
        "per_layer": layers,
        "self_s_by_layer": passes[-1]["trace"]["self_s_by_layer"] if trace else None,
        "teardown": [r["teardown"] for r in checked],
        "per_pass": [
            {name: value for name, (value, *_rest) in metrics_of([r]).items()} for r in passes
        ],
    }


def emit(result: dict, spec: dict, trace: int) -> dict:
    """Print one line per metric; return the contract's JSON object."""
    if trace:
        chosen = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: (v, 1, "traced pass") for name, v in (result["per_layer"] or {}).items()}
    else:
        chosen = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            name: (m["value"], m["samples"], m["statistic"])
            for name, m in result["metrics"].items()
        }
    missing = sorted(set(chosen) - set(values))
    if missing:
        raise KeyError(f"{result['workload']}: no value for {missing}")
    for name, unit in chosen.items():
        value, samples, stat = values[name]
        print(
            f"{result['workload']:<10} {name:<28} {value:>14.6g} {unit:<6} n={samples} ({stat})"
        )
    for problem in result["problems"]:
        print(f"{result['workload']:<10} FAILED {problem}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": float(values[name][0]), "unit": unit} for name, unit in chosen.items()
        },
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="eval: repeat passes for this long (at least 2 passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("tiny", "small"), default="small",
                        help="corpus scale; tiny is the smoke size")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print("perfbench: run from a checkout with src/repro and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    machine = fingerprint()
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    results_dir = ROOT / ".bench_build" / "perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace, args.scale)
        except PassFailed as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        result["machine"] = machine
        name = f"{workload}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
        (results_dir / name).write_text(json.dumps(result, indent=1, sort_keys=True))
        lines.append(emit(result, spec, args.trace))
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, line in zip(workloads, lines)
                for name, metric in line["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
