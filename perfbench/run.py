"""End-to-end and per-layer benchmark of ``tropopt solve|verify``.

    python3 perfbench/run.py --workload vec_large --seed 1 --seconds 36 --trace 0

Run from anywhere inside a checkout; the package is imported from its
``src`` directory and nowhere else.  One caller runs a closed loop of
rounds.  A round puts ``per_round`` problem files of each kind through the
in-process pipeline that ``tropopt solve`` runs, then one fresh
``python -m tropopt solve|verify <file>`` child per kind, and checks every
output against answers computed apart from the program (checks.py).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
pipeline with per-layer timers installed (layers.py) and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; progress and
sample counts go to standard error.  See README.md in this directory.
"""

import os

# one BLAS thread, here and in every CLI child: numpy starts a pool on import
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if not (SRC / "tropopt" / "cli.py").is_file():
    sys.exit(f"error: {SRC / 'tropopt'} not found; run the benchmark inside a tropopt checkout")
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tropopt import cli  # noqa: E402

if Path(cli.__file__).resolve().parent != SRC / "tropopt":
    sys.exit(f"error: tropopt was imported from {cli.__file__}, not from {SRC}")

SETUP_REPEATS = 3
IMPORT_PAIRS = 5
CHILD_TIMEOUT_S = 60
VERIFY_STEP, VERIFY_SAMPLES = 0.5, 1000  # the CLI's defaults

# name -> unit; BENCHMARK.json lists the same names with directions and bounds
END_TO_END = {
    "setup_s": "s",
    "problems_per_s": "problems/s",
    "pipeline_ms.p90": "ms",
    "cli_ms.p50": "ms",
    "cli_peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.decode_ms": "ms",
    "cli.parse_ms": "ms",
    "cli.parse_peak_mb": "MB",
    "linalg.build_elems_per_s": "elems/s",
    "semifield.calls_per_problem": "count",
    "cli.solve_ms": "ms",
    "solvers.solve_two_sided_ms": "ms",
    "solvers.solve_matrix_lower_ms": "ms",
    "solvers.best_underestimator_ms": "ms",
    "applications.locate_ms": "ms",
    "applications.approximate_ms": "ms",
    "linalg.mat_mul_ops_per_s": "ops/s",
    "cli.to_dict_ms": "ms",
    "cli.encode_ms": "ms",
    "solvers.terms_ms": "ms",
    "applications.reduce_ms": "ms",
    "cli.input_bytes": "bytes",
    "cli.output_bytes": "bytes",
    "cli.import_ms": "ms",
    "cli.verify_ms": "ms",
    "oracle.grid_min_ms": "ms",
    "oracle.points_per_s": "points/s",
    "oracle.points_per_problem": "count",
    "trace.problems_per_s": "problems/s",
    "trace.overhead_pct": "%",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env() -> dict:
    """The whole environment of every child: only what the run depends on."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        **BLAS_THREADS,
    }


class Spawner:
    """CLI children started from spawn.py, a process that holds no
    workload data, so their peak RSS is their own."""

    def __init__(self, env: dict):
        self.env = env
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )

    def run(self, args: list, stdout: Path) -> dict:
        req = {
            "argv": [sys.executable, *args],
            "env": self.env,
            "stdout": str(stdout),
            "stderr": str(stdout.with_suffix(".err")),
            "timeout": CHILD_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Bench:
    """One workload's input files and documents, the two paths that run
    them, and the tallies of operations attempted, failed and checked
    (warm-up included)."""

    def __init__(self, workload, seed: int, work: Path, spawner: Spawner):
        self.w = workload
        self.seed = seed
        self.work = work
        self.spawner = spawner
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def setup(self) -> tuple[float, float]:
        """Write the inputs and warm up both paths.

        Returns the seconds taken, raw and at the reference speed (the
        reference loop runs between the steps, outside the timing)."""
        passes = [speed.reference_s()]
        start = time.perf_counter()
        self.paths = workloads.write_inputs(self.w, self.seed, self.work / "in")
        self.texts = {
            k: [p.read_text(encoding="utf-8") for p in ps] for k, ps in self.paths.items()
        }
        self.docs = {k: [json.loads(t) for t in ts] for k, ts in self.texts.items()}
        took = time.perf_counter() - start
        for kind in self.w.kinds:
            passes.append(speed.reference_s())
            start = time.perf_counter()
            self.pipeline(kind, 0)
            self.cli(kind, 0)
            took += time.perf_counter() - start
        passes.append(speed.reference_s())
        return took, took * speed.scale(passes)

    def pipeline(self, kind: str, i: int, loads=json.loads, dumps=json.dumps):
        """Run one problem through the in-process pipeline and check it.

        Returns ``(seconds, output_text, report)``, or None when the
        program raised.  ``loads``/``dumps`` let a traced run time them."""
        text = self.texts[kind][i]
        self.attempted += 1
        try:
            start = time.perf_counter()
            doc = loads(text)
            lp = cli.parse_problem(doc)
            sol = cli.solve_loaded(lp)
            report = (
                cli.verify_loaded(lp, sol, step=VERIFY_STEP, samples=VERIFY_SAMPLES)
                if self.w.verify
                else None
            )
            out = dumps(cli.solution_to_dict(lp, sol))
            elapsed = time.perf_counter() - start
        except Exception as exc:  # a crash is a failed operation, not a stop
            self.fail(f"pipeline {kind}-{i}: {type(exc).__name__}: {exc}")
            return None
        expected = self.docs[kind][i]
        self.check(f"pipeline {kind}-{i}", lambda: checks.check_solution(expected, json.loads(out)))
        if report is not None:
            got = {
                "mu": sol.mu,
                "min_value": report.min_value,
                "agrees_with_solver": report.agrees_with_solver,
                "points_evaluated": report.points_evaluated,
            }
            self.check(f"pipeline verify {kind}-{i}", lambda: checks.check_report(expected, got))
        return elapsed, out, report

    def cli(self, kind: str, i: int):
        """Run one CLI child on a problem file and check its output.

        Returns the spawner's reply, or None when the child failed."""
        command = "verify" if self.w.verify else "solve"
        out = self.work / f"cli-{kind}.json"
        self.attempted += 1
        reply = self.spawner.run(["-m", "tropopt", command, str(self.paths[kind][i])], out)
        if reply["exit"] != 0:
            err = out.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
            self.fail(f"cli {command} {kind}-{i}: exit {reply['exit']}: {err[-300:]}")
            return None
        check = checks.check_report if self.w.verify else checks.check_solution
        expected = self.docs[kind][i]
        self.check(
            f"cli {command} {kind}-{i}",
            lambda: check(expected, json.loads(out.read_text(encoding="utf-8"))),
        )
        return reply

    def fail(self, msg: str) -> None:
        self.failed += 1
        self.errors.append(msg)
        log(msg)

    def check(self, label: str, run_check) -> None:
        """Run one output check; a wrong or undecodable output is logged and
        makes the run incorrect."""
        try:
            run_check()
        except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
            msg = f"{label}: wrong output: {type(exc).__name__}: {exc}"
            self.errors.append(msg)
            log(msg)

    @property
    def correct(self) -> bool:
        return len(self.errors) == self.failed

    def files(self, r: int):
        """The file indices the in-process pipeline takes in round ``r``."""
        return [(r * self.w.per_round + j) % self.w.files for j in range(self.w.per_round)]


def timings(pipe_s: list[float], cli_ms: dict) -> dict:
    """The end-to-end timing metrics from per-operation samples."""
    # CLI figures are medians per kind, averaged over kinds: a median of the
    # pooled samples would sit on the gap between two kinds' clusters
    return {
        "problems_per_s": len(pipe_s) / sum(pipe_s),
        "pipeline_ms.p90": 1e3 * statistics.quantiles(pipe_s, n=10)[-1],
        "cli_ms.p50": statistics.fmean(statistics.median(v) for v in cli_ms.values()),
    }


def measure(b: Bench, seconds: float) -> dict:
    """Closed loop of whole rounds until ``seconds`` have passed.

    The reference loop runs before every operation, outside its timing;
    each round's timings are scaled by the median of that round's passes."""
    w = b.w
    raw_pipe: list[float] = []
    raw_cli = {k: [] for k in w.kinds}
    pipe_s: list[float] = []
    cli_ms = {k: [] for k in w.kinds}
    rss_mb = {k: [] for k in w.kinds}
    scales: list[float] = []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        passes, pipe, cli = [], [], []
        for kind in w.kinds:
            for i in b.files(r):
                passes.append(speed.reference_s())
                res = b.pipeline(kind, i)
                if res is not None:
                    pipe.append(res[0])
        for kind in w.kinds:
            passes.append(speed.reference_s())
            reply = b.cli(kind, r % w.files)
            if reply is not None:
                cli.append((kind, 1e3 * reply["wall_s"]))
                rss_mb[kind].append(reply["maxrss_kb"] / 1024)
        k = speed.scale(passes)
        scales.append(k)
        raw_pipe += pipe
        pipe_s += [t * k for t in pipe]
        for kind, ms in cli:
            raw_cli[kind].append(ms)
            cli_ms[kind].append(ms * k)
        r += 1
    log(
        f"{w.name}: {r} rounds in {time.perf_counter() - start:.1f} s; "
        f"{len(pipe_s)} pipeline samples, {sum(map(len, cli_ms.values()))} CLI samples; "
        f"speed scale per round: median {statistics.median(scales):.3f}, "
        f"range {min(scales):.3f}-{max(scales):.3f}"
    )
    for kind in w.kinds:
        if cli_ms[kind]:
            log(
                f"  {kind}: cli median {statistics.median(raw_cli[kind]):.1f} ms raw, "
                f"peak rss {statistics.median(rss_mb[kind]):.2f} MB"
            )
    if len(pipe_s) < 2 or not all(cli_ms.values()):
        return {}
    log(f"  raw (unscaled) figures: {timings(raw_pipe, raw_cli)}")
    return {
        **timings(pipe_s, cli_ms),
        "cli_peak_rss_mb": statistics.fmean(statistics.median(v) for v in rss_mb.values()),
    }


def import_ms(b: Bench) -> float:
    """Median wall time of a fresh ``import tropopt.cli`` less that of a bare
    interpreter start, from alternating children."""
    bare, full = [], []
    out = b.work / "import.txt"
    for _ in range(IMPORT_PAIRS):
        for args, acc in ((["-c", "pass"], bare), (["-c", "import tropopt.cli"], full)):
            b.attempted += 1
            reply = b.spawner.run(args, out)
            if reply["exit"] != 0:
                b.fail(f"import child {args}: exit {reply['exit']}")
            else:
                acc.append(1e3 * reply["wall_s"])
    if not bare or not full:
        return 0.0
    return statistics.median(full) - statistics.median(bare)


def parse_peak_mb(b: Bench) -> float:
    """Largest extra memory traced by tracemalloc during one
    ``cli.parse_problem`` call, over one file of each kind."""
    peaks = []
    tracemalloc.start()
    try:
        for kind in b.w.kinds:
            doc = json.loads(b.texts[kind][0])
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            lp = cli.parse_problem(doc)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
            del lp
    finally:
        tracemalloc.stop()
    return max(peaks)


def trace(b: Bench, seconds: float) -> dict:
    """Per-layer metrics from a pipeline run with timers installed."""
    w = b.w
    spans = layers.Layers()
    loads, dumps = spans.wrap("cli.decode", json.loads), spans.wrap("cli.encode", json.dumps)
    problems, busy, in_bytes, out_bytes, points = 0, 0.0, 0, 0, 0
    plain, plain_busy = 0, 0.0
    start = time.perf_counter()
    r = 0
    # traced and untraced rounds alternate, so the overhead is measured
    # under the same machine load
    while r < 2 or time.perf_counter() - start < 0.75 * seconds:
        if r % 2:
            for kind in w.kinds:
                for i in b.files(r):
                    res = b.pipeline(kind, i)
                    if res is not None:
                        plain += 1
                        plain_busy += res[0]
            r += 1
            continue
        with spans.installed():
            for kind in w.kinds:
                for i in b.files(r):
                    res = b.pipeline(kind, i, loads, dumps)
                    if res is None:
                        continue
                    elapsed, out, report = res
                    problems += 1
                    busy += elapsed
                    in_bytes += len(b.texts[kind][i].encode())
                    out_bytes += len(out.encode())
                    points += report.points_evaluated if report is not None else 0
        r += 1
    if problems == 0 or plain == 0:
        return {}
    log(f"{w.name}: traced {problems} problems in {(r + 1) // 2} rounds; calls per problem:")
    for span, calls in sorted(spans.calls.items()):
        log(f"  {span}: {calls / problems:.2f}")
    with layers.semifield_calls() as counts:
        counted = sum(b.pipeline(kind, 0) is not None for kind in w.kinds)
    semifield_calls = sum(counts.values()) / max(counted, 1)
    log(f"  semifield calls per problem by method: "
        f"{ {k: v / max(counted, 1) for k, v in sorted(counts.items())} }")

    def per_problem_ms(span):
        return 1e3 * spans.seconds[span] / problems

    def rate(span):
        return spans.work[span] / spans.seconds[span] if spans.seconds[span] else 0.0

    return {
        "cli.decode_ms": per_problem_ms("cli.decode"),
        "cli.parse_ms": per_problem_ms("cli.parse"),
        "cli.parse_peak_mb": parse_peak_mb(b),
        "linalg.build_elems_per_s": rate("linalg.build"),
        "semifield.calls_per_problem": semifield_calls,
        "cli.solve_ms": per_problem_ms("cli.solve"),
        "solvers.solve_two_sided_ms": per_problem_ms("solvers.solve_two_sided"),
        "solvers.solve_matrix_lower_ms": per_problem_ms("solvers.solve_matrix_lower"),
        "solvers.best_underestimator_ms": per_problem_ms("solvers.best_underestimator"),
        "applications.locate_ms": per_problem_ms("applications.locate"),
        "applications.approximate_ms": per_problem_ms("applications.approximate"),
        "linalg.mat_mul_ops_per_s": rate("linalg.mat_mul"),
        "cli.to_dict_ms": per_problem_ms("cli.to_dict"),
        "cli.encode_ms": per_problem_ms("cli.encode"),
        "solvers.terms_ms": per_problem_ms("solvers.terms"),
        "applications.reduce_ms": per_problem_ms("applications.reduce"),
        "cli.input_bytes": in_bytes / problems,
        "cli.output_bytes": out_bytes / problems,
        "cli.import_ms": import_ms(b),
        "cli.verify_ms": per_problem_ms("cli.verify"),
        "oracle.grid_min_ms": per_problem_ms("oracle.grid_min"),
        "oracle.points_per_s": rate("oracle.grid_min"),
        "oracle.points_per_problem": points / problems,
        "trace.problems_per_s": problems / busy,
        "trace.overhead_pct": 100 * ((plain / plain_busy) / (problems / busy) - 1),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    work = HERE / "_work" / f"{w.name}-{os.getpid()}"
    spawner = Spawner(child_env())
    try:
        b = Bench(w, args.seed % 2**64, work, spawner)
        setups = [b.setup() for _ in range(1 if args.trace else SETUP_REPEATS)]
        log(f"{w.name}: set-up {', '.join(f'{raw:.3f}' for raw, _ in setups)} s raw")
        if args.trace:
            values, units = trace(b, args.seconds), PER_LAYER
        else:
            values = measure(b, args.seconds)
            values["setup_s"] = statistics.median(scaled for _, scaled in setups)
            units = END_TO_END
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        log(f"no figures: every operation of some path failed ({b.errors[:3]})")
        return 1
    result = {
        "correct": b.correct,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
