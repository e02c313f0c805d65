"""The jointlab benchmark.

    python3 perfbench/run.py --workload trace-grid --seed 1 --seconds 30 --trace 0

With ``--trace 0`` one client runs one ``python -m jointlab`` subprocess at a
time (a closed loop, as a user or a script would) for ``--seconds``, checks
every output and prints the end-to-end metrics.  With ``--trace 1`` the same
jobs are replayed in-process through ``jointlab.cli.main``, alternating
untraced and traced passes, and the per-layer metrics are printed.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Work
files go under ``.bench_work/`` at the root of the checkout.  Without the
package sources next to this directory the run fails before measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from check import CheckError, check_job
from workloads import WORKLOADS, Job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

SETUPS = 3  # set-up is repeated and its median reported
JOB_TIMEOUT_S = 60
IMPORT_PROBES = 3  # import-only subprocesses per traced pass
PROBE_TERMS = 20_000
PROBE_BIG_STEPS = 6_000
PROBE_INTS = (3**700 + 1, 5**600 + 3, 7**500 + 5)
REFERENCE_PROBE_S = 0.080  # the speed probe's time at the reference speed

END_TO_END = (
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("job_cpu_p50_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)


# ---------------------------------------------------------------------------
# reference speed


def probe() -> float:
    """Wall time of a fixed mix of jointlab's kinds of work: Fraction additions
    on small integers, and multiply-divide steps on integers of ~1,500 bits."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(1, i % 97 + 1)
    a, b, c = PROBE_INTS
    acc = 0
    for i in range(1, PROBE_BIG_STEPS):
        acc += (a * b - c * i) // (c + i)
    return perf_counter() - start


class SpeedScale:
    """Factors that rescale measured intervals to the reference speed.

    On a shared host the speed of one CPU drifts by up to 2x within seconds,
    far more than any change a benchmark should detect.  An interval is
    multiplied by REFERENCE_PROBE_S over the mean of the probes timed just
    before and just after it, so the probe and the job must share one CPU.
    """

    def __init__(self):
        self.before = probe()
        self.factors: list[float] = []

    def next(self) -> float:
        """The factor for the interval since the previous probe."""
        after = probe()
        factor = 2 * REFERENCE_PROBE_S / (self.before + after)
        self.before = after
        self.factors.append(factor)
        return factor


# ---------------------------------------------------------------------------
# running and checking jobs


@dataclass(frozen=True)
class ChildResult:
    code: int
    wall: float
    cpu: float
    rss_kb: int
    timed_out: bool


def run_child(cmd: list[str], cwd: Path, env: dict, timeout: float) -> ChildResult:
    """Run cmd to completion with stdout and stderr in cwd/.stdout, .stderr.

    The child is reaped with wait4 for its CPU time and peak RSS.  A timer
    kills it after `timeout` seconds; the kill is only sent while the child
    is unreaped, so its pid cannot have been reused.
    """
    lock = threading.Lock()
    reaped = False
    timed_out = False

    def kill() -> None:
        nonlocal timed_out
        with lock:
            if not reaped:
                os.kill(proc.pid, signal.SIGKILL)
                timed_out = True

    with open(cwd / ".stdout", "wb") as out, open(cwd / ".stderr", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            kill()
            raise
        finally:
            timer.cancel()
            timer.join()
            with lock:
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        code=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_kb=usage.ru_maxrss,
        timed_out=timed_out,
    )


class Verifier:
    """Checks job outputs.  A key's outputs must repeat byte for byte, so a
    repeat of already checked bytes reuses the verdict."""

    def __init__(self):
        self.digests: dict[str, str] = {}
        self.verdicts: dict[str, str | None] = {}

    def verify(self, job: Job, code: int | str, stdout: bytes, output: bytes) -> str | None:
        """None if the job is right, else what is wrong."""
        if code != 0:
            return code if isinstance(code, str) else f"exit code {code}"
        digest = hashlib.sha256(stdout + b"\0" + output).hexdigest()
        if self.digests.setdefault(job.key, digest) != digest:
            return "output differs from an earlier run of the same job"
        if job.key not in self.verdicts:
            try:
                check_job(job.expect, stdout, output)
                self.verdicts[job.key] = None
            except CheckError as exc:
                self.verdicts[job.key] = str(exc)
        return self.verdicts[job.key]

    def digest(self) -> str:
        """One digest of every job's stdout and output file, by job key."""
        folded = "".join(f"{k}:{d}\n" for k, d in sorted(self.digests.items()))
        return hashlib.sha256(folded.encode()).hexdigest()


def read_output(work: Path, job: Job) -> bytes:
    path = work / job.output
    return path.read_bytes() if path.exists() else b""


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_job(job: Job, work: Path) -> ChildResult:
    (work / job.output).unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "jointlab", *job.argv]
    return run_child(cmd, work, child_env(), JOB_TIMEOUT_S)


def verify_job(job: Job, child: ChildResult, work: Path, verifier: Verifier) -> str | None:
    if child.timed_out:
        return f"timed out after {JOB_TIMEOUT_S} s"
    stdout = (work / ".stdout").read_bytes()
    return verifier.verify(job, child.code, stdout, read_output(work, job))


# ---------------------------------------------------------------------------
# end-to-end: closed loop of subprocess jobs


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile; with ten samples or fewer, the maximum (percentile 100)."""
    ordered = sorted(samples)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], 100 * rank // len(ordered)


@dataclass(frozen=True)
class Sample:
    """One job, with its times rescaled to the reference speed."""

    wall: float
    cpu: float
    rss_kb: int


def end_to_end_metrics(setups: list[float], samples: list[Sample], ok: int) -> dict[str, float]:
    """Times in reference seconds.  The closed loop's throughput counts job
    time only, not the benchmark's own checking and probing between jobs."""
    walls = [s.wall for s in samples]
    return {
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail(walls)[0],
        "job_cpu_p50_s": statistics.median(s.cpu for s in samples),
        "jobs_per_s": ok / sum(walls),
        "peak_rss_mb": max(s.rss_kb for s in samples) / 1024,
        "ok_frac": ok / len(samples),
    }


def closed_loop(workload: str, seed: int, seconds: float, work: Path, verifier: Verifier):
    make = WORKLOADS[workload]
    scale = SpeedScale()
    errors: list[str] = []
    setups: list[float] = []
    for _ in range(SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True, exist_ok=True)
        start = perf_counter()
        jobs = make(work, seed)
        warm_up = min(jobs, key=lambda job: job.key)  # independent of the rotation
        child = run_job(warm_up, work)
        setups.append((perf_counter() - start) * scale.next())
        error = verify_job(warm_up, child, work, verifier)
        if error:
            errors.append(f"warm-up {warm_up.key}: {error}")

    children: list[ChildResult] = []
    samples: list[Sample] = []
    ok = 0
    start = perf_counter()
    while len(children) < len(jobs) or perf_counter() - start < seconds:
        job = jobs[len(children) % len(jobs)]
        child = run_job(job, work)
        factor = scale.next()
        children.append(child)
        samples.append(Sample(child.wall * factor, child.cpu * factor, child.rss_kb))
        error = verify_job(job, child, work, verifier)
        if error:
            errors.append(f"{job.key}: {error}")
        else:
            ok += 1

    print(f"setup_s is the median of {' '.join(f'{s:.3f}' for s in setups)}")
    print(f"job_tail_s is p{tail([s.wall for s in samples])[1]} of {len(samples)} jobs")
    print(f"fail_frac = {len(samples) - ok}/{len(samples)}")
    print(
        f"measured job wall p50 = {statistics.median(c.wall for c in children):.6g} s, "
        f"speed factor p50 = {statistics.median(scale.factors):.4g} "
        f"(range {min(scale.factors):.4g}..{max(scale.factors):.4g})"
    )
    units = dict(END_TO_END)
    values = end_to_end_metrics(setups, samples, ok)
    metrics = {k: (v, units[k]) for k, v in values.items()}
    return metrics, len(samples), len(samples) - ok, errors


# ---------------------------------------------------------------------------
# per layer: traced in-process replay


@contextlib.contextmanager
def working_directory(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def call_main(argv: tuple[str, ...]) -> tuple[int | str, bytes, float]:
    """Run jointlab.cli.main in-process: its exit code (or the exception it
    raised), its stdout and its duration."""
    import jointlab.cli

    buffer = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buffer):
        try:
            code = jointlab.cli.main(list(argv))
        except Exception as exc:  # a crashing job is a failed job, not a failed run
            code = f"raised {exc!r}"
    return code, buffer.getvalue().encode(), perf_counter() - start


def traced_run(workload: str, seed: int, seconds: float, work: Path, verifier: Verifier):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import layers

    work.mkdir(parents=True, exist_ok=True)
    jobs = WORKLOADS[workload](work, seed)
    tracer = layers.Tracer()
    scale = SpeedScale()
    errors: list[str] = []
    passes, plain_s, traced_s, import_s, out_bytes = [], [], [], [], set()
    attempted = failed = 0
    start = perf_counter()
    with working_directory(work):
        while not passes or perf_counter() - start < seconds:
            for _ in range(IMPORT_PROBES):
                import_only = [sys.executable, "-c", "import jointlab.cli"]
                wall = run_child(import_only, work, child_env(), JOB_TIMEOUT_S).wall
                import_s.append(wall * scale.next())
            for traced in (False, True):
                total = 0.0
                nbytes = 0
                factors = []
                if traced:
                    tracer.begin_pass()
                    tracer.install()
                try:
                    for tracer.job, job in enumerate(jobs):
                        (work / job.output).unlink(missing_ok=True)
                        code, stdout, elapsed = call_main(job.argv)
                        factors.append(scale.next())
                        output = read_output(work, job)
                        total += elapsed * factors[-1]
                        nbytes += len(stdout) + len(output)
                        attempted += 1
                        error = verifier.verify(job, code, stdout, output)
                        if error:
                            failed += 1
                            errors.append(f"{job.key}: {error}")
                finally:
                    tracer.uninstall()
                out_bytes.add(nbytes)
                (traced_s if traced else plain_s).append(total)
            passes.append(tracer.end_pass(factors))
            if len(passes) > 1:
                passes[-1].spans.clear()  # only the first pass's spans are written
                if passes[-1].counts != passes[0].counts:
                    errors.append("work counters differ between traced passes")

    overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1
    values = layers.per_layer_metrics(passes, import_s, min(out_bytes), overhead)
    if len(out_bytes) != 1:
        errors.append("output size differs between passes")
    write_spans(WORK_ROOT / f"spans-{workload}.tsv", passes[0].spans)
    print(f"traced {len(passes)} pass(es) of {len(jobs)} job(s)")
    units = dict(layers.PER_LAYER)
    metrics = {k: (v, units[k]) for k, v in values.items()}
    return metrics, attempted, failed, errors


def write_spans(path: Path, spans: list) -> None:
    """One line per span: name, start, end (s from the first span), parent, job."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tstart\tend\tparent\tjob\n")
        for name, start, end, parent, job in spans:
            fh.write(f"{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\t{job}\n")


# ---------------------------------------------------------------------------


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jointlab" / "cli.py").is_file():
        print(f"error: no jointlab sources at {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # the speed probe and the jobs share one CPU
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    verifier = Verifier()
    run = traced_run if args.trace else closed_loop
    try:
        metrics, attempted, failed, errors = run(
            args.workload, args.seed, args.seconds, work, verifier
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for error in errors[:20]:
        print(f"FAILED {error}")
    environment = {
        "python": platform.python_version(),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "load_start": load_start,
        "load_end": os.getloadavg(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "output_digest": verifier.digest(),
    }
    print("environment " + json.dumps(environment))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
