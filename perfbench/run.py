"""klab benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload checks_k4 --seed 1 --seconds 30 --trace 0

Each repetition runs in a fresh interpreter with ``src`` on the path,
``KLAB_THREADS`` unset and the BLAS thread variables at 1.  With
``--trace 0`` the run repeats the workload while the next repetition is
expected to end within ``--seconds`` (at least once) and reports the
end-to-end metrics; with ``--trace 1`` it runs the
workload once untraced and once traced and reports the per-layer metrics.
Every repetition passes through the correctness gate (``gate.py``).  Files go
to ``.perfbench_out/<workload>-seed<seed>-trace<0|1>/``; the last stdout line
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
MIN_REPS = 1
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class Runner:
    """Spawns worker processes for one run and gates their outputs."""

    def __init__(self, root: Path, work: Path, spec: dict, reference: dict | None) -> None:
        self.work = work
        self.spec = spec
        self.reference = reference
        self.config = work / "config.json"
        self.config.write_text(json.dumps(spec["config"], indent=2) + "\n", encoding="utf-8")
        self.env = {k: v for k, v in os.environ.items() if k != "KLAB_THREADS"}
        self.env.update(THREAD_PINS)
        self.env["PYTHONPATH"] = str(root / "src")
        self.started = time.perf_counter()
        self.jobs = 0
        self.attempted = 0
        self.failed = 0
        self.first: dict | None = None  # output digests of the first repetition
        self.first_dir: Path | None = None
        self.known_false = 0  # known false check failures per repetition
        self.problems: list[str] = []

    def spawn(self, mode: str) -> tuple[dict | None, Path]:
        """Run one worker job; (its result or None, its output directory)."""
        self.jobs += 1
        out = self.work / f"rep{self.jobs}"
        job = {
            "mode": mode,
            "config": str(self.config),
            "steps": self.spec["steps"],
            "out": str(out),
            "spans": str(self.work / "spans.npz"),
        }
        job_path = self.work / f"job{self.jobs}.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        budget = max(5.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job_path)],
                env=self.env,
                capture_output=True,
                text=True,
                timeout=budget,
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"job {self.jobs} ({mode}): killed after {budget:.0f} s")
            return None, out
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.problems.append(
                f"job {self.jobs} ({mode}): worker exit {proc.returncode}: {tail[0]}"
            )
            return None, out
        return json.loads(lines[-1]), out

    def setup(self) -> dict | None:
        """One set-up sample in a fresh interpreter; a failure counts as failed."""
        result, _ = self.spawn("setup")
        if result is None:
            self.attempted += 1
            self.failed += 1
        return result

    def repetition(self, mode: str) -> dict | None:
        """One gated repetition; None when the worker itself failed."""
        self.attempted += 1
        rep, out = self.spawn(mode)
        if rep is None:
            self.failed += 1
            return None
        problems, self.known_false = gate.check_repetition(
            self.spec, rep, out, self.reference
        )
        digests = {k: v["sha256"] for k, v in rep["outputs"].items()}
        if self.first is None:
            # Later repetitions must match these bytes, so checking the
            # first one's contents checks them all.  Its files are kept.
            if not problems:
                problems += self._check_outputs(out)
            self.first = digests
            self.first_dir = out
        else:
            if digests != self.first:
                problems.append("outputs are not byte-identical to the first repetition")
            shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems += [f"job {self.jobs} ({mode}): {p}" for p in problems]
        return rep

    def _check_outputs(self, out: Path) -> list[str]:
        problems = []
        for step in self.spec["steps"]:
            step_dir = out / step["scenario"]
            csv = step_dir / "parabolic.csv"
            if csv.is_file():
                problems += gate.check_parabolic(self.spec["config"], csv)
            if self.reference is not None:
                want = self.reference["steps"][step["scenario"]]
                problems += gate.compare(gate.summarize(step_dir), want)
        return problems


def environment(root: Path) -> dict:
    import scipy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((root / "src" / "klab").glob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_pins": THREAD_PINS,
        "klab_threads": "unset",
        "src_klab_lines": src_lines,
    }


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Repetitions with tracing off: (metrics, samples)."""
    runner.spawn("setup")  # warm-up: bytecode compiled, files cached; not counted
    reps = []
    t0 = time.perf_counter()
    while runner.attempted < MIN_REPS or (
        reps and time.perf_counter() - t0 + reps[-1]["wall_s"] <= seconds
    ):
        rep = runner.repetition("run")
        if rep is None:
            break
        reps.append(rep)
    setups = [r["setup_s"] for r in reps]
    while reps and len(setups) < SETUP_SAMPLES:
        result = runner.setup()
        if result is None:
            break
        setups.append(result["setup_s"])
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in END_TO_END
        if samples[name]
    }
    return metrics, samples


def trace(runner: Runner) -> dict:
    """One untraced and one traced repetition; writes ``trace.json``."""
    runner.spawn("setup")  # warm-up, as in measure()
    base = runner.repetition("run")
    traced = runner.repetition("trace") if base is not None else None
    if traced is None:
        return {}
    wall = traced["wall_s"]
    by_layer: dict[str, float] = {}
    for name, row in traced["layers"].items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + row["self_s"]
    unattributed = by_layer.pop("bench")
    doc = {
        "traced_wall_s": wall,
        "untraced_wall_s": base["wall_s"],
        # Expected to be large: per-sample energies and spectral calls
        # each pay for a wrapper.
        "tracing_overhead_s": wall - base["wall_s"],
        "attributed_share": (wall - unattributed) / wall,
        "self_s_by_layer": by_layer,
        "per_layer": traced["per_layer"],
        "counts": traced["counts"],
        "layers": traced["layers"],
        "spans": "spans.npz",
    }
    (runner.work / "trace.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(
        f"traced wall {wall:.3f} s, untraced {base['wall_s']:.3f} s, "
        f"overhead {doc['tracing_overhead_s']:.3f} s; self time by layer: "
        + ", ".join(f"{k} {v:.3f} s" for k, v in sorted(by_layer.items()))
        + f"; {100 * doc['attributed_share']:.2f}% of traced wall attributed"
    )
    return {
        name: {"value": traced["per_layer"][name], "unit": unit}
        for name, unit, _ in tracing.PER_LAYER
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="klab benchmark: one run of one workload")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = Path.cwd()
    if not (root / "src" / "klab" / "__init__.py").is_file():
        print("error: src/klab not found; run from the root of a klab checkout", file=sys.stderr)
        return 2

    spec = workloads.make(args.workload, args.seed)
    work = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ref_path = HERE / "reference" / args.workload / f"seed{args.seed}.json"
    reference = json.loads(ref_path.read_text(encoding="utf-8")) if ref_path.is_file() else None
    runner = Runner(root, work, spec, reference)
    if reference is not None and reference["config_digest"] != spec["digest"]:
        runner.problems.append(f"{ref_path.name} was made from another config")
        runner.failed += 1

    samples = {}
    if args.trace:
        metrics = trace(runner)
    else:
        metrics, samples = measure(runner, args.seconds)
    attempted = max(runner.attempted, 1)
    failed = min(runner.failed, attempted)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "config_digest": spec["digest"],
        "reference_checked": reference is not None,
        "environment": environment(root),
        "samples": samples,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "known_false_failures": runner.known_false,
        "problems": runner.problems,
    }
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    for problem in runner.problems:
        print(f"WRONG {problem}")
    if runner.known_false:
        print(
            f"KNOWN DEFECT {runner.known_false} synthetic lemma instance(s) rejected by "
            "klab's discrete hypothesis test (see gate.py)"
        )
    for name, entry in metrics.items():
        print(f"{name:38s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'error_rate':38s} {failed / attempted:.6g} share of {attempted} repetitions")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not runner.problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
