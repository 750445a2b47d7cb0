"""Write the reference outputs the correctness gate compares against.

    python3 perfbench/make_reference.py WORKLOAD SEED [SEED ...]

Run from the root of a checkout whose outputs are trusted.  Each seed runs
the workload once through the same worker and gate as a benchmark run and
stores ``gate.summarize`` of every step in ``reference/WORKLOAD/seedN.json``.
"""

import json
import shutil
import sys
from pathlib import Path

import gate
import workloads
from run import HERE, Runner


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in workloads.WORKLOADS:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    workload, seeds = argv[0], [int(s) for s in argv[1:]]
    root = Path.cwd()
    for seed in seeds:
        spec = workloads.make(workload, seed)
        work = root / ".perfbench_out" / f"reference-{workload}-seed{seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        runner = Runner(root, work, spec, None)
        rep = runner.repetition("run")
        if runner.failed:
            print("\n".join(runner.problems), file=sys.stderr)
            return 1
        steps = {}
        for step, code in zip(spec["steps"], rep["exit_codes"]):
            step_dir = runner.first_dir / step["scenario"]
            summary = gate.summarize(step_dir)
            verdicts = [c["passed"] for c in summary["report"]["checks"]]
            steps[step["scenario"]] = dict(summary, exit=code, verdicts=verdicts)
        doc = {"config_digest": spec["digest"], "steps": steps}
        path = HERE / "reference" / workload / f"seed{seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
