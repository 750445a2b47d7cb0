"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py JOB_JSON

The job names the config file, the steps, the output directory and the mode:
``setup`` only imports klab and loads and validates the config; ``run`` then
runs the steps through ``klab.cli.main``; ``trace`` does the same with spans
recorded around every layer.  The last line of stdout is a JSON result.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _setup(config_path: Path) -> float:
    import klab.cli  # noqa: F401
    import klab.harness

    klab.harness.config_from_dict(json.loads(config_path.read_text(encoding="utf-8")))
    return time.perf_counter() - _T0


def _outputs(out: Path) -> dict[str, dict]:
    import hashlib

    return {
        str(path.relative_to(out)): {
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "bytes": path.stat().st_size,
        }
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    config_path = Path(job["config"])
    result = {"setup_s": _setup(config_path)}
    if job["mode"] == "setup":
        print(json.dumps(result))
        return 0

    import resource

    import klab.cli

    out = Path(job["out"])
    argvs = [
        [s["command"], "--config", str(config_path), "--out", str(out / s["scenario"]),
         "--override", f"scenario={s['scenario']}"]
        for s in job["steps"]
    ]
    rec = None
    if job["mode"] == "trace":
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec)
        root = rec.open(rec.name_index("bench.repetition"))

    t0 = time.perf_counter()
    codes = [klab.cli.main(argv) for argv in argvs]
    wall = time.perf_counter() - t0

    if rec is not None:
        rec.close(root)
    result.update(
        wall_s=wall,
        exit_codes=codes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        outputs=_outputs(out),
    )
    if rec is not None:
        import numpy as np

        arrs = rec.arrays()
        bytes_written = sum(o["bytes"] for o in result["outputs"].values())
        result["per_layer"] = tracing.per_layer_metrics(rec.names, arrs, rec.counts, bytes_written)
        result["layers"] = tracing.layer_table(rec.names, arrs)
        result["counts"] = dict(rec.counts)
        np.savez_compressed(job["spans"], names=np.array(rec.names), **arrs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
