"""Seeded workload generator: (workload, seed) -> klab config and CLI steps.

klab sees only the generated config file. Everything here is a pure function
of the workload name and the seed, so a claim can be re-run on any seed.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

WORKLOADS = ("checks_k4", "lemmas", "stiff_k64")

# Physics shared by every workload: p = 0.5, halving eps sweep, power
# spectrum nu = 1 with exponent 2, affine mass (1, 1), beta = 1, t_end = 16.
_BASE = {
    "p": 0.5,
    "epsilon": [0.04, 0.02, 0.01],
    "operator": {"family": "power", "nu": 1.0, "K": 4, "exponent": 2.0},
    "mass": {"affine": {"base": 1.0, "coeff": 1.0}},
    "beta": 1.0,
    "t_end": 16.0,
    "samples": 4096,
    "tolerances": {"rel_tol": 1e-10},
}


def _all_mode_data(seed: int, modes: int) -> dict[str, list[float]]:
    """``u0``, ``u1`` drawn N(0,1)/k^2 on every mode k = 1..K, then scaled to
    ``|A^(1/2)u0| = |A^(1/2)u1| = 1``.

    The scaling fixes the initial mass ``m = 2`` and with it the oscillation
    step cap of the second-order flow, which tightens like ``sqrt(m)``.  With
    unscaled draws at K = 64, seed 3 (initial mass 7.1) took 26k hyperbolic
    steps where seeds 0-2 and 4 took 13.5k, and the wall time moved with it.
    Which modes carry the energy stays random.
    """
    rng = np.random.default_rng(seed)
    k2 = np.arange(1, modes + 1, dtype=float) ** 2
    data = {}
    for name in ("u0", "u1"):
        u = rng.standard_normal(modes) / k2
        u /= math.sqrt(float(k2 @ (u * u)))
        data[name] = [float(x) for x in u]
    return data


def make(workload: str, seed: int) -> dict:
    """The workload's config and steps for one seed.

    Returns ``{"config": ..., "steps": [...], "digest": ...}``.  Each step is
    one ``klab`` CLI call on the config with ``--override scenario=<scenario>``
    and the number of checks its report must hold.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (expected one of {WORKLOADS})")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    cfg = json.loads(json.dumps(_BASE))
    if workload == "checks_k4":
        cfg["initial"] = _all_mode_data(seed, 4)
        steps = [("verify", "decay", 13), ("verify", "decay_error", 5)]
    elif workload == "lemmas":
        cfg["initial"] = {"preset": "lowest_mode"}
        cfg["seed"] = seed
        steps = [("verify", "lemmas", 300)]
    else:
        cfg["operator"]["K"] = 64
        cfg["epsilon"] = [0.01]
        cfg["initial"] = _all_mode_data(seed, 64)
        steps = [("simulate", "simulate", 0)]
    cfg["scenario"] = steps[0][1]
    text = json.dumps(cfg, sort_keys=True)
    return {
        "config": cfg,
        "steps": [
            {"command": c, "scenario": s, "checks": n} for c, s, n in steps
        ],
        "digest": hashlib.sha256(text.encode()).hexdigest(),
    }
