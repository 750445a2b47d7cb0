"""Spans around calls into klab's layers, recorded from outside the program.

``install`` rebinds the public functions of ``klab.energies``,
``klab.evolution``, ``klab.analysis``, ``klab.harness`` and ``klab.cli`` in
every ``klab`` module that binds them, so a call is timed as bound in the
calling module.  Each call becomes a span: name, start, end and the index of
the enclosing span.  ``klab.spectral`` helpers are per-sample and only
counted.  ``solve_to_grid`` is counted together with the ``StepStats`` it
returns and the right-hand-side evaluations of the ``f`` passed in.

Spans are kept in flat arrays in memory and written out after the run.  They
come from one thread (the benchmark leaves ``KLAB_THREADS`` unset), so the
children of a span are disjoint and lie inside it.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Layers whose public functions become spans, by module.
TIMED_MODULES = ("energies", "evolution", "analysis", "harness", "cli")
# Emission is split between the public emitters and this private writer.
EXTRA_TIMED = {"harness": ("_write_report",)}
COUNTED = {"spectral": ("m_eval", "sobolev_norm_sq", "as_vector")}


class Recorder:
    """In-memory span store plus plain counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def _timed(rec: Recorder, name: str, fn, by_kind: bool = False):
    nid = rec.name_index(name)
    kinds: dict[str, int] = {}

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_id = nid
        if by_kind:
            kind = str(args[0]) if args else str(kwargs.get("problem"))
            if kind not in kinds:
                kinds[kind] = rec.name_index(f"{name}.{kind}")
            span_id = kinds[kind]
        idx = rec.open(span_id)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    return wrapper


def _counted(rec: Recorder, key: str, fn):
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _solver(rec: Recorder, fn):
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        evals = [0]

        def counted_f(t, y):
            evals[0] += 1
            return f(t, y)

        try:
            out = fn(counted_f, *args, **kwargs)
        finally:
            counts["evolution.rhs_evals"] += evals[0]
        stats = out[2]
        counts["evolution.solve_calls"] += 1
        counts["evolution.steps_accepted"] += int(stats.accepted)
        counts["evolution.steps_rejected"] += int(stats.rejected)
        return out

    return wrapper


def _wrappers(rec: Recorder) -> dict[int, object]:
    """Map ``id(original function)`` to its wrapper."""
    import klab._rk
    import klab.cli  # noqa: F401 - imports every layer

    found: dict[int, object] = {}
    for layer in TIMED_MODULES:
        mod = sys.modules[f"klab.{layer}"]
        names = list(getattr(mod, "__all__", ())) + list(EXTRA_TIMED.get(layer, ()))
        for name in names:
            fn = getattr(mod, name, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                found[id(fn)] = _timed(
                    rec, f"{layer}.{name}", fn, by_kind=(layer, name) == ("evolution", "integrate")
                )
    for layer, names in COUNTED.items():
        mod = sys.modules[f"klab.{layer}"]
        for name in names:
            fn = getattr(mod, name, None)
            if inspect.isfunction(fn):
                found[id(fn)] = _counted(rec, f"{layer}.calls", fn)
    solve = klab._rk.solve_to_grid
    found[id(solve)] = _solver(rec, solve)
    return found


def install(rec: Recorder):
    """Rebind every traced function in every loaded ``klab`` module.

    Returns a function that restores the original bindings.
    """
    found = _wrappers(rec)
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "klab" or mod_name.startswith("klab.")):
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = found.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, value))

    def restore() -> None:
        for mod, attr, value in undo:
            setattr(mod, attr, value)

    return restore


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    ``parent[i]`` is the index of the enclosing span, or -1 at the root.
    Children of one span are disjoint and inside it (one thread), so the
    sum of their durations is the part of the parent they cover.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered[: dur.size]


def layer_table(names: list[str], arrs: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds."""
    own = self_times(arrs["parent"], arrs["start"], arrs["end"])
    dur = arrs["end"] - arrs["start"]
    ids = arrs["name_id"]
    n = len(names)
    calls = np.bincount(ids, minlength=n)
    total = np.bincount(ids, weights=dur, minlength=n)
    selfs = np.bincount(ids, weights=own, minlength=n)
    return {
        names[i]: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(selfs[i])}
        for i in range(n)
        if calls[i]
    }


def calls_within(names: list[str], arrs: dict[str, np.ndarray], inner: str, outer: str) -> int:
    """Number of ``inner`` spans that lie inside some ``outer`` span."""
    if inner not in names or outer not in names:
        return 0
    ids = arrs["name_id"]
    start, end = arrs["start"], arrs["end"]
    is_inner = ids == names.index(inner)
    inside = np.zeros(ids.size, dtype=bool)
    for j in np.flatnonzero(ids == names.index(outer)):
        inside |= (start >= start[j]) & (end <= end[j])
    return int(np.count_nonzero(is_inner & inside))


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("evolution.integrate_parabolic_s", "s", "lower"),
    ("evolution.integrate_parabolic_calls", "count", "lower"),
    ("evolution.integrate_hyperbolic_s", "s", "lower"),
    ("evolution.integrate_hyperbolic_calls", "count", "lower"),
    ("evolution.solve_calls", "count", "lower"),
    ("evolution.steps_accepted", "count", "lower"),
    ("evolution.steps_rejected", "count", "lower"),
    ("evolution.step_accept_ratio", "ratio", "higher"),
    ("evolution.rhs_evals", "count", "lower"),
    ("evolution.corrector_series_s", "s", "lower"),
    ("evolution.remainders_s", "s", "lower"),
    ("energies.calls", "count", "lower"),
    ("energies.s", "s", "lower"),
    ("spectral.calls", "count", "lower"),
    ("analysis.hyperbolic_series_calls", "count", "lower"),
    ("analysis.hyperbolic_series_s", "s", "lower"),
    ("analysis.parabolic_gamma_series_s", "s", "lower"),
    ("analysis.checks_s", "s", "lower"),
    ("analysis.sweep_integrate_calls", "count", "lower"),
    ("analysis.sweep_self_s", "s", "lower"),
    ("analysis.lemma_generate_s", "s", "lower"),
    ("analysis.lemma_check_s", "s", "lower"),
    ("harness.emit_s", "s", "lower"),
    ("harness.bytes_written", "bytes", "lower"),
    ("harness.self_s", "s", "lower"),
    ("cli.config_s", "s", "lower"),
)

_EMIT = ("harness.emit_timeseries", "harness.emit_report", "harness._write_report")
_CONFIG = ("harness.config_from_dict", "harness.apply_override", "harness.load_config")


def per_layer_metrics(
    names: list[str], arrs: dict[str, np.ndarray], counts: Counter, bytes_written: int
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric; times are self times summed over spans."""
    table = layer_table(names, arrs)

    def pick(pred) -> list[dict]:
        return [row for name, row in table.items() if pred(name)]

    def self_s(pred) -> float:
        return sum(row["self_s"] for row in pick(pred))

    def calls(pred) -> int:
        return sum(row["calls"] for row in pick(pred))

    def named(*wanted):
        return lambda name: name in wanted

    def checks(name: str) -> bool:
        if name == "analysis.check_comparison_lemma":
            return False
        return name.startswith("analysis.check_") or name in (
            "analysis.assemble_psi3",
            "analysis.residual_series",
        )

    def harness_self(name: str) -> bool:
        return name.startswith("harness.") and name not in _EMIT + _CONFIG

    accepted = counts["evolution.steps_accepted"]
    rejected = counts["evolution.steps_rejected"]
    sweep = "analysis.epsilon_sweep_decay_error"
    out = {
        "evolution.integrate_parabolic_s": self_s(named("evolution.integrate.parabolic")),
        "evolution.integrate_parabolic_calls": calls(named("evolution.integrate.parabolic")),
        "evolution.integrate_hyperbolic_s": self_s(named("evolution.integrate.hyperbolic")),
        "evolution.integrate_hyperbolic_calls": calls(named("evolution.integrate.hyperbolic")),
        "evolution.solve_calls": counts["evolution.solve_calls"],
        "evolution.steps_accepted": accepted,
        "evolution.steps_rejected": rejected,
        "evolution.step_accept_ratio": accepted / (accepted + rejected) if accepted else 0.0,
        "evolution.rhs_evals": counts["evolution.rhs_evals"],
        "evolution.corrector_series_s": self_s(named("evolution.corrector_series")),
        "evolution.remainders_s": self_s(named("evolution.remainders")),
        "energies.calls": calls(lambda n: n.startswith("energies.")),
        "energies.s": self_s(lambda n: n.startswith("energies.")),
        "spectral.calls": counts["spectral.calls"],
        "analysis.hyperbolic_series_calls": calls(named("analysis.hyperbolic_series")),
        "analysis.hyperbolic_series_s": self_s(named("analysis.hyperbolic_series")),
        "analysis.parabolic_gamma_series_s": self_s(named("analysis.parabolic_gamma_series")),
        "analysis.checks_s": self_s(checks),
        "analysis.sweep_integrate_calls": sum(
            calls_within(names, arrs, f"evolution.integrate.{kind}", sweep)
            for kind in ("parabolic", "hyperbolic")
        ),
        "analysis.sweep_self_s": self_s(named(sweep)),
        "analysis.lemma_generate_s": self_s(named("analysis.synthetic_lemma_instance")),
        "analysis.lemma_check_s": self_s(named("analysis.check_comparison_lemma")),
        "harness.emit_s": self_s(named(*_EMIT)),
        "harness.bytes_written": bytes_written,
        "harness.self_s": self_s(harness_self),
        "cli.config_s": self_s(named("cli.main", *_CONFIG)),
    }
    return {name: out[name] for name, _, _ in PER_LAYER}
