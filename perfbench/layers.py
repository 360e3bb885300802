"""Where the tracer probes `mtt`, and the per-layer metrics built on it.

Each per-layer metric names the end-to-end metric and workload it should
move (`moves`), so a change to one layer can be checked against the
prediction.  Values are per filter step unless the name says per run:
`gpf.*` per GPF step, `particle.*` per PF step, everything else per step
of all the traced runs.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable

from tracer import COUNTER, SPAN, Probe, Tracer, self_time_by_name

def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _observe_step(args, kwargs, result) -> dict:
    return {"particles": len(result.particles), "degenerate": bool(result.degenerate_step)}


def _observe_fov(args, kwargs, result) -> dict:
    in_view, _ = result
    return {"in_view": len(in_view)}


def _observe_enumerate(args, kwargs, result) -> dict:
    return {"combinations": len(result), "prior_mass": sum(c.prior for c in result)}


def _observe_merge(args, kwargs, result) -> dict:
    before = _arg(args, kwargs, 0, "pset")
    return {"merges": len(before.particles) - len(result.particles)}


def _observe_birth_prune(args, kwargs, result) -> dict:
    pset = _arg(args, kwargs, 0, "pset")
    births = _arg(args, kwargs, 1, "births")
    return {
        "births": len(births),
        "prunes": len(pset.particles) + len(births) - len(result.particles),
    }


PROBES = [
    Probe(SPAN, "config.load", "mtt.cli", "load_config"),
    Probe(SPAN, "sim.run_experiment", "mtt.cli", "run_experiment"),
    Probe(SPAN, "cli.write", "mtt.cli", "write_csv"),
    Probe(SPAN, "cli.write", "mtt.cli", "write_particles_json"),
    Probe(SPAN, "cli.write", "mtt.cli", "write_manifest"),
    Probe(SPAN, "sim.truth", "mtt.sim", "generate_truth"),
    Probe(SPAN, "sim.metrics", "mtt.sim", "evaluate_metrics"),
    Probe(SPAN, "sensors.measure", "mtt.sim", "mean_sensor_measure"),
    Probe(SPAN, "sensors.measure", "mtt.sim", "grid_measure"),
    Probe(SPAN, "sensors.select", "mtt.sim", "select_cells"),
    Probe(COUNTER, "sensors.cell_contains", "mtt.sensors", "GridSensorModel.cell_contains",
          count_hits=True),
    Probe(SPAN, "gpf.step", "mtt.sim", "gpf_step", observe=_observe_step),
    Probe(SPAN, "gpf.predict", "mtt.gpf", "gpf_predict"),
    Probe(SPAN, "gpf.update", "mtt.gpf", "_mean_measurement_update"),
    Probe(SPAN, "gpf.update", "mtt.gpf", "grid_existence_update"),
    Probe(SPAN, "gpf.select_fov", "mtt.gpf", "select_fov_particles", observe=_observe_fov),
    Probe(SPAN, "gpf.enumerate", "mtt.gpf", "enumerate_combinations",
          observe=_observe_enumerate),
    Probe(SPAN, "gpf.combo_weight", "mtt.gpf", "combination_log_weight"),
    Probe(SPAN, "gpf.conditional_update", "mtt.gpf", "conditional_kf_update"),
    Probe(SPAN, "gpf.marginalize", "mtt.gpf", "marginalize_existence"),
    Probe(SPAN, "gpf.merge", "mtt.gpf", "merge_close_particles", observe=_observe_merge),
    Probe(SPAN, "gpf.birth_prune", "mtt.gpf", "grid_births"),
    Probe(SPAN, "gpf.birth_prune", "mtt.gpf", "birth_and_prune", observe=_observe_birth_prune),
    Probe(SPAN, "kalman.update", "mtt.gpf", "kf_update"),
    Probe(SPAN, "kalman.update", "mtt.sim", "kf_update"),
    Probe(SPAN, "kalman.predict", "mtt.sim", "kf_predict"),
    Probe(SPAN, "particle.step", "mtt.sim", "pf_step"),
    Probe(COUNTER, "particle.resample", "mtt.particle", "_RESAMPLERS[*]"),
    Probe(COUNTER, "gaussians.log_pdf", "mtt.sim", "log_pdf"),
    Probe(COUNTER, "gaussians.log_pdf", "mtt.gpf", "log_pdf"),
    Probe(COUNTER, "gaussians.cholesky", "mtt.gaussians", "chol_with_jitter"),
    Probe(COUNTER, "gaussians.cholesky", "mtt.kalman", "chol_with_jitter"),
    Probe(COUNTER, "gaussians.merge", "mtt.gpf", "moment_match_merge"),
    Probe(COUNTER, "gaussians.merge", "mtt.gpf", "mixture_moments"),
]


@dataclass
class TraceData:
    """One traced phase: the tracer plus what the benchmark knows of its runs."""

    tracer: Tracer
    runs: int
    steps: int  # filter steps of every traced run
    output_bytes: int  # bytes of every file the traced runs wrote
    wall_traced: float
    wall_untraced: float  # the same runs with no probes installed

    def __post_init__(self) -> None:
        self.self_s = self_time_by_name(self.tracer)
        self._by_name: dict[str, list] = {}
        for span in self.tracer.spans:
            self._by_name.setdefault(span.name, []).append(span)

    def spans(self, name: str) -> list:
        return self._by_name.get(name, [])

    def total_s(self, name: str) -> float:
        if name in self.tracer.counters:
            return self.tracer.counters[name].total
        return sum(s.end - s.start for s in self.spans(name))

    def calls(self, name: str) -> int:
        if name in self.tracer.counters:
            return self.tracer.counters[name].calls
        return len(self.spans(name))

    def attr_sum(self, name: str, key: str) -> float:
        return float(sum(s.attrs.get(key, 0) for s in self.spans(name)))

    def ms_pct(self, name: str, pct: int) -> float:
        return 1000.0 * percentile([s.end - s.start for s in self.spans(name)], pct)

    @property
    def gpf_steps(self) -> int:
        return self.calls("gpf.step")

    @property
    def pf_steps(self) -> int:
        return self.calls("particle.step")

    def layer_share(self, layer: str) -> float:
        track = self.total_s("cli.track")
        layer_s = sum(t for name, t in self.self_s.items() if name.split(".", 1)[0] == layer)
        return _div(layer_s, track)


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def percentile(values: list[float], pct: int) -> float:
    """Linear-interpolated percentile; 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: tuple[str, ...]  # "<end-to-end metric>@<workload>"
    needs: tuple[str, ...]  # probe names; the metric is absent if one is missing
    value: Callable[[TraceData], float] | None  # None: measured with -X importtime


ALL = ("grid_dense", "mean_combos", "baselines_1target")


def _per_run_ms(name: str) -> Callable[[TraceData], float]:
    return lambda d: 1000.0 * _div(d.total_s(name), d.runs)


def _per_step_ms(name: str) -> Callable[[TraceData], float]:
    return lambda d: 1000.0 * _div(d.total_s(name), d.steps)


def _per_gpf_step_ms(name: str) -> Callable[[TraceData], float]:
    return lambda d: 1000.0 * _div(d.total_s(name), d.gpf_steps)


def _per_gpf_step_attr(name: str, key: str) -> Callable[[TraceData], float]:
    return lambda d: _div(d.attr_sum(name, key), d.gpf_steps)


def _m(name, unit, better, moves, needs=(), value=None) -> LayerMetric:
    return LayerMetric(name, unit, better, tuple(moves), tuple(needs), value)


_GRID_MEAN = ("steps_per_s@grid_dense", "steps_per_s@mean_combos")
_MEAN = ("steps_per_s@mean_combos",)
_GRID = ("steps_per_s@grid_dense",)
_BASE = ("steps_per_s@baselines_1target",)
_GAUSS = ("steps_per_s@baselines_1target", "steps_per_s@mean_combos")

METRICS = [
    _m("config.load_ms", "ms", "lower", [f"setup_s@{w}" for w in ALL], ["config.load"],
       _per_run_ms("config.load")),
    _m("cli.import_ms", "ms", "lower", [f"setup_s@{w}" for w in ALL]),
    _m("sim.scipy_import_ms", "ms", "lower", [f"setup_s@{w}" for w in ALL]),
    _m("cli.write_ms", "ms", "lower",
       ["run_s_p50@grid_dense", "run_s_p50@baselines_1target", "peak_rss_mb@grid_dense"],
       ["cli.write"], _per_run_ms("cli.write")),
    _m("cli.output_bytes", "bytes", "lower",
       ["run_s_p50@grid_dense", "run_s_p50@baselines_1target", "peak_rss_mb@grid_dense"],
       [], lambda d: _div(d.output_bytes, d.runs)),
    _m("sim.truth_ms", "ms", "lower", ["run_s_p50@baselines_1target", *_GRID],
       ["sim.truth"], _per_run_ms("sim.truth")),
    _m("sim.metrics_ms", "ms", "lower", ["run_s_p50@baselines_1target", *_GRID],
       ["sim.metrics"], _per_run_ms("sim.metrics")),
    _m("sensors.measure_ms", "ms", "lower", [*_GRID, *_BASE], ["sensors.measure"],
       _per_step_ms("sensors.measure")),
    _m("sensors.select_ms", "ms", "lower", _GRID, ["sensors.select"],
       _per_step_ms("sensors.select")),
    _m("sensors.cell_contains_calls", "count", "lower", _GRID, ["sensors.cell_contains"],
       lambda d: _div(d.calls("sensors.cell_contains"), d.steps)),
    _m("sensors.cell_contains_hit_ratio", "ratio", "higher", _GRID, ["sensors.cell_contains"],
       lambda d: _div(d.tracer.counters["sensors.cell_contains"].hits,
                      d.calls("sensors.cell_contains"))),
    _m("gpf.step_ms_p50", "ms", "lower", _GRID_MEAN, ["gpf.step"],
       lambda d: d.ms_pct("gpf.step", 50)),
    _m("gpf.step_ms_p99", "ms", "lower", _GRID_MEAN, ["gpf.step"],
       lambda d: d.ms_pct("gpf.step", 99)),
    _m("gpf.predict_ms", "ms", "lower", _GRID_MEAN, ["gpf.step", "gpf.predict"],
       _per_gpf_step_ms("gpf.predict")),
    _m("gpf.update_ms", "ms", "lower", _GRID_MEAN, ["gpf.step", "gpf.update"],
       _per_gpf_step_ms("gpf.update")),
    _m("gpf.merge_ms", "ms", "lower", _GRID_MEAN, ["gpf.step", "gpf.merge"],
       _per_gpf_step_ms("gpf.merge")),
    _m("gpf.birth_prune_ms", "ms", "lower", _GRID_MEAN, ["gpf.step", "gpf.birth_prune"],
       _per_gpf_step_ms("gpf.birth_prune")),
    _m("gpf.particles", "count", "lower", _GRID_MEAN, ["gpf.step"],
       _per_gpf_step_attr("gpf.step", "particles")),
    _m("gpf.merges", "count", "lower", _GRID_MEAN, ["gpf.step", "gpf.merge"],
       _per_gpf_step_attr("gpf.merge", "merges")),
    _m("gpf.births", "count", "lower", _GRID_MEAN, ["gpf.step", "gpf.birth_prune"],
       _per_gpf_step_attr("gpf.birth_prune", "births")),
    _m("gpf.prunes", "count", "lower", _GRID_MEAN, ["gpf.step", "gpf.birth_prune"],
       _per_gpf_step_attr("gpf.birth_prune", "prunes")),
    _m("gpf.enumerate_ms", "ms", "lower", _MEAN, ["gpf.step", "gpf.enumerate"],
       _per_gpf_step_ms("gpf.enumerate")),
    _m("gpf.combo_weight_ms", "ms", "lower", _MEAN, ["gpf.step", "gpf.combo_weight"],
       _per_gpf_step_ms("gpf.combo_weight")),
    _m("gpf.conditional_update_ms", "ms", "lower", _MEAN,
       ["gpf.step", "gpf.conditional_update"], _per_gpf_step_ms("gpf.conditional_update")),
    _m("gpf.marginalize_ms", "ms", "lower", _MEAN, ["gpf.step", "gpf.marginalize"],
       _per_gpf_step_ms("gpf.marginalize")),
    _m("gpf.particles_in_view", "count", "lower", _MEAN, ["gpf.step", "gpf.select_fov"],
       _per_gpf_step_attr("gpf.select_fov", "in_view")),
    _m("gpf.combinations", "count", "lower", _MEAN, ["gpf.step", "gpf.enumerate"],
       _per_gpf_step_attr("gpf.enumerate", "combinations")),
    _m("gpf.conditional_updates", "count", "lower", _MEAN,
       ["gpf.step", "gpf.conditional_update"],
       lambda d: _div(d.calls("gpf.conditional_update"), d.gpf_steps)),
    _m("gpf.prior_mass_kept", "ratio", "higher", _MEAN, ["gpf.enumerate"],
       lambda d: _div(d.attr_sum("gpf.enumerate", "prior_mass"), d.calls("gpf.enumerate"))),
    _m("gpf.degenerate_steps", "count", "lower", _MEAN, ["gpf.step"],
       _per_gpf_step_attr("gpf.step", "degenerate")),
    _m("kalman.update_calls", "count", "lower", [*_MEAN, *_BASE], ["kalman.update"],
       lambda d: _div(d.calls("kalman.update"), d.steps)),
    _m("kalman.update_ms", "ms", "lower", [*_MEAN, *_BASE], ["kalman.update"],
       _per_step_ms("kalman.update")),
    _m("particle.step_ms_p50", "ms", "lower", _BASE, ["particle.step"],
       lambda d: d.ms_pct("particle.step", 50)),
    _m("particle.step_ms_p99", "ms", "lower", _BASE, ["particle.step"],
       lambda d: d.ms_pct("particle.step", 99)),
    _m("particle.resample_ratio", "ratio", "lower", _BASE,
       ["particle.step", "particle.resample"],
       lambda d: _div(d.calls("particle.resample"), d.pf_steps)),
    _m("gaussians.log_pdf_calls", "count", "lower", _GAUSS, ["gaussians.log_pdf"],
       lambda d: _div(d.calls("gaussians.log_pdf"), d.steps)),
    _m("gaussians.log_pdf_ms", "ms", "lower", _GAUSS, ["gaussians.log_pdf"],
       _per_step_ms("gaussians.log_pdf")),
    _m("gaussians.cholesky_calls", "count", "lower", _GAUSS, ["gaussians.cholesky"],
       lambda d: _div(d.calls("gaussians.cholesky"), d.steps)),
    _m("gaussians.merge_calls", "count", "lower", _GAUSS, ["gaussians.merge"],
       lambda d: _div(d.calls("gaussians.merge"), d.steps)),
    _m("trace_overhead_ratio", "ratio", "lower", [f"steps_per_s@{w}" for w in ALL], [],
       lambda d: _div(d.wall_traced, d.wall_untraced)),
    *(
        _m(f"{layer}.self_share", "ratio", "lower", moves, [],
           lambda d, layer=layer: d.layer_share(layer))
        for layer, moves in (
            ("config", [f"setup_s@{w}" for w in ALL]),
            ("cli", ["run_s_p50@baselines_1target", "run_s_p50@grid_dense"]),
            ("sim", ["run_s_p50@baselines_1target"]),
            ("sensors", _GRID),
            ("gpf", _GRID_MEAN),
            ("kalman", _MEAN),
            ("particle", _BASE),
            ("gaussians", _GAUSS),
        )
    ),
]


def layer_metrics(data: TraceData) -> dict[str, dict]:
    """name -> {"value", "unit"} for every traced metric, plus "absent" with
    the reason when a probe it needs could not be installed."""
    out = {}
    for metric in METRICS:
        if metric.value is None:
            continue
        reasons = [r for need in metric.needs for r in data.tracer.missing(need)]
        entry = {"value": None if reasons else float(metric.value(data)), "unit": metric.unit}
        if reasons:
            entry["absent"] = "; ".join(reasons)
        out[metric.name] = entry
    return out


def dominant(data: TraceData) -> tuple[str, float]:
    """The probe name with the largest self time, and its share of the runs."""
    name, seconds = max(data.self_s.items(), key=lambda item: item[1])
    return name, _div(seconds, data.total_s("cli.track"))
