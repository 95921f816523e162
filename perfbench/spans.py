"""Span tracing of one CLI call, wrapped around the program from outside.

``Tracer.install`` replaces the public functions that the per-layer
metrics name with wrappers that record a span (name, start, end, parent
index) in memory, and a few others with plain call counters. Nothing in
the program is edited: module globals, and the names other ``igwvmp``
modules imported them under, are rebound in the running interpreter.
``Tracer.dump`` writes the spans out once the call has finished, and
``layer_metrics`` turns a dump into the per-layer metrics.
"""

import dataclasses
import functools
import json
import sys
import time

FACTORS = (
    "cov_aux_prior",
    "noise_aux_prior",
    "cov_conditional",
    "noise_conditional",
    "coefficient_prior",
    "likelihood",
    "scale_mix",
    "df_prior",
)
GIBBS_BLOCKS = (
    "draw_scale_mixture",
    "draw_df_half",
    "draw_noise_variance",
    "draw_noise_auxiliary",
    "draw_random_cov",
    "draw_cov_auxiliary",
    "draw_coefficients",
)
# metric name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "tlmm.extract_gaussian.calls_per_sweep": "count",
    "tlmm.extract_gaussian.ms_per_sweep": "ms",
    "tlmm.build_graph.ms": "ms",
    "tlmm.summarize_graph.ms": "ms",
    "fragments.t_likelihood_update.calls_per_sweep": "count",
    "fragments.t_likelihood_update.ms_per_sweep": "ms",
    "fragments.gaussian_penalization_update.ms_per_sweep": "ms",
    "fragments.iterated_igw_update.ms_per_sweep": "ms",
    "matops.duplication.computed_mb": "MB",
    "matops.is_spd.calls": "count",
    "graph_engine.sweeps": "count",
    **{f"graph_engine.factor.{f}.ms_per_sweep": "ms" for f in FACTORS},
    "graph_engine.self_ms_per_sweep": "ms",
    "distributions.moonrock_grid.builds": "count",
    "distributions.moonrock_grid.ms": "ms",
    "distributions.moonrock_sample.ms": "ms",
    "distributions.igw_sample.ms": "ms",
    "mcmc.gibbs_fit.s": "s",
    **{f"mcmc.{b}.us_per_iter": "us" for b in GIBBS_BLOCKS},
    "mcmc.summarize.s": "s",
    "cli.read_data_csv.ms": "ms",
    "trace.overhead_s": "s",
}

RUN = "graph_engine.run"


def _rebind(old, new):
    """Point every ``igwvmp`` module global bound to ``old`` at ``new``, so
    that names brought in by ``from .x import f`` are wrapped too."""
    for name, module in list(sys.modules.items()):
        if name == "igwvmp" or name.startswith("igwvmp."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


class Tracer:
    """Spans and counters of one interpreter's CLI call, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self.duplication_dims = set()
        self._open = []

    def timed(self, name, fn):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap the program's layers; call once, after ``igwvmp.cli`` is
        imported and before the CLI call."""
        from igwvmp import cli, distributions, fragments, matops, mcmc, tlmm
        from igwvmp.graph_engine import FactorGraph

        def span(module, attr):
            old = getattr(module, attr)
            _rebind(old, self.timed(f"{module.__name__.split('.')[-1]}.{attr}", old))

        span(cli, "read_data_csv")
        for attr in ("extract_gaussian", "summarize_graph"):
            span(tlmm, attr)
        for attr in ("t_likelihood_update", "gaussian_penalization_update", "iterated_igw_update"):
            span(fragments, attr)
        for attr in ("moonrock_sample", "igw_sample"):
            span(distributions, attr)
        for attr in ("gibbs_fit", "summarize", *GIBBS_BLOCKS):
            span(mcmc, attr)

        # factors are closures made inside build_graph: time each update of
        # the graph it returns
        build_graph = tlmm.build_graph

        def traced_build_graph(*args, **kwargs):
            graph = build_graph(*args, **kwargs)
            for name, factor in list(graph.factors.items()):
                update = self.timed(f"graph_engine.factor.{name}", factor.update)
                graph.factors[name] = dataclasses.replace(factor, update=update)
            return graph

        _rebind(build_graph, self.timed("tlmm.build_graph", traced_build_graph))

        duplication = matops.duplication

        def recorded_duplication(d):
            self.duplication_dims.add(int(d))
            return duplication(d)

        _rebind(duplication, recorded_duplication)
        _rebind(matops.is_spd, self.counted("matops.is_spd.calls", matops.is_spd))

        FactorGraph.run = self.timed(RUN, FactorGraph.run)
        FactorGraph.sweep = self.counted("graph_engine.sweeps", FactorGraph.sweep)
        grid = distributions._MoonRockGrid
        grid.__init__ = self.timed("distributions.moonrock_grid", grid.__init__)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "counts": self.counts,
                    "duplication_dims": sorted(self.duplication_dims),
                },
                fh,
            )


def self_times(spans):
    """Per span: (inclusive seconds, self seconds). Self time is the span's
    duration minus the part its child spans cover."""
    inclusive = [end - start for _, start, end, _ in spans]
    own = list(inclusive)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            own[parent] -= inclusive[i]
    return inclusive, own


def layer_metrics(dump):
    """Per-layer metrics of one traced call (see README.md for definitions).

    Timings are inclusive span times; ``per_sweep`` ones count only spans
    nested in ``FactorGraph.run``. ``graph_engine.self_ms_per_sweep`` is the
    engine's self time: run time not spent inside a factor update.
    """
    spans = dump["spans"]
    inclusive, own = self_times(spans)
    in_run = [False] * len(spans)
    total, total_in_run, calls, calls_in_run = {}, {}, {}, {}
    for i, (name, _, _, parent) in enumerate(spans):
        in_run[i] = parent >= 0 and (spans[parent][0] == RUN or in_run[parent])
        total[name] = total.get(name, 0.0) + inclusive[i]
        calls[name] = calls.get(name, 0) + 1
        if in_run[i]:
            total_in_run[name] = total_in_run.get(name, 0.0) + inclusive[i]
            calls_in_run[name] = calls_in_run.get(name, 0) + 1
    sweeps = dump["counts"]["graph_engine.sweeps"]
    iters = calls.get("mcmc.draw_coefficients", 0)

    def calls_per_sweep(name):
        return calls_in_run.get(name, 0) / sweeps

    def ms_per_sweep(name):
        return 1e3 * total_in_run.get(name, 0.0) / sweeps

    def ms(name):
        return 1e3 * total.get(name, 0.0)

    def us_per_iter(name):
        return 1e6 * total.get(name, 0.0) / iters if iters else 0.0

    # D_d is d^2 x d(d+1)/2 float64, built once per distinct d (cached)
    duplication_bytes = sum(d * d * d * (d + 1) // 2 * 8 for d in dump["duplication_dims"])
    engine_self = sum(o for (name, *_), o in zip(spans, own) if name == RUN)
    return {
        "tlmm.extract_gaussian.calls_per_sweep": calls_per_sweep("tlmm.extract_gaussian"),
        "tlmm.extract_gaussian.ms_per_sweep": ms_per_sweep("tlmm.extract_gaussian"),
        "tlmm.build_graph.ms": ms("tlmm.build_graph"),
        "tlmm.summarize_graph.ms": ms("tlmm.summarize_graph"),
        "fragments.t_likelihood_update.calls_per_sweep": calls_per_sweep("fragments.t_likelihood_update"),
        "fragments.t_likelihood_update.ms_per_sweep": ms_per_sweep("fragments.t_likelihood_update"),
        "fragments.gaussian_penalization_update.ms_per_sweep": ms_per_sweep(
            "fragments.gaussian_penalization_update"
        ),
        "fragments.iterated_igw_update.ms_per_sweep": ms_per_sweep("fragments.iterated_igw_update"),
        "matops.duplication.computed_mb": duplication_bytes / 1e6,
        "matops.is_spd.calls": dump["counts"]["matops.is_spd.calls"],
        "graph_engine.sweeps": sweeps,
        **{f"graph_engine.factor.{f}.ms_per_sweep": ms_per_sweep(f"graph_engine.factor.{f}") for f in FACTORS},
        "graph_engine.self_ms_per_sweep": 1e3 * engine_self / sweeps,
        "distributions.moonrock_grid.builds": calls.get("distributions.moonrock_grid", 0),
        "distributions.moonrock_grid.ms": ms("distributions.moonrock_grid"),
        "distributions.moonrock_sample.ms": ms("distributions.moonrock_sample"),
        "distributions.igw_sample.ms": ms("distributions.igw_sample"),
        "mcmc.gibbs_fit.s": total.get("mcmc.gibbs_fit", 0.0),
        **{f"mcmc.{b}.us_per_iter": us_per_iter(f"mcmc.{b}") for b in GIBBS_BLOCKS},
        "mcmc.summarize.s": total.get("mcmc.summarize", 0.0),
        "cli.read_data_csv.ms": ms("cli.read_data_csv"),
    }


def self_time_ranking(dump, top=12):
    """Span names by total self time, largest first, in seconds."""
    _, own = self_times(dump["spans"])
    by_name = {}
    for (name, *_), o in zip(dump["spans"], own):
        by_name[name] = by_name.get(name, 0.0) + o
    ranked = sorted(by_name.items(), key=lambda kv: -kv[1])[:top]
    return [[name, round(s, 6)] for name, s in ranked]
