"""Spans around the calls into graphclean's layers, for the traced run.

`Tracer.install` replaces each public function listed in LAYERS, at
every module attribute through which the package reaches it (for
example `cli.brush_number_dp`, `solver.brush_number_dp` and
`constructions.brush_number_dp`), by a wrapper that records a span:
name, parent, start, end, the operation it belongs to and, for the
solvers, the states or nodes the call reports.  Nothing in graphclean's
files changes.  Spans stay in memory and are written out when the run
ends.

A span's self time is its duration minus that of its direct children,
so the self times of one operation add up to the time of its root span,
`cli.main`.  The per-layer metrics are the run's sums of these self
times and counts divided by its rounds: the figures of one round.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

LAYERS = {
    "graphclean.solver": {
        "brush_number_dp": "solver.dp",
        "brush_number_bnb": "solver.bnb",
        "check_box_conjecture": "solver.box",
    },
    "graphclean.graphs": {
        "cartesian_product": "graphs.cartesian_product",
        "parse_edge_list": "graphs.parse_edge_list",
    },
    "graphclean.cleaning": {
        "parse_sequence": "cleaning.parse",
        "parse_brush_config": "cleaning.parse",
        "simulate": "cleaning.simulate",
        "can_clean": "cleaning.can_clean",
        "minimal_config_for_sequence": "cleaning.minimal_config",
    },
    "graphclean.constructions": {
        "reduce_torus": "constructions.reduce_torus",
        "combine_torus_rows": "constructions.combine_torus_rows",
        "classify_boundary_pairs": "constructions.clique_layer",
        "delete_clique_layer": "constructions.clique_layer",
        **{
            f"{family}_{part}": "constructions.config"
            for family in ("path", "cycle", "clique", "torus", "km_pn")
            for part in ("config", "sequence")
        },
        "km_pn_config_odd": "constructions.config",
    },
}
# modules whose globals may hold a reference to a function above
CALLERS = [
    "graphclean", "graphclean.cli", "graphclean.solver", "graphclean.graphs",
    "graphclean.cleaning", "graphclean.constructions",
]
ROOT = "cli.main"
WORK = {"solver.dp", "solver.bnb"}  # spans that record result.states


class Tracer:
    def __init__(self):
        # each span: [name, parent index or -1, start, end, op, work]
        self.spans = []
        self._open = []
        self.op = None

    def wrap(self, name, fn):
        spans, stack = self.spans, self._open
        counts_work = name in WORK

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, self.op, 0]
            spans.append(span)
            stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counts_work:
                span[5] = result.states
            return result

        return traced

    def install(self):
        """Wrap every listed function wherever the package refers to it."""
        callers = [importlib.import_module(m) for m in CALLERS]
        for module_name, names in LAYERS.items():
            home = importlib.import_module(module_name)
            for attr, span_name in names.items():
                original = getattr(home, attr)
                traced = self.wrap(span_name, original)
                for module in callers:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, traced)

    def dump(self, path):
        with open(path, "w") as fh:
            for name, parent, start, end, op, work in self.spans:
                record = {"name": name, "parent": parent, "start": start, "end": end, "op": op}
                if work:
                    record["work"] = work
                fh.write(json.dumps(record) + "\n")


def layer_metrics(spans, rounds):
    """The per-layer metrics of one round: run totals over the rounds."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, op, work in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(lambda: [0.0, 0, 0])  # self seconds, calls, work
    for index, (name, parent, start, end, op, work) in enumerate(spans):
        figure = totals[name]
        figure[0] += end - start - child_time[index]
        figure[1] += 1
        figure[2] += work
    names = sorted({n for layer in LAYERS.values() for n in layer.values()})
    metrics = {f"{n}_s": totals[n][0] / rounds for n in names}
    dp, bnb = totals["solver.dp"], totals["solver.bnb"]
    # every round makes the same calls, so the counts divide exactly
    metrics.update({
        "cli.self_s": totals[ROOT][0] / rounds,
        "solver.dp_calls": dp[1] // rounds,
        "solver.dp_states": dp[2] // rounds,
        "solver.dp_states_per_s": dp[2] / dp[0] if dp[1] else 0.0,
        "solver.bnb_nodes": bnb[2] // rounds,
        "solver.bnb_nodes_per_s": bnb[2] / bnb[0] if bnb[1] else 0.0,
        "graphs.cartesian_product_calls": totals["graphs.cartesian_product"][1] // rounds,
        "cleaning.simulate_calls": totals["cleaning.simulate"][1] // rounds,
    })
    return metrics
