"""Per-layer figures, timed from outside the program.

A traced pass does not go through ``main(argv)``.  For each op it calls the
public functions of each layer in the order the CLI handler reaches them,
and records every call as a span (name, start, end, parent, op id).  Spans
stay in memory and are written as JSON when the run ends.

The CLI's own work is timed the same way: ``cli.parse`` spans
``build_parser().parse_args(argv)`` and ``cli.format`` spans the handler's
formatting and printing step where the handler has one as a function
(``_dot_of_lattice``, ``_json_dump``, ``format_run``, then ``_emit``), with
stdout discarded.  ``trace.overhead_s`` is the time inside op spans that no
other span covers (the mirror's own glue and span bookkeeping).
"""

from __future__ import annotations

import io
import statistics
import time
import tracemalloc
from contextlib import contextmanager, redirect_stdout

import checks
from workloads import Op

# Layer spans: name -> metric.  ``perm_oracle.validate`` times the whole of
# differential_validate; perm_oracle.referee_s is derived from it.
TIMED_LAYERS = {
    "lattice_core.enumerate": "lattice_core.enumerate_s",
    "lattice_core.order": "lattice_core.order_s",
    "lattice_core.covers": "lattice_core.covers_s",
    "lattice_core.json": "lattice_core.json_s",
    "autgroup.search": "autgroup.search_s",
    "autgroup.tau": "autgroup.tau_s",
    "autgroup.induced": "autgroup.induced_s",
    "tower.run": "tower.run_s",
    "tower.verify": "tower.verify_s",
    "perm_oracle.group": "perm_oracle.group_s",
    "perm_oracle.normals": "perm_oracle.normals_s",
    "perm_oracle.poset": "perm_oracle.poset_s",
    "cli.parse": "cli.self_s",
    "cli.format": "cli.self_s",
}
COUNTS = (
    "lattice_core.elements",
    "lattice_core.edges",
    "autgroup.automorphisms",
    "tower.steps_verified",
    "perm_oracle.subgroups",
    "perm_oracle.pairs",
)
# Metric name -> unit, in the order the result prints them.
PER_LAYER = {
    **{m: "s" for m in TIMED_LAYERS.values()},
    "perm_oracle.referee_s": "s",
    "trace.overhead_s": "s",
    "lattice_core.enumerate_mb": "MB",
    **{c: "count" for c in COUNTS},
}


class Recorder:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.round = 0
        self._stack: list[int] = []
        self._op: str | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
                  "op": self._op, "round": self.round}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, op_id: str):
        self._op = op_id
        with self.span("op"):
            yield

    def count(self, name: str, k: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + k


class Mirror:
    """The CLI handlers' layer calls, one method per op kind."""

    def __init__(self, recorder: Recorder):
        # lattower is importable only once run.import_program has found it.
        import lattower.autgroup as autgroup
        import lattower.cli as cli
        import lattower.group_spec as group_spec
        import lattower.lattice_core as lattice_core
        import lattower.perm_oracle as perm_oracle
        import lattower.tower as tower

        self.r = recorder
        self.ag, self.cli, self.gs, self.lc = autgroup, cli, group_spec, lattice_core
        self.po, self.tw = perm_oracle, tower

    def run(self, op: Op, op_id: str) -> None:
        with self.r.op(op_id):
            if op.kind != "verify-tower":
                with self.r.span("cli.parse"):
                    self.cli.build_parser().parse_args(op.argv)
            getattr(self, op.kind.replace("-", "_"))(op)

    def _print(self, format_) -> None:
        """The handler's formatting and printing of its output, stdout discarded.

        Handlers that format one short line inline (enumerate as text, aut,
        lemmas) have no such step to call; their formatting is left out.
        """
        with self.r.span("cli.format"), redirect_stdout(io.StringIO()):
            self.cli._emit(format_(), None)

    def _enumerate(self, op: Op):
        spec = self.gs.parse_spec(op.spec)
        with self.r.span("lattice_core.enumerate"):
            lat = self.lc.enumerate_lattice(spec)
        self.r.count("lattice_core.elements", len(lat))
        return spec, lat

    def _order(self, lat, up: bool) -> None:
        with self.r.span("lattice_core.order"):
            lat.down_masks
            if up:
                lat.up_masks

    def _covers(self, lat):
        with self.r.span("lattice_core.covers"):
            a = lat.to_abstract()
            a.covers
        return a

    def enumerate(self, op: Op) -> None:
        self._enumerate(op)

    def enumerate_json(self, op: Op) -> None:
        _, lat = self._enumerate(op)
        self._order(lat, up=False)
        a = self._covers(lat)
        self.r.count("lattice_core.edges", len(a.covers))
        with self.r.span("lattice_core.json"):
            data = lat.to_json_dict()
        self._print(lambda: self.cli._json_dump(data))

    def hasse(self, op: Op) -> None:
        _, lat = self._enumerate(op)
        self._order(lat, up=False)
        a = self._covers(lat)
        self.r.count("lattice_core.edges", len(a.covers))
        self._print(lambda: self.cli._dot_of_lattice(lat))

    def aut(self, op: Op) -> None:
        spec, lat = self._enumerate(op)
        self._order(lat, up=True)
        a = self._covers(lat)
        with self.r.span("autgroup.search"):
            autos = self.ag.brute_force_automorphisms(a)
        self.r.count("autgroup.automorphisms", len(autos))
        with self.r.span("autgroup.tau"):
            # the slot permutations verify_product_formula visits
            taus = [self.ag.tau_on_lattice(sigma, lat) for sigma in self.ag._class_permutations(spec)]
        with self.r.span("autgroup.induced"):
            for phi in taus:
                self.ag.induced_permutation(phi, lat)

    def tower(self, op: Op) -> None:
        spec = self.gs.parse_spec(op.spec)
        with self.r.span("tower.run"):
            run = self.tw.run_tower(self.tw.StartNode(spec))
        self._print(lambda: self.tw.format_run(run))

    def verify_tower(self, op: Op) -> None:
        spec = self.gs.parse_spec(op.spec)
        with self.r.span("tower.run"):
            run = self.tw.run_tower(self.tw.StartNode(spec))
        with self.r.span("tower.verify"):
            for node in run.nodes:
                self.tw.verify_step_against_lattice(node)
        self.r.count("tower.steps_verified", len(run.nodes))

    def oracle_diff(self, op: Op) -> None:
        spec = self.gs.parse_spec(op.spec)
        with self.r.span("perm_oracle.group"):
            group = self.po.concrete_group(spec)
        with self.r.span("perm_oracle.normals"):
            normals = self.po.all_normal_subgroups(group)
        self.r.count("perm_oracle.subgroups", len(normals))
        with self.r.span("lattice_core.enumerate"):
            lat = self.lc.enumerate_lattice(spec)
        self.r.count("lattice_core.elements", len(lat))
        self._order(lat, up=True)
        with self.r.span("perm_oracle.validate"):
            report = self.po.differential_validate(spec, lattice=lat)
        self.r.count("perm_oracle.pairs", report.pairs_checked)
        self._print(lambda: self.cli._json_dump(report.to_json_dict()))

    def lemmas(self, op: Op) -> None:
        for degrees in self.po.LEMMA_GROUP_DEGREES.values():
            with self.r.span("perm_oracle.group"):
                group = self.po.ConcreteGroup(degrees)
            with self.r.span("perm_oracle.normals"):
                normals = self.po.all_normal_subgroups(group)
            self.r.count("perm_oracle.subgroups", len(normals))
            with self.r.span("perm_oracle.poset"):
                poset = self.po.normal_subgroup_poset(group, normals)
            with self.r.span("autgroup.search"):
                autos = self.ag.brute_force_automorphisms(poset)
            self.r.count("autgroup.automorphisms", len(autos))


def summarise_pass(spans: list[dict]) -> dict[str, float]:
    """Per-layer seconds of one traced pass."""
    out = {m: 0.0 for m in TIMED_LAYERS.values()}
    out.update({"perm_oracle.referee_s": 0.0, "trace.overhead_s": 0.0})
    by_op: dict[str, dict[str, float]] = {}
    for s in spans:
        per = by_op.setdefault(s["op"], {})
        per[s["name"]] = per.get(s["name"], 0.0) + s["end"] - s["start"]
    for per in by_op.values():
        for name, seconds in per.items():
            if name in TIMED_LAYERS:
                out[TIMED_LAYERS[name]] += seconds
        if "perm_oracle.validate" in per:
            # differential_validate builds its own group and normal subgroups
            referee = per["perm_oracle.validate"]
            referee -= per["perm_oracle.group"] + per["perm_oracle.normals"]
            out["perm_oracle.referee_s"] += referee
        out["trace.overhead_s"] += per["op"] - sum(v for k, v in per.items() if k != "op")
    return out


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}


def enumerate_peak_mb(ops: list[Op]) -> float:
    """tracemalloc peak of enumerate_lattice on the largest lattice the ops enumerate.

    tracemalloc slows enumeration several times over, so it runs once, after
    the timed rounds, and only on the largest spec.
    """
    from lattower.group_spec import parse_spec
    from lattower.lattice_core import enumerate_lattice

    enumerated = [op for op in ops if op.kind not in ("tower", "lemmas")]
    largest = max(enumerated, key=lambda op: checks.census(op.degrees)["total"])
    spec = parse_spec(largest.spec)
    tracemalloc.start()
    try:
        enumerate_lattice(spec)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
