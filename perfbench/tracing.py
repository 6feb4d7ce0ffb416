"""Per-layer tracing by wrapping each ncgames module's public boundary.

A ``Tracer`` replaces the traced functions with wrappers for the length of
one traced pass and puts the originals back afterwards.  A function is
replaced under every name any ncgames module binds it to (``from .graph
import reachable`` copies the reference into the importer), so calls from
inside the package are seen as well as calls from the CLI.

Hot calls are aggregated, not recorded one span per call: each span name
keeps a call count, a total time and a self time (total minus the time of
traced spans called inside it).  ``pgain`` is only counted, because
timing 6M calls of a sub-microsecond function would measure the timer.
"""
from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter
from types import ModuleType


class Tracer:
    def __init__(self, nc: ModuleType):
        self.nc = nc
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack = [[0.0]]  # per open span: time spent in traced children
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, on_call=None, on_result=None, on_error=None):
        stack, calls, total, self_time = self._stack, self.calls, self.total, self.self_time

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - children[0]
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing and removing -------------------------------------------

    def _modules(self):
        prefix = self.nc.__name__
        return [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == prefix or k.startswith(prefix + "."))]

    def _replace_everywhere(self, fn, wrapper) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _replace(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        nc, counts = self.nc, self.counts

        def on_parse(args):
            counts["graph.parse_bytes"] += len(args[0].encode("utf-8"))

        def on_explore(result):
            layers, _mask_gain = result
            sizes = [len(members) for members in layers.values()]
            counts["solver.states"] += sum(sizes)
            counts["solver.layers"] += len(sizes)
            counts["solver.max_layer"] = max(counts["solver.max_layer"], max(sizes))

        def on_extract_error(exc):
            if isinstance(exc, nc.errors.ExtractionError):
                counts["witness.failed_extractions"] += 1

        def on_execute(result):
            counts["testplan.visits"] += result[2]

        def on_plan(result):
            covered: set = set()
            for record in result.log:
                if not covered.issuperset(record.realized):
                    counts["testplan.useful_execs"] += 1
                covered.update(record.realized)
            counts["testplan.plan_execs"] += len(result.log)

        s = self.span
        plan = [
            (nc.cli.run_cli, s("cli", nc.cli.run_cli)),
            (nc.graph.parse_game_graph, s("graph.parse", nc.graph.parse_game_graph, on_call=on_parse)),
            (nc.graph.reachable, s("graph.reachable", nc.graph.reachable)),
            (nc.solver.solve_mcg, s("solver.solve", nc.solver.solve_mcg)),
            (nc.solver.solve_mcg_restart, s("solver.restart", nc.solver.solve_mcg_restart)),
            (nc.reductions.parse_dimacs, s("reductions.parse_dimacs", nc.reductions.parse_dimacs)),
            (nc.reductions.sat_to_ncgame, s("reductions.sat_to_ncgame", nc.reductions.sat_to_ncgame)),
            (nc.witness.extract_witness,
             s("witness.extract", nc.witness.extract_witness, on_error=on_extract_error)),
            (nc.witness.check_witness, s("witness.check", nc.witness.check_witness)),
            (nc.witness.parse_witness, s("witness.parse", nc.witness.parse_witness)),
            (nc.play.best_response_gain, s("play.best_response", nc.play.best_response_gain)),
            (nc.testplan.generate_static_suite, s("testplan.suite_gen", nc.testplan.generate_static_suite)),
            (nc.testplan.nt_plan, s("testplan.nt_plan", nc.testplan.nt_plan, on_result=on_plan)),
            (nc.testplan.pgain, self.counter("testplan.pgain", nc.testplan.pgain)),
            (nc.testplan.execute_case, s("testplan.execute", nc.testplan.execute_case, on_result=on_execute)),
            (nc.testplan.random_walk, s("testplan.random_walk", nc.testplan.random_walk)),
            (nc.testplan.static_once, s("testplan.static_once", nc.testplan.static_once)),
            (nc.experiments.run_one, s("experiments.run_one", nc.experiments.run_one)),
            (nc.experiments.run_experiment, s("experiments.run_experiment", nc.experiments.run_experiment)),
            (nc.experiments.emit_csv, s("experiments.emit_csv", nc.experiments.emit_csv)),
        ]
        try:
            for fn, wrapper in plan:
                self._replace_everywhere(fn, wrapper)
            arena = nc.solver._Arena
            self._replace(arena, "explore", s("solver.explore", arena.explore, on_result=on_explore))
            # witness calls solve_mcg through its own imported name: one more span
            # around the (already traced) solver entry point
            self._replace(nc.witness, "solve_mcg", s("witness.extract_solve", nc.witness.solve_mcg))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of everything traced since construction."""
        c, t, own, n = self.calls, self.total, self.self_time, self.counts
        solver_s = t["solver.solve"] + t["solver.restart"]
        return {
            "cli.calls": c["cli"],
            "cli.self_s": own["cli"],
            "graph.parse_calls": c["graph.parse"],
            "graph.parse_s": t["graph.parse"],
            "graph.parse_bytes": n["graph.parse_bytes"],
            "graph.reachable_calls": c["graph.reachable"],
            "graph.reachable_s": t["graph.reachable"],
            "solver.solve_calls": c["solver.solve"],
            "solver.solve_s": t["solver.solve"],
            "solver.restart_calls": c["solver.restart"],
            "solver.restart_s": t["solver.restart"],
            "solver.explore_s": t["solver.explore"],
            "solver.fixpoint_s": own["solver.solve"] + own["solver.restart"],
            "solver.states": n["solver.states"],
            "solver.layers": n["solver.layers"],
            "solver.max_layer": n["solver.max_layer"],
            "solver.states_per_s": n["solver.states"] / solver_s if solver_s else 0.0,
            "reductions.calls": c["reductions.parse_dimacs"] + c["reductions.sat_to_ncgame"],
            "reductions.parse_dimacs_s": t["reductions.parse_dimacs"],
            "reductions.sat_to_ncgame_s": t["reductions.sat_to_ncgame"],
            "witness.extract_calls": c["witness.extract"],
            "witness.extract_s": t["witness.extract"],
            "witness.extract_solve_calls": c["witness.extract_solve"],
            "witness.extract_solve_s": t["witness.extract_solve"],
            "witness.subset_s": own["witness.extract"],
            "witness.check_s": t["witness.check"],
            "witness.parse_s": t["witness.parse"],
            "witness.failed_extractions": n["witness.failed_extractions"],
            "play.best_response_calls": c["play.best_response"],
            "play.best_response_s": t["play.best_response"],
            "testplan.suite_gen_s": t["testplan.suite_gen"],
            "testplan.nt_plan_calls": c["testplan.nt_plan"],
            "testplan.nt_plan_s": t["testplan.nt_plan"],
            "testplan.select_s": own["testplan.nt_plan"],
            "testplan.pgain_calls": c["testplan.pgain"],
            "testplan.execute_calls": c["testplan.execute"],
            "testplan.execute_s": t["testplan.execute"],
            "testplan.visits": n["testplan.visits"],
            "testplan.useful_exec_ratio": (
                n["testplan.useful_execs"] / n["testplan.plan_execs"] if n["testplan.plan_execs"] else 0.0
            ),
            "testplan.baseline_s": t["testplan.random_walk"] + t["testplan.static_once"],
            "experiments.trials": c["experiments.run_one"],
            "experiments.run_one_s": t["experiments.run_one"],
            "experiments.stats_s": own["experiments.run_experiment"],
            "experiments.csv_s": t["experiments.emit_csv"],
        }

