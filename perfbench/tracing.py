"""In-memory spans around the public functions of each package module.

Every wrapper is installed where the name is looked up at call time, which
is not always where it is defined: `analysis` binds the engine entry points
at import, `cli` binds the analysis and parser functions, and the engines
bind `encode_siphon` and `blocking_clause`. A wrapper installed only in the
defining module would lose those spans without any error, so the patch
table names every importing module. `Tracer.uninstall` puts every original
back and checks that it did.
"""

import time
from collections import defaultdict

# Layers that own spans. `search` has none: its budget clock runs inside the
# engines' self time. `bench` is the benchmark's own glue around the calls.
LAYERS = ("generators", "reactions", "pnml", "net", "encoding", "sat", "branch_bound",
          "analysis", "cli")

# (module, attribute, span name). A dotted attribute is a method on a class.
PATCHES = (
    ("siphons.generators", "gen_chain", "generators.gen_chain"),
    ("siphons.generators", "gen_random_3sat", "generators.gen_random_3sat"),
    ("siphons.generators", "gen_3sat_reduction", "generators.gen_3sat_reduction"),
    ("siphons.generators", "gen_random_net", "generators.gen_random_net"),
    ("siphons.reactions", "parse_reactions", "reactions.parse"),
    ("siphons.cli", "parse_reactions", "reactions.parse"),
    ("siphons.reactions", "export_reactions", "reactions.export"),
    ("siphons.pnml", "parse_pnml", "pnml.parse"),
    ("siphons.cli", "parse_pnml", "pnml.parse"),
    ("siphons.pnml", "export_pnml", "pnml.export"),
    ("siphons.net", "PetriNet.is_siphon", "net.is_siphon"),
    ("siphons.net", "PetriNet.dual", "net.dual"),
    ("siphons.sat", "encode_siphon", "encoding.encode_siphon"),
    ("siphons.branch_bound", "encode_siphon", "encoding.encode_siphon"),
    ("siphons.sat", "blocking_clause", "encoding.blocking_clause"),
    ("siphons.branch_bound", "blocking_clause", "encoding.blocking_clause"),
    ("siphons.sat", "SatSolver.solve", "sat.solve"),
    ("siphons.sat", "SatSolver.add_clause", "sat.add_clause"),
    ("siphons.sat", "SatSolver.__init__", None),
    ("siphons.analysis", "enumerate_minimal_sat", "sat.enumerate"),
    ("siphons.branch_bound", "Propagator.decide", "branch_bound.decide"),
    ("siphons.branch_bound", "Propagator.backtrack", "branch_bound.backtrack"),
    ("siphons.branch_bound", "Propagator.add_clause", "branch_bound.add_clause"),
    ("siphons.analysis", "enumerate_minimal_bb", "branch_bound.enumerate"),
    ("siphons.analysis", "enumerate_minimal_siphons", "analysis.enumerate_siphons"),
    ("siphons.cli", "enumerate_minimal_siphons", "analysis.enumerate_siphons"),
    ("siphons.cli", "enumerate_minimal_traps", "analysis.enumerate_traps"),
    ("siphons.cli", "siphon_trap_report", "analysis.report"),
    ("siphons.analysis", "max_trap_within", "analysis.max_trap"),
    ("siphons.cli", "main", "cli.main"),
    ("siphons.cli", "build_parser", "cli.build_parser"),
)


def _owner(modules, module, attr):
    owner = modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans as parallel lists (name, start, end, parent), plus counters."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = [-1]
        self.counts = defaultdict(float)
        self.solvers = []
        self._installed = []

    # -- recording ----------------------------------------------------------

    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(i)
        return i

    def close(self, i):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn):
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return traced

    # -- patching -----------------------------------------------------------

    def _wrapper(self, name, fn):
        if name is None:  # SatSolver.__init__: keep each solver for its counters
            def init(solver, *args, **kwargs):
                fn(solver, *args, **kwargs)
                self.solvers.append(solver)
            return init
        if name == "sat.solve":
            solve = self.span("sat.solve", fn)
            minimize = self.span("sat.minimize_solve", fn)

            def solve_or_minimize(solver, assumptions=(), budget=None):
                run = minimize if assumptions else solve
                return run(solver, assumptions=assumptions, budget=budget)
            return solve_or_minimize
        if name == "branch_bound.decide":
            counts = self.counts

            def decide(prop, var, value):
                before = prop.num_assigned
                try:
                    return fn(prop, var, value)
                finally:
                    counts["branch_bound.propagations"] += prop.num_assigned - before
            return self.span(name, decide)
        if name == "encoding.encode_siphon":
            counts = self.counts

            def encode(net):
                formula, varmap = fn(net)
                counts["encoding.clauses"] += len(formula.clauses)
                return formula, varmap
            return self.span(name, encode)
        if name in ("sat.enumerate", "branch_bound.enumerate"):
            engine = name.split(".")[0]
            counts = self.counts

            def enumerate_(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[f"{engine}.enumerations"] += 1
                counts[f"{engine}.sets"] += len(result.sets)
                counts[f"{engine}.solve_calls"] += result.stats.solve_calls
                counts[f"{engine}.decisions"] += result.stats.decisions
                counts[f"{engine}.conflicts"] += result.stats.conflicts
                counts["search.timed_out"] += result.stats.timed_out
                return result
            return self.span(name, enumerate_)
        return self.span(name, fn)

    def install(self, modules):
        """Wrap every entry of PATCHES; `modules` maps module names to modules."""
        wrapped = {}
        for module, attr, name in PATCHES:
            owner, key = _owner(modules, module, attr)
            original = getattr(owner, key)
            if id(original) not in wrapped:
                wrapped[id(original)] = self._wrapper(name, original)
            setattr(owner, key, wrapped[id(original)])
            self._installed.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        for owner, key, original in self._installed:
            if getattr(owner, key) is not original:
                raise RuntimeError(f"could not restore {key}")
        self._installed.clear()

    # -- reading ------------------------------------------------------------

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def totals(self):
        """Per span name: [calls, total seconds, self seconds]."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, own in zip(self.names, self.starts, self.ends,
                                          self.self_times()):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += own
        return out

    def write(self, path):
        """One span per line: id, parent id, name, start and end in microseconds."""
        base = self.starts[0] if self.starts else 0.0
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart_us\tend_us\n")
            for i, (name, start, end, parent) in enumerate(
                    zip(self.names, self.starts, self.ends, self.parents)):
                out.write(f"{i}\t{parent}\t{name}\t{(start - base) * 1e6:.1f}\t"
                          f"{(end - base) * 1e6:.1f}\n")


def layer_metrics(tracer, wall_s, operations):
    """Per-layer metrics of one traced run whose root spans cover `wall_s`."""
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def ms(name, column=1):
        return totals.get(name, (0, 0.0, 0.0))[column] * 1000.0

    solve_s = (ms("sat.solve") + ms("sat.minimize_solve")) / 1000.0
    propagations = sum(s.propagations for s in tracer.solvers)
    bb_sets = counts["branch_bound.sets"]
    metrics = {
        "generators.ms": (sum(row[1] for name, row in totals.items()
                              if name.startswith("generators.")) * 1000.0, "ms"),
        "reactions.parse_ms": (ms("reactions.parse"), "ms"),
        "pnml.parse_ms": (ms("pnml.parse"), "ms"),
        "reactions.parse_calls": (calls("reactions.parse"), "count"),
        "pnml.parse_calls": (calls("pnml.parse"), "count"),
        "net.is_siphon_calls": (calls("net.is_siphon"), "count"),
        "net.is_siphon_ms": (ms("net.is_siphon"), "ms"),
        "net.dual_ms": (ms("net.dual"), "ms"),
        "encoding.encode_ms": (ms("encoding.encode_siphon"), "ms"),
        "encoding.clauses": (counts["encoding.clauses"], "count"),
        "encoding.blocking_clause_calls": (calls("encoding.blocking_clause"), "count"),
        "sat.solve_calls": (calls("sat.solve") + calls("sat.minimize_solve"), "count"),
        "sat.solve_ms": (solve_s * 1000.0, "ms"),
        "sat.minimize_solve_ms": (ms("sat.minimize_solve"), "ms"),
        "sat.add_clause_ms": (ms("sat.add_clause"), "ms"),
        "sat.conflicts": (sum(s.conflicts for s in tracer.solvers), "count"),
        "sat.decisions": (sum(s.decisions for s in tracer.solvers), "count"),
        "sat.propagations": (propagations, "count"),
        "sat.props_per_s": (propagations / solve_s if solve_s else 0.0, "1/s"),
        "sat.sets_per_solve": (counts["sat.sets"] / counts["sat.solve_calls"]
                               if counts["sat.solve_calls"] else 0.0, "ratio"),
        "sat.enum_self_ms": (ms("sat.enumerate", 2), "ms"),
        "branch_bound.decide_calls": (calls("branch_bound.decide"), "count"),
        "branch_bound.decide_ms": (ms("branch_bound.decide"), "ms"),
        "branch_bound.backtrack_ms": (ms("branch_bound.backtrack"), "ms"),
        "branch_bound.add_clause_ms": (ms("branch_bound.add_clause"), "ms"),
        "branch_bound.propagations": (counts["branch_bound.propagations"], "count"),
        "branch_bound.decisions_per_set": (counts["branch_bound.decisions"] / bb_sets
                                           if bb_sets else 0.0, "ratio"),
        "branch_bound.conflicts_per_set": (counts["branch_bound.conflicts"] / bb_sets
                                           if bb_sets else 0.0, "ratio"),
        "branch_bound.enum_self_ms": (ms("branch_bound.enumerate", 2), "ms"),
        "search.timed_out": (counts["search.timed_out"], "count"),
        "analysis.enumerations_per_request": (
            (counts["sat.enumerations"] + counts["branch_bound.enumerations"]) / operations
            if operations else 0.0, "ratio"),
        "analysis.report_ms": (ms("analysis.report"), "ms"),
        "analysis.max_trap_ms": (ms("analysis.max_trap"), "ms"),
        "cli.self_ms": (ms("cli.main", 2), "ms"),
        "cli.parser_ms": (ms("cli.build_parser"), "ms"),
    }
    layer_self = defaultdict(float)
    for name, row in totals.items():
        layer_self[name.split(".")[0]] += row[2]
    for layer in LAYERS + ("bench",):
        metrics[f"self_ms.{layer}"] = (layer_self[layer] * 1000.0, "ms")
    covered = sum(layer_self[layer] for layer in LAYERS)
    metrics["trace.layer_self_share"] = (covered / wall_s if wall_s else 0.0, "ratio")
    return metrics
