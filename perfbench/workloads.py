"""The benchmark's workloads: inputs, operations and output checks.

Each workload is a closed loop with one caller and no threads. An
operation is one call into the package: an `enumerate_minimal_siphons`
call on `chain` and `reduction`, one in-process `siphons analyze` on
`requests`. The seed draws the `requests` corpus and, on every workload,
the order of the operations in each pass; the `chain` and `reduction`
nets are fixed. Functions are looked up on their modules at call time so
the tracer's wrappers apply.
"""

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import siphons.analysis as analysis
import siphons.cli as cli
import siphons.generators as generators
import siphons.pnml as pnml
import siphons.reactions as reactions
from siphons.search import Budget

from certify import Arcs, certify, greatest_siphon_within

ENGINES = ("sat", "bb")
# Far above any enumeration here (seconds at most), so only a hang trips it;
# a hang then ends as a timed-out result and counts as a failed operation.
SAFETY_BUDGET_MS = 60_000.0


@dataclass
class Operation:
    key: str          # input and engine; the same key in every pass
    engine: str
    call: object      # the timed call
    digest: object    # untimed: raw result -> Output


@dataclass
class Output:
    sets: int         # sets returned, the divisor of ms_per_set
    value: object     # what the certificate checks; equal in every pass
    counts: tuple     # search counters that must repeat exactly
    error: str | None = None


# -- chain and reduction: direct enumeration calls ----------------------------

def _enumerate(net, engine):
    return analysis.enumerate_minimal_siphons(net, engine=engine,
                                              budget=Budget(max_ms=SAFETY_BUDGET_MS))


def _enumeration_output(result):
    stats = result.stats
    return Output(
        sets=len(result.sets),
        value=frozenset(result.sets),
        counts=(len(result.sets), stats.solve_calls, stats.minimize_steps,
                stats.conflicts, stats.decisions),
        error="timed out" if stats.timed_out else None,
    )


class Enumeration:
    """Both engines on every net of a fixed list; sat and bb must agree."""

    setup_reps = 25

    def __init__(self, name, build, expected_count=None):
        self.name = name
        self.build = build
        self.expected_count = expected_count

    def setup(self, seed, work_dir):
        return self.build()

    def operations(self, nets):
        return [Operation(f"{label}/{engine}", engine,
                          lambda net=net, engine=engine: _enumerate(net, engine),
                          _enumeration_output)
                for label, net in nets.items() for engine in ENGINES]

    def check(self, nets, values):
        problems = {}
        for label, net in nets.items():
            arcs = Arcs.siphons_of(net)
            found = {engine: values[f"{label}/{engine}"] for engine in ENGINES}
            for engine, sets in found.items():
                bad = certify(arcs, list(sets))
                if self.expected_count is not None and len(sets) != self.expected_count:
                    bad.append(f"{len(sets)} sets, expected {self.expected_count}")
                if found["sat"] != found["bb"]:
                    bad.append("sat and bb return different sets")
                if bad:
                    problems[f"{label}/{engine}"] = bad
        return problems


def chain(n=10):
    """Output-bound: 2^n minimal siphons, so every per-set cost is multiplied."""
    return Enumeration("chain", lambda: {f"chain{n}": generators.gen_chain(n)},
                       expected_count=2 ** n)


def reduction(n=50, alphas=(0.0, 4.26, 6.0), instance_seeds=(0, 1, 2)):
    """Search-bound: 3-SAT reduction nets at and around the phase transition.

    The instances are a fixed list. Their cost at alpha 4.26 is heavy-tailed
    (bb took 41 ms to 3.2 s over 3-SAT seeds 0-39 at n=50), so drawing them
    from the run seed would measure the draw, not the program.
    """
    def build():
        return {f"a{alpha}-s{s}": generators.gen_3sat_reduction(
                    generators.gen_random_3sat(n, round(alpha * n), s))
                for alpha in alphas for s in instance_seeds}
    return Enumeration("reduction", build)


# -- requests: in-process CLI calls over a seeded model corpus ----------------

@dataclass
class ModelFile:
    path: Path
    net: object       # the net the file was written from, or parsed from
    marking: tuple


class Requests:
    """`siphons analyze --target both --marking-report --output json` per file,
    once with the default engine (sat) and once with `--engine bb`."""

    name = "requests"
    setup_reps = 5

    def __init__(self, models_dir, random_nets=60, reductions=24, chains=12):
        self.models_dir = Path(models_dir)
        self.random_nets = random_nets
        self.reductions = reductions
        self.chains = chains

    def setup(self, seed, work_dir):
        corpus = Path(work_dir) / "corpus"
        corpus.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        files = {}
        for path in sorted(self.models_dir.iterdir()):
            parse = reactions.parse_reactions if path.suffix == ".rxn" else pnml.parse_pnml
            net, marking = parse(path.read_text())
            files[path.name] = ModelFile(path, net, marking)
        nets = []
        for i in range(self.random_nets):
            # Sizes are spread evenly over 20-60 places, so a seed changes the
            # nets but not the size mix that request_ms.* mostly depends on.
            places = 20 + 40 * i // max(1, self.random_nets - 1)
            # A third as many transitions as places keeps bb on every file far
            # inside the CLI's 2 s budget: no enumeration over 0.1 s in 1600
            # trials. At half as many, about 1 in 200 takes 1-2 s.
            nets.append(("random", generators.gen_random_net(
                places, places // 3, 3, seed=rng.randrange(2 ** 31))))
        alphas = (0.0, 2.0, 4.26, 6.0)
        for i in range(self.reductions):
            n = 10 + i % 3
            instance = generators.gen_random_3sat(n, round(alphas[i % 4] * n),
                                                  rng.randrange(2 ** 31))
            nets.append(("reduction", generators.gen_3sat_reduction(instance)))
        for i in range(self.chains):
            nets.append(("chain", generators.gen_chain(6 + i % 3)))
        for i, (kind, net) in enumerate(nets):
            # Reductions go out as PNML, which keeps the generator's place order.
            # Read back from .rxn their places come in order of first use (q0 and
            # the r places first), and bb's fixed order then runs past the CLI
            # budget on siphons from n=8 on.
            if i % 2 or kind == "reduction":
                path = corpus / f"{i:03d}-{kind}.pnml"
                path.write_text(pnml.export_pnml(net))
            else:
                path = corpus / f"{i:03d}-{kind}.rxn"
                path.write_text(reactions.export_reactions(net))
            files[path.name] = ModelFile(path, net, (0,) * len(net.places))
        return files

    def operations(self, files):
        ops = []
        for label, model in files.items():
            for engine in ENGINES:
                argv = ["analyze", str(model.path), "--target", "both", "--marking-report",
                        "--output", "json"]
                if engine != "sat":
                    argv += ["--engine", engine]
                ops.append(Operation(f"{label}/{engine}", engine,
                                     lambda argv=argv: _run_cli(argv), _request_output))
        return ops

    def check(self, files, values):
        problems = {}
        for label, model in files.items():
            found = {engine: values[f"{label}/{engine}"] for engine in ENGINES}
            for engine, value in found.items():
                bad = _check_request(model, value)
                if found["sat"] != found["bb"]:
                    bad.append("sat and bb outputs differ")
                if bad:
                    problems[f"{label}/{engine}"] = bad
        return problems


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _names(sets):
    return frozenset(frozenset(names) for names in sets)


def _request_output(raw):
    code, out, err = raw
    if code != 0:
        return Output(0, None, (), f"exit code {code}: {err.strip()}")
    payload = json.loads(out)
    siphons, traps = payload["siphons"], payload["traps"]
    report = payload["marking_report"]
    rows = frozenset((frozenset(row["siphon"]), row["proper"], frozenset(row["max_trap"]),
                      row["trap_marked"]) for row in report["siphons"])
    value = (_names(siphons["sets"]), _names(traps["sets"]), rows, len(report["siphons"]),
             report["every_siphon_has_marked_trap"])
    counts = tuple(block[k] for block in (siphons, traps)
                   for k in ("count", "solve_calls", "conflicts", "decisions"))
    timed_out = siphons["timed_out"] or traps["timed_out"] or report["timed_out"]
    return Output(siphons["count"] + traps["count"], value, counts,
                  "timed out" if timed_out else None)


def _check_request(model, value):
    net, marking = model.net, model.marking
    index = {name: p for p, name in enumerate(net.places)}
    siphon_names, trap_names, rows, row_count, all_marked = value
    try:
        siphons = [frozenset(index[n] for n in s) for s in siphon_names]
        traps = [frozenset(index[n] for n in s) for s in trap_names]
        inners = [frozenset(index[n] for n in row[2]) for row in rows]
    except KeyError as exc:
        return [f"unknown place {exc}"]
    siphon_arcs, trap_arcs = Arcs.siphons_of(net), Arcs.traps_of(net)
    bad = certify(siphon_arcs, siphons) + [f"trap {m}" for m in certify(trap_arcs, traps)]
    if frozenset(row[0] for row in rows) != siphon_names or row_count != len(siphon_names):
        bad.append("marking report rows differ from the siphons")
        return bad
    for names, proper, trap, marked in rows:
        s = frozenset(index[n] for n in names)
        pre = {t for p in s for t in siphon_arcs.producers[p]}
        post = {t for p in s for t in siphon_arcs.consumers[p]}
        inner = greatest_siphon_within(trap_arcs, s)
        if proper != (pre < post):
            bad.append(f"proper flag of {sorted(names)}")
        if trap != frozenset(net.places[p] for p in inner):
            bad.append(f"max trap of {sorted(names)}")
        if marked != any(marking[p] > 0 for p in inner):
            bad.append(f"trap marking of {sorted(names)}")
    if all_marked != all(row[3] for row in rows):
        bad.append("every_siphon_has_marked_trap")
    return bad


def default_workloads(root):
    return {
        "chain": chain(),
        "reduction": reduction(),
        "requests": Requests(Path(root) / "models"),
    }
