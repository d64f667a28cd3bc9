"""Tests of the benchmark itself, at tiny sizes: python3 -m pytest perfbench"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import siphons.analysis  # noqa: E402
from siphons import brute_force_minimal_siphons, gen_random_net  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from certify import Arcs, certify, is_minimal_siphon  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny():
    return {
        "chain": workloads.chain(4),
        "reduction": workloads.reduction(n=5, alphas=(0.0, 4.26), instance_seeds=(0,)),
        "requests": workloads.Requests(ROOT / "models", random_nets=2, reductions=2,
                                       chains=1),
    }


def bench(monkeypatch, capsys, tmp_path, workload, trace=0, seed=3):
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                     "--trace", str(trace)], workloads=tiny(), out_dir=tmp_path)
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric_with_its_unit(monkeypatch, capsys, tmp_path,
                                                    workload, trace):
    result = bench(monkeypatch, capsys, tmp_path, workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_covers_every_layer(monkeypatch, capsys, tmp_path):
    metrics = {name: m["value"] for name, m in
               bench(monkeypatch, capsys, tmp_path, "requests", trace=1)["metrics"].items()}
    for name in ("generators.ms", "reactions.parse_calls", "pnml.parse_calls",
                 "net.is_siphon_calls", "net.dual_ms", "encoding.clauses",
                 "sat.minimize_solve_ms", "sat.propagations", "branch_bound.decide_calls",
                 "branch_bound.propagations", "analysis.report_ms", "analysis.max_trap_ms",
                 "cli.self_ms", "cli.parser_ms"):
        assert metrics[name] > 0, name
    assert metrics["analysis.enumerations_per_request"] == 3.0
    assert metrics["trace.layer_self_share"] > 0.9
    assert siphons.analysis.enumerate_minimal_sat is siphons.sat.enumerate_minimal_sat


def drop_last(sets, num_places):
    return sets[:-1]


def swap_for_superset(sets, num_places):
    first = sets[0]
    extra = next(p for p in range(num_places) if p not in first)
    return [first | {extra}] + sets[1:]


@pytest.mark.parametrize("corrupt", [drop_last, swap_for_superset])
@pytest.mark.parametrize("workload", ["chain", "reduction", "requests"])
def test_corrupted_result_raises_error_rate(monkeypatch, capsys, tmp_path, corrupt, workload):
    original = siphons.analysis.enumerate_minimal_sat

    def corrupted(net, **kwargs):
        result = original(net, **kwargs)
        if len(result.sets[0]) < len(net.places):
            result.sets = corrupt(result.sets, len(net.places))
        return result
    monkeypatch.setattr(siphons.analysis, "enumerate_minimal_sat", corrupted)
    result = bench(monkeypatch, capsys, tmp_path, workload)
    assert not result["correct"] and result["failed"] / result["attempted"] > 0


def test_counters_must_repeat_across_runs(monkeypatch, capsys, tmp_path):
    assert bench(monkeypatch, capsys, tmp_path, "chain", seed=5)["correct"]
    assert bench(monkeypatch, capsys, tmp_path, "chain", seed=5, trace=1)["correct"]
    counts_file = tmp_path / "counts" / "chain-seed5.json"
    recorded = json.loads(counts_file.read_text())
    recorded["counts"]["chain4/bb"][-1] += 1  # decisions
    counts_file.write_text(json.dumps(recorded))
    result = bench(monkeypatch, capsys, tmp_path, "chain", seed=5)
    assert not result["correct"] and result["failed"] > 0


def test_certificate_matches_the_oracle():
    rng = random.Random(7)
    for seed in range(60):
        net = gen_random_net(rng.randint(3, 9), rng.randint(1, 9), 3, seed=seed)
        arcs = Arcs.siphons_of(net)
        oracle = set(brute_force_minimal_siphons(net))
        assert certify(arcs, sorted(oracle, key=sorted)) == []
        for mask in range(1, 1 << len(net.places)):
            s = frozenset(p for p in range(len(net.places)) if mask >> p & 1)
            assert is_minimal_siphon(arcs, s) == (s in oracle)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "chain",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and "correct" not in done.stdout
