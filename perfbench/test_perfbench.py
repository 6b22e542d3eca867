"""Tests of the benchmark itself: metric emission, the tracer and the
failure accounting.

    python3 -m pytest perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_package()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from cosegal import base, precat  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# the cheapest instance of each workload
SMALLEST = {"cosegalify_chq": "pad-sphere",
            "unitalize_linear": "vectq-A1B1",
            "unitalize_finset": "finset-A2"}


def smallest(workload):
    build = workloads.WORKLOADS[workload]
    return lambda rng: [i for i in build(rng)
                        if i.name == SMALLEST[workload]]


def units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_spec_lists_exactly_the_emitted_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(
        workloads.WORKLOADS)
    assert units(SPEC["end_to_end"]) == dict(run.END_TO_END)
    assert units(SPEC["per_layer"]) == dict(run.per_layer_metrics())


@pytest.mark.parametrize("workload", sorted(SMALLEST))
def test_smallest_workload_emits_every_metric(workload):
    build = smallest(workload)
    untraced = [run.run_pass(build, 7, i) for i in range(2)]
    t = tracing.Tracer()
    with t:
        traced = run.run_pass(build, 7, 2, tracer=t)
    passes = untraced + [traced]
    assert sum(p.attempted for p in passes) == 3
    assert sum(p.failed for p in passes) == 0

    e2e = run.end_to_end(untraced)
    assert {k: v["unit"] for k, v in e2e.items()} == units(
        SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in e2e.values())

    layers = run.per_layer([run.layer_values(t, traced)], untraced,
                           [traced])
    assert {k: v["unit"] for k, v in layers.items()} == units(
        SPEC["per_layer"])
    # the layer self times cover the traced run up to the benchmark's own
    # code and the counters
    covered = sum(layers["%s.self_s" % layer]["value"]
                  for layer in tracing.LAYERS + ("bench", "trace.counters"))
    assert covered == pytest.approx(
        traced.run_s + traced.setup_s, rel=0.05, abs=0.01)


def test_times_are_scaled_to_the_reference_speed():
    # a host at half the nominal speed: the loop took twice REFERENCE_S
    slow = run.Pass(setup_s=0.5, compute_s=2.0, verify_s=1.0,
                    reference_s=[1.5 * run.REFERENCE_S,
                                 2.5 * run.REFERENCE_S])
    values = {k: v["value"] for k, v in run.end_to_end([slow]).items()}
    assert values["setup_s"] == pytest.approx(0.25)
    assert values["compute_s"] == pytest.approx(1.0)
    assert values["verify_s"] == pytest.approx(0.5)
    assert values["run_s"] == pytest.approx(1.5)
    assert run.wall_times([slow])["run_s"] == pytest.approx(3.0)


def test_digest_repeats_at_one_seed():
    for workload in SMALLEST:
        first = run.run_pass(smallest(workload), 3, 0)
        again = run.run_pass(smallest(workload), 3, 0)
        assert first.digests and first.digests == again.digests
        assert run.digest_line(first) == run.digest_line(again)


def test_tracer_nests_validate_tensor_mor_kron():
    inst = smallest("cosegalify_chq")(random.Random(1))[0]
    out, _ = inst.compute()
    t = tracing.Tracer()
    with t:
        assert precat.validate(out) == []
    names = [t.names[i] for i in t.name]

    def ancestors(i):
        while t.parent[i] >= 0:
            i = t.parent[i]
            yield names[i]

    nested = [i for i, n in enumerate(names) if n == "ratmat.kron"
              and names[t.parent[i]] == "base.tensor_mor"
              and "precat.validate" in ancestors(i)]
    assert nested
    by_name, _ = t.self_times()
    assert by_name["precat.validate"][0] == 1
    assert all(t.end[i] >= t.start[i] for i in range(len(names)))


def bindings():
    out = {}
    for name, mod in sys.modules.items():
        if name == "cosegal" or name.startswith("cosegal."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    for cls in (base.MObject, base.MMorphism):
        for attr, value in vars(cls).items():
            out[(cls.__name__, attr)] = value
    return out


def test_tracer_restores_every_binding():
    before = bindings()
    t = tracing.Tracer().install()
    try:
        assert precat.tensor_mor is not before[("cosegal.precat",
                                                "tensor_mor")]
        assert base.MMorphism.then is not before[("MMorphism", "then")]
        assert base.MObject.__eq__ is not before[("MObject", "__eq__")]
    finally:
        t.remove()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tampered_laxity_is_counted_as_failed():
    def tampered(rng):
        inst = smallest("cosegalify_chq")(rng)[0]

        def compute():
            out, eta = inst.compute()
            key = sorted(out.laxity)[0]
            phi = out.laxity[key]
            out.laxity[key] = base.zero_map(phi.src, phi.dst)
            return out, eta

        return [workloads.Instance(inst.name, compute, inst.verify,
                                   inst.digest)]

    p = run.run_pass(tampered, 1, 0)
    assert (p.attempted, p.failed) == (1, 1)
    assert p.run_s == 0


def test_command_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "unitalize_finset", "--seed", "5", "--seconds", "0",
         "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    *_, digest, last = proc.stdout.splitlines()
    assert "digest" in json.loads(digest)
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * run.MIN_PASSES
    assert units(SPEC["end_to_end"]) == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cosegalify_chq",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
