"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# A short prefix of each corpus keeps the tests quick.
PREFIX = {"random_analyze": 3, "extremal_check": 12, "generate": 6}


def prepared(workload: str, seed: int, tmp_path: Path):
    _, program, corpus = run.set_up(workload, seed, tmp_path / workload)
    return program, corpus.requests[: PREFIX[workload]]


def bindings():
    """Every callable a maxplus module holds, by (module, name)."""
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "maxplus" or name.startswith("maxplus.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    program, prefix = prepared(workload, 3, tmp_path)
    first = run.trace_pass(program, prefix, None)
    second = run.trace_pass(program, prefix, None)
    assert counts(first.tracer.metrics()) == counts(second.tracer.metrics())
    assert first.tracer.metrics()["cli.main.calls"] == len(prefix)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_trace_is_faithful_and_restored(workload, tmp_path):
    program, prefix = prepared(workload, 4, tmp_path)
    before = bindings()
    result = run.trace_pass(program, prefix, None)
    assert result.plain.digests == result.traced.digests
    assert not result.plain.failures and not result.traced.failures
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    tracing.Tracer().assert_clean()
    # Self times partition the time of the root spans.
    spans = result.tracer.spans
    roots = sum(s.end - s.start for s in spans if s.parent < 0)
    assert sum(s.self_s for s in spans) == pytest.approx(roots, rel=1e-9)


def test_install_reaches_names_imported_directly(tmp_path):
    program, _ = prepared("generate", 1, tmp_path)
    csr, spectral, cli = (sys.modules[f"maxplus.{m}"] for m in ("csr", "spectral", "cli"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for fn in (csr.mat_mul, spectral.mat_mul, cli.analyze, cli.main, sys.modules["maxplus"].mat_mul):
            assert fn._perfbench_wrapper
        with pytest.raises(RuntimeError):
            tracer.assert_clean()
    finally:
        tracer.restore()
    tracing.Tracer().assert_clean()


def test_default_seed_matches_recorded_answers(tmp_path):
    answers = json.loads(run.ANSWERS.read_text())["answers"]
    for workload in workloads.WORKLOADS:
        program, prefix = prepared(workload, run.DEFAULT_SEED, tmp_path)
        outcomes = run.Outcomes(answers[workload])
        run.run_pass(program, prefix, outcomes, speed.Probe())
        assert not outcomes.failures, outcomes.failures


def test_checks_reject_wrong_outputs(tmp_path):
    _, program, corpus = run.set_up("extremal_check", 1, tmp_path / "w")
    by_key = {r.key: r for r in corpus.requests}
    analyze, check_dm, check_wiel = (by_key[f"dm-n5-3:{verb}"] for verb in ("analyze", "check-dm", "check-wiel"))
    known: dict = {}
    _, rc, out, _, _ = run.execute(program.cli, analyze)
    good = json.loads(out)
    wrong = dict(good, T1=good["T1"] - 1)
    assert workloads.check(analyze, rc, json.dumps(wrong), {}) is not None
    assert workloads.check(analyze, rc, out, known) is None
    for req in (check_dm, check_wiel):
        _, rc, out, _, _ = run.execute(program.cli, req)
        assert workloads.check(req, rc, out, known) is None
        flipped = out.replace(": holds", ": does not hold", 1) if rc == 0 else out.replace(": does not hold", ": holds", 1)
        assert workloads.check(req, rc, flipped, known) is not None
    gen = workloads.build_generate(1).requests[0]
    _, rc, out, _, _ = run.execute(program.cli, gen)
    assert workloads.check(gen, rc, out, {}) is None
    assert workloads.check(gen, rc, out.replace('"verified_T1": ', '"verified_T1": 1'), {}) is not None


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "generate", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode != 0
    assert "correct" not in res.stdout
