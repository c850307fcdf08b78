"""Smoke tests of the end-to-end benchmark at tiny sizes.

Run with ``pytest benchmarks/e2e`` (about 25 s on two cores).
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: One unit of every workload (one sweep round, one campaign, one block
#: of served jobs).
SECONDS = 0.15
TINY = ["--seconds", str(SECONDS)]
SEED = 2016

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return env


def bench(*args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, env=_env(), timeout=300,
    )


def workload(name, *args):
    """One workload process run directly; returns its result JSON."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), name, *args],
        capture_output=True, text=True, cwd=ROOT, env=_env(), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def sections(stdout):
    """The printed block of each workload, keyed by name."""
    blocks = re.split(r"^== (\w+) ", stdout, flags=re.M)[1:]
    return dict(zip(blocks[0::2], blocks[1::2]))


@pytest.fixture(scope="module")
def traced():
    done = bench("--seed", str(SEED), "--trace", "1", *TINY)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


def test_every_metric_is_printed_with_its_unit(traced):
    stdout, result = traced
    assert result["correct"] and result["failed"] == 0
    # the committed digests of the one-campaign runs were checked
    assert stdout.count("matches the committed digest") == 2
    blocks = sections(stdout)
    assert sorted(blocks) == sorted(NAMES)
    for name in NAMES:
        for metric in BENCHMARK["end_to_end"]:
            line = rf"^  {re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}\s"
            assert re.search(line, blocks[name], flags=re.M), (name, metric)
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            entry = result["metrics"][f"{name}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], float)


def test_same_seed_repeats_inputs_and_counts(traced):
    stdout, result = traced
    blocks = sections(stdout)
    for name in NAMES:
        digest = workloads.inputs_sha256(name, SEED, SECONDS)
        assert f"inputs_sha256  {digest}" in blocks[name]
    counts = {
        "campaign_crash": ["engine.calls", "batch.compile_calls_per_fleet"],
        "campaign_event": ["async.runs"],
        "serve": ["journal.bytes_per_scenario"],
    }
    for name, metrics in counts.items():
        trace = os.path.join(ROOT, ".bench_build", "e2e", f"{name}.again.jsonl")
        again = workload(name, "--seed", str(SEED), *TINY, "--trace-out", trace)
        for metric in metrics:
            assert again["layers"][metric] == (
                result["metrics"][f"{name}.{metric}"]["value"]
            ), (name, metric)


def test_other_seed_changes_inputs():
    for name in NAMES:
        assert workloads.inputs_sha256(name, SEED, SECONDS) != (
            workloads.inputs_sha256(name, SEED + 1, SECONDS)
        )


def test_wrong_digest_fails_the_run(tmp_path):
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(
        {"seed": SEED, "report_sha256": {"campaign_crash": {"1": "0" * 64}}}
    ))
    done = bench("--workload", "campaign_crash", "--seed", str(SEED), *TINY,
                 "--expected", str(wrong))
    assert done.returncode != 0
    assert "MISMATCH" in done.stdout
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is False
