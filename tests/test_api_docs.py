"""Keep docs/api.md in sync with the code."""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GENERATOR = os.path.join(REPO_ROOT, "tools", "gen_api_docs.py")
API_DOC = os.path.join(REPO_ROOT, "docs", "api.md")


def test_api_doc_exists():
    assert os.path.exists(API_DOC)


def test_api_doc_is_current():
    result = subprocess.run(
        [sys.executable, GENERATOR, "--check"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_api_doc_covers_key_items():
    with open(API_DOC, encoding="utf-8") as handle:
        text = handle.read()
    for name in (
        "ProportionalAlgorithm",
        "TheoremTwoGame",
        "measure_competitive_ratio",
        "theorem2_lower_bound",
        "validate_algorithm",
        "evacuation_time",
        "BatchEvaluator",
        "compile_trajectory",
        "CompiledFleetCache",
        "run_parity_harness",
    ):
        assert name in text, name
