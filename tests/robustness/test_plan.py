"""The execution plan: one validator and one engine table for every caller."""

import itertools

import pytest

from repro.cli import main
from repro.errors import InvalidParameterError
from repro.robustness import ScenarioSpec, chaos_scenarios, plan, run_campaign
from repro.robustness.plan import plan_for, validate_spec
from repro.service.protocol import ServiceError, parse_submission

VARIANTS = ("line", "halfline", "evacuation")
PROTOCOLS = ("none", "confirmation")
MODES = ("sync", "event:adversarial:1.0")
METHODS = ("event", "batch")


class TestPlanTable:
    @pytest.mark.parametrize(
        "fields, engine",
        [
            ({"variant": "evacuation", "protocol": "confirmation"}, "evacuation"),
            ({"variant": "evacuation", "mode": "event"}, "evacuation"),
            ({"protocol": "confirmation", "mode": "event"}, "confirmation"),
            ({"variant": "halfline", "protocol": "confirmation"}, "confirmation"),
            ({"mode": "event:async:0.5"}, "event"),
            ({"variant": "halfline"}, "sync"),
            ({}, "batch"),
        ],
    )
    def test_engine_per_row(self, fields, engine):
        spec = ScenarioSpec(5, 2, 3.0, "none", 1, **fields)
        chosen, refusal = plan_for(spec, "batch", check_invariants=False)
        assert chosen == engine
        assert (refusal is None) == (engine == "batch")

    def test_batch_needs_the_audit_off(self):
        spec = ScenarioSpec(3, 1, 2.0)
        assert plan_for(spec, "batch", check_invariants=True) == ("sync", None)
        assert plan_for(spec, "event", check_invariants=False) == ("sync", None)

    def test_event_method_is_never_refused(self):
        for variant, protocol, mode in itertools.product(
            VARIANTS, PROTOCOLS, MODES
        ):
            spec = ScenarioSpec(
                5, 2, 2.0, protocol=protocol, mode=mode, variant=variant
            )
            assert plan_for(spec, "event")[1] is None


class TestValidateSpec:
    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"fault": "gremlins"}, "unknown fault kind"),
            ({"fault": "crash_stop:abc"}, "invalid fault spec"),
            ({"fault": "crash_stop:-1"}, "halt time"),
            ({"fault": "probabilistic:1.5"}, "detection probability"),
            ({"fault": "fixed:x"}, "invalid fault spec"),
            ({"fault": "fixed:-1"}, "non-negative"),
            ({"fault": "byzantine:a;b"}, "invalid fault spec"),
            ({"fault": "byzantine_adversarial:-2"}, "alarm times"),
            ({"protocol": "paxos"}, "unknown protocol"),
            ({"variant": "torus"}, "unknown variant"),
            ({"n": 2, "variant": "evacuation"}, "reliable majority"),
            ({"mode": "event:bogus"}, "bogus"),
        ],
    )
    def test_refusals(self, fields, match):
        spec = ScenarioSpec(**{"n": 3, "f": 1, "target": 2.0, **fields})
        with pytest.raises(InvalidParameterError, match=match):
            validate_spec(spec)

    def test_malformed_argument_refused_without_faulty_robots(self):
        with pytest.raises(InvalidParameterError, match="probabilistic"):
            validate_spec(ScenarioSpec(3, 0, 2.0, "probabilistic:1.5"))

    def test_fault_probe_leaves_the_other_rules_to_the_spec(self):
        validate_spec(ScenarioSpec(1, 0, 2.0, "none", variant="evacuation"))

    def test_fleet_feasibility_is_left_to_realization(self):
        # The library isolates an undersized confirmation fleet as a
        # failed scenario; only the service refuses it up front.
        validate_spec(ScenarioSpec(4, 2, 2.0, protocol="confirmation"))


def _service_refuses(spec, method):
    try:
        parse_submission({"spec": spec.to_dict(), "method": method})
    except ServiceError as exc:
        assert exc.code == "bad_request"
        return True
    return False


@pytest.mark.parametrize(
    "variant, protocol, mode, method",
    list(itertools.product(VARIANTS, PROTOCOLS, MODES, METHODS)),
)
def test_library_service_and_cli_refuse_batch_alike(
    capsys, variant, protocol, mode, method
):
    spec = ScenarioSpec(
        5, 2, 2.0, "none", 7, protocol=protocol, mode=mode, variant=variant
    )
    refused = plan_for(spec, method)[1] is not None
    assert _service_refuses(spec, method) == refused
    code = main(
        [
            "chaos", "--pairs", "5,2", "--targets", "2.0",
            "--faults", "none", "--no-invariants", "--method", method,
            "--protocol", protocol, "--mode", mode, "--variant", variant,
        ]
    )
    capsys.readouterr()
    assert code == (2 if refused else 0)


BATCH_PAIRS = [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (7, 3), (4, 1), (6, 2)]
BATCH_TARGETS = [(-1.0) ** k * 1.9 ** k for k in range(22)]
BATCH_FAULTS = ["none", "adversarial", "fixed", "random"]


@pytest.mark.parametrize("seed", [0, 7, 2016])
@pytest.mark.parametrize("variant", ["line", "halfline"])
def test_batch_campaign_report_is_byte_identical(monkeypatch, seed, variant):
    kernel_runs = []
    batch_outcome = plan._batch_outcome

    def counted(*args):
        outcome = batch_outcome(*args)
        kernel_runs.append(outcome is not None)
        return outcome

    monkeypatch.setattr(plan, "_batch_outcome", counted)
    reports = {
        method: run_campaign(
            chaos_scenarios(
                BATCH_PAIRS, BATCH_TARGETS, BATCH_FAULTS,
                seed=seed, method=method, variant=variant,
            ),
            check_invariants=False,
        ).to_json()
        for method in METHODS
    }
    assert reports["batch"] == reports["event"]
    # the line grid really took the kernels; the ray never does
    expected = len(BATCH_PAIRS) * len(BATCH_TARGETS) * len(BATCH_FAULTS)
    assert kernel_runs == ([True] * expected if variant == "line" else [])
