"""Simulator determinism, roster shape, and scenario scripts."""

import dataclasses

import pytest

from sentinel.events import ActionKind, Role, Scenario
from sentinel.simkit import (COMPLIANCE_POWER_USERS, LEAK_RECIPIENT, ONSET_MAX,
                             ONSET_MIN, SimConfig, expand_scenario,
                             generate_roster, roster_from_dict, roster_to_dict,
                             run_simulation)


def test_default_roster_shape():
    config = SimConfig()
    roster = generate_roster(config, seed=101)
    assert len(roster) == 42
    assert [a.actor_id for a in roster] == [f"u{i:03d}" for i in range(1, 43)]
    benign = [a for a in roster if not a.malicious]
    insiders = [a for a in roster if a.malicious]
    assert len(benign) == 34 and len(insiders) == 8
    assert all(a.role is Role.STAFF for a in insiders)  # insiders pose as staff
    for a in insiders:
        assert a.scenario is not None
        assert (config.warmup_steps + ONSET_MIN <= a.start_step
                <= config.warmup_steps + ONSET_MAX)
    power = [a for a in benign if a.role is Role.POWER_USER]
    assert sum(a.compliance for a in power) == COMPLIANCE_POWER_USERS
    assert all(a.compliance for a in power[:2])


def test_roster_serde_round_trip():
    # style floats are rounded to 4 decimals on write; everything else is exact
    roster = generate_roster(SimConfig(), seed=7)
    clone = roster_from_dict(roster_to_dict(roster))
    for a, b in zip(roster, clone):
        assert b.style_mean == pytest.approx(a.style_mean, abs=1e-4)
        assert b.style_sd == pytest.approx(a.style_sd, abs=1e-4)
        assert (dataclasses.replace(a, style_mean=0.0, style_sd=0.0)
                == dataclasses.replace(b, style_mean=0.0, style_sd=0.0))


def test_simulation_deterministic_per_seed():
    config = SimConfig()
    a = run_simulation(config, seed=101)
    b = run_simulation(config, seed=101)
    c = run_simulation(config, seed=102)
    assert a.events == b.events and a.truths == b.truths
    assert a.events != c.events


def test_events_ordered_and_bounded():
    config = SimConfig()
    result = run_simulation(config, seed=103)
    steps = [e.step for e in result.events]
    assert steps == sorted(steps)
    assert 0 <= steps[0] and steps[-1] < config.total_steps
    actor_ids = {a.actor_id for a in result.roster}
    assert {e.actor_id for e in result.events} <= actor_ids


def test_truths_match_roster():
    result = run_simulation(SimConfig(), seed=104)
    by_id = {t.actor_id: t for t in result.truths}
    assert len(by_id) == len(result.roster)
    for actor in result.roster:
        truth = by_id[actor.actor_id]
        assert truth.malicious == actor.malicious
        assert truth.scenario == actor.scenario
        if actor.malicious:
            assert truth.first_malicious_step == actor.start_step


def test_config_validation():
    with pytest.raises(ValueError, match="warmup"):
        SimConfig(total_steps=100, warmup_steps=100).validate()
    with pytest.raises(ValueError, match="probability"):
        SimConfig(mistake_prob=1.5).validate()
    with pytest.raises(ValueError, match="power_report_every"):
        SimConfig(power_report_every=3).validate()
    with pytest.raises(ValueError, match="onset"):
        SimConfig(total_steps=100, warmup_steps=60).validate()


def test_expand_scenario_deterministic_and_bounded():
    for scenario in Scenario:
        a = expand_scenario(scenario, seed=5, start_step=70)
        b = expand_scenario(scenario, seed=5, start_step=70)
        assert a == b
        assert all(70 <= act.step < 240 for act in a.actions)
        assert a.actions == tuple(sorted(a.actions, key=lambda act: act.step))
        assert a.actions  # every scenario schedules something


def test_stealth_opening_cycle():
    script = expand_scenario(Scenario.STEALTH, seed=11, start_step=70)
    opening = [a for a in script.actions if a.step <= 80]
    kinds = [(a.step, a.kind) for a in opening]
    assert (70, ActionKind.LOGIN) in kinds
    assert [(s, k) for s, k in kinds if k is ActionKind.FILE_EXPORT][:3] == [
        (72, ActionKind.FILE_EXPORT), (75, ActionKind.FILE_EXPORT),
        (78, ActionKind.FILE_EXPORT)]
    mail = next(a for a in opening if a.kind is ActionKind.EMAIL_SEND)
    assert mail.step == 80
    assert mail.payload["recipient"] == LEAK_RECIPIENT


def test_insiders_follow_script_only():
    # insider events during warmup look benign; scripted activity starts at onset
    result = run_simulation(SimConfig(), seed=105)
    insiders = {a.actor_id: a for a in result.roster if a.malicious}
    for actor_id, actor in insiders.items():
        pre_onset = [e for e in result.events
                     if e.actor_id == actor_id and e.step < actor.start_step]
        for e in pre_onset:
            if e.kind is ActionKind.EMAIL_SEND:
                assert e.payload["recipient"] != LEAK_RECIPIENT
            if e.kind is ActionKind.FILE_EXPORT:
                assert e.payload["destination"] != "external"
