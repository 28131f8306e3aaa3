"""Seeded enterprise activity simulator.

Generates a step-ordered event log for a mixed population of benign staff,
developers, admins, power users, and a small set of scripted insiders. All
randomness flows through per-actor substreams of a single run seed, so a
given (config, seed) pair always produces the identical log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import forensics
from .events import ActionKind, Event, GroundTruth, Role, Scenario
from .rng import Xoshiro256StarStar, substream

INTERNAL_DOMAIN = "corp.example"
APPROVED_PARTNER_DOMAINS = ("partnercorp.example", "consulting.example")
DENIED_DOMAIN = "darkpartner.example"
LEAK_RECIPIENT = "privatemail.example"

# Script-level export sizes; stealth stays far below the exfiltration volumes.
EXFIL_EXPORT_MIN = 3600
STEALTH_EXPORT_MAX = 300

ROLE_RESOURCES = {
    Role.STAFF: ("crm_db", "shared_drive", "wiki"),
    Role.DEVELOPER: ("code_repo", "build_server", "shared_drive"),
    Role.ADMIN: ("admin_console", "hr_records", "shared_drive"),
    Role.POWER_USER: ("analytics_db", "crm_db", "shared_drive"),
}

EXPORT_CAPS = {Role.STAFF: 600, Role.DEVELOPER: 900,
               Role.ADMIN: 1200, Role.POWER_USER: 5000}


RATES = {
    Role.STAFF: {ActionKind.LOGIN: 0.12, ActionKind.DB_QUERY: 0.55,
                 ActionKind.FILE_ACCESS: 0.35, ActionKind.FILE_EXPORT: 0.05,
                 ActionKind.EMAIL_SEND: 0.25},
    Role.DEVELOPER: {ActionKind.LOGIN: 0.12, ActionKind.DB_QUERY: 0.80,
                     ActionKind.FILE_ACCESS: 0.50, ActionKind.FILE_EXPORT: 0.06,
                     ActionKind.EMAIL_SEND: 0.20},
    Role.ADMIN: {ActionKind.LOGIN: 0.15, ActionKind.DB_QUERY: 0.40,
                 ActionKind.FILE_ACCESS: 0.60, ActionKind.FILE_EXPORT: 0.08,
                 ActionKind.EMAIL_SEND: 0.25},
    Role.POWER_USER: {ActionKind.LOGIN: 0.15, ActionKind.DB_QUERY: 1.10,
                      ActionKind.FILE_ACCESS: 0.70, ActionKind.FILE_EXPORT: 0.12,
                      ActionKind.EMAIL_SEND: 0.30},
}

BENIGN_COUNTS = {Role.STAFF: 18, Role.DEVELOPER: 8, Role.ADMIN: 4,
                 Role.POWER_USER: 4}
SCENARIO_COUNTS = {Scenario.EXFILTRATION: 2, Scenario.STEALTH: 2,
                   Scenario.TAKEOVER: 1, Scenario.STAGING_EXFILTRATION: 2,
                   Scenario.EMAIL_LEAKAGE: 1}
COMPLIANCE_POWER_USERS = 2
SENSITIVE_PROB = {Role.STAFF: 0.08, Role.DEVELOPER: 0.10,
                  Role.ADMIN: 0.25, Role.POWER_USER: 0.30}
EXPORT_VOLUME_MEAN = {Role.STAFF: 250, Role.DEVELOPER: 280,
                      Role.ADMIN: 320, Role.POWER_USER: 400}
AFTER_HOURS_PROB = 0.004
NEW_LOCATION_PROB = 0.002
EXTERNAL_EMAIL_PROB = 0.15
STAGING_EXPORT_PROB = 0.08
# Insider onset: this many steps after warm-up, inclusive.
ONSET_MIN = 5
ONSET_MAX = 40


@dataclass
class SimConfig:
    total_steps: int = 240
    warmup_steps: int = 60
    mistake_prob: float = 0.002
    power_report_every: int = 24

    def validate(self) -> None:
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ValueError("warmup_steps must be in [0, total_steps)")
        if not 0.0 <= self.mistake_prob <= 1.0:
            raise ValueError(f"mistake_prob must be a probability, "
                             f"got {self.mistake_prob}")
        if self.power_report_every < 4:
            raise ValueError("power_report_every must be >= 4 (cycle spans 4 steps)")
        if self.warmup_steps + ONSET_MAX >= self.total_steps:
            raise ValueError("insider onset can fall past the end of the run")


@dataclass(frozen=True)
class ActorSpec:
    actor_id: str
    role: Role
    malicious: bool
    scenario: Optional[Scenario] = None
    start_step: Optional[int] = None
    compliance: bool = False
    style_mean: float = 14.6
    style_sd: float = 3.0
    report_phase: int = 0


def generate_roster(config: SimConfig, seed: int) -> tuple[ActorSpec, ...]:
    """Deterministic actor roster: benign actors by role, then the insiders.

    Insiders pose as staff; the first COMPLIANCE_POWER_USERS power users hold
    a standing bulk-transfer approval.
    """
    config.validate()
    rng = substream(seed, "roster")
    roster: list[ActorSpec] = []
    serial = 0

    def style() -> tuple[float, float]:
        mean = min(20.0, max(10.0, 14.6 + 1.8 * rng.gauss()))
        return mean, 2.5 + 2.0 * rng.random()

    for role in (Role.STAFF, Role.DEVELOPER, Role.ADMIN, Role.POWER_USER):
        for i in range(BENIGN_COUNTS[role]):
            serial += 1
            mean, sd = style()
            roster.append(ActorSpec(
                actor_id=f"u{serial:03d}", role=role, malicious=False,
                compliance=(role is Role.POWER_USER
                            and i < COMPLIANCE_POWER_USERS),
                style_mean=mean, style_sd=sd,
                report_phase=(rng.randint(0, config.power_report_every - 1)
                              if role is Role.POWER_USER else 0),
            ))
    for scenario in Scenario:
        for _ in range(SCENARIO_COUNTS[scenario]):
            serial += 1
            mean, sd = style()
            start = config.warmup_steps + rng.randint(ONSET_MIN, ONSET_MAX)
            roster.append(ActorSpec(
                actor_id=f"u{serial:03d}", role=Role.STAFF, malicious=True,
                scenario=scenario, start_step=start,
                style_mean=mean, style_sd=sd,
            ))
    return tuple(roster)


def roster_to_dict(roster) -> list[dict]:
    return [{
        "actor_id": a.actor_id, "role": a.role.value, "malicious": a.malicious,
        "scenario": a.scenario.value if a.scenario else None,
        "start_step": a.start_step, "compliance": a.compliance,
        "style_mean": round(a.style_mean, 4), "style_sd": round(a.style_sd, 4),
        "report_phase": a.report_phase,
    } for a in roster]


def roster_from_dict(items) -> tuple[ActorSpec, ...]:
    return tuple(ActorSpec(
        actor_id=i["actor_id"], role=Role(i["role"]), malicious=i["malicious"],
        scenario=Scenario(i["scenario"]) if i.get("scenario") else None,
        start_step=i.get("start_step"), compliance=i.get("compliance", False),
        style_mean=i.get("style_mean", 14.6), style_sd=i.get("style_sd", 3.0),
        report_phase=i.get("report_phase", 0),
    ) for i in items)


@dataclass(frozen=True)
class ScriptedAction:
    step: int
    kind: ActionKind
    payload: dict


@dataclass(frozen=True)
class ScenarioScript:
    scenario: Scenario
    start_step: int
    actions: tuple[ScriptedAction, ...]


def expand_scenario(scenario: Scenario, seed: int, start_step: int,
                    total_steps: int = 240) -> ScenarioScript:
    """Concrete, seeded action schedule for one insider.

    Attack phases repeat for the rest of the run; all volumes, jitter, and
    email bodies come from a substream of the seed, so the same arguments
    always produce the same script.
    """
    rng = substream(seed, "script", scenario.value, start_step)
    actions: list[ScriptedAction] = []

    def add(step: int, kind: ActionKind, **payload) -> None:
        if start_step <= step < total_steps:
            actions.append(ScriptedAction(step, kind, payload))

    if scenario is Scenario.EXFILTRATION:
        for base in range(start_step, total_steps, 60):
            for off, n in ((0, 3), (1, 3), (2, 2)):
                for _ in range(n):
                    add(base + off, ActionKind.DB_QUERY,
                        resource="customer_master", sensitivity="sensitive")
            for off in (3, 4):
                add(base + off, ActionKind.FILE_EXPORT,
                    volume=rng.randint(EXFIL_EXPORT_MIN, 6000),
                    resource="customer_master", destination="external")
            add(base + 5, ActionKind.EMAIL_SEND,
                recipient_domain="external", recipient=DENIED_DOMAIN,
                body=forensics.generate_leak_body(rng, dense=True))
    elif scenario is Scenario.STEALTH:
        # Opening cycle runs login, three exports, mail inside one window,
        # then drops into an irregular low-volume cadence.
        add(start_step, ActionKind.LOGIN, context="after_hours")
        for off in (2, 5, 8):
            add(start_step + off, ActionKind.FILE_EXPORT,
                volume=rng.randint(250, STEALTH_EXPORT_MAX),
                resource="shared_drive", destination="internal")
        add(start_step + 10, ActionKind.EMAIL_SEND,
            recipient_domain="external", recipient=LEAK_RECIPIENT,
            body=forensics.compose_body(rng, 13.0, 3.0, rng.randint(2, 4)))
        step = start_step + rng.randint(11, 13)
        while step < total_steps:
            add(step, ActionKind.LOGIN, context="after_hours")
            step += rng.randint(11, 13)
        step = start_step + 8 + rng.randint(3, 5)
        while step < total_steps:
            add(step, ActionKind.FILE_EXPORT,
                volume=rng.randint(250, STEALTH_EXPORT_MAX),
                resource="shared_drive", destination="internal")
            step += rng.randint(3, 5)
        step = start_step + 10 + rng.randint(12, 14)
        while step < total_steps:
            add(step, ActionKind.EMAIL_SEND,
                recipient_domain="external", recipient=LEAK_RECIPIENT,
                body=forensics.compose_body(rng, 13.0, 3.0, rng.randint(2, 4)))
            step += rng.randint(12, 14)
    elif scenario is Scenario.TAKEOVER:
        for base in range(start_step, total_steps, 60):
            add(base, ActionKind.LOGIN, context="new_location")
            for off, n in ((1, 3), (2, 3), (4, 2)):
                for _ in range(n):
                    add(base + off, ActionKind.DB_QUERY,
                        resource="hr_records", sensitivity="sensitive")
            add(base + 3, ActionKind.FILE_ACCESS,
                resource="admin_console", sensitivity="sensitive")
            add(base + 5, ActionKind.FILE_EXPORT,
                volume=rng.randint(2000, 4000),
                resource="hr_records", destination="external")
    elif scenario is Scenario.STAGING_EXFILTRATION:
        for base in range(start_step, total_steps, 50):
            for off, n in ((0, 4), (1, 4)):
                for _ in range(n):
                    add(base + off, ActionKind.DB_QUERY,
                        resource="customer_master", sensitivity="sensitive")
            for off in (2, 5, 8):
                add(base + off, ActionKind.FILE_EXPORT,
                    volume=rng.randint(800, 1500),
                    resource="customer_master", destination="staging")
            add(base + 10, ActionKind.FILE_EXPORT,
                volume=rng.randint(3600, 6000),
                resource="customer_master", destination="external")
            add(base + 11, ActionKind.EMAIL_SEND,
                recipient_domain="external", recipient="dropzone.example",
                body=forensics.generate_leak_body(rng, dense=True))
    elif scenario is Scenario.EMAIL_LEAKAGE:
        for base in range(start_step, total_steps, 40):
            add(base, ActionKind.LOGIN, context="after_hours")
            add(base + 1, ActionKind.FILE_ACCESS,
                resource="shared_drive", sensitivity="sensitive")
            for off in range(3, 16, 2):
                add(base + off, ActionKind.EMAIL_SEND,
                    recipient_domain="external", recipient=LEAK_RECIPIENT,
                    body=forensics.generate_leak_body(
                        rng, dense=rng.random() < 0.35))
    else:
        raise ValueError(f"unknown scenario {scenario!r}")

    actions.sort(key=lambda a: a.step)
    return ScenarioScript(scenario=scenario, start_step=start_step,
                          actions=tuple(actions))


@dataclass(frozen=True)
class SimResult:
    """One event log with its roster, truth and the run facts it was made
    with: what `truth.json` holds beside `events.jsonl`."""
    events: tuple[Event, ...]
    truths: tuple[GroundTruth, ...]
    roster: tuple[ActorSpec, ...]
    seed: int
    total_steps: int
    warmup_steps: int


def _benign_step_events(actor: ActorSpec, step: int, config: SimConfig,
                        rng: Xoshiro256StarStar) -> list[Event]:
    """One actor's routine activity for one step."""
    role = actor.role
    rates = RATES[role]
    pool = ROLE_RESOURCES[role]
    sens_p = SENSITIVE_PROB[role]
    out: list[Event] = []

    for _ in range(rng.poisson(rates[ActionKind.LOGIN])):
        u = rng.random()
        if u < AFTER_HOURS_PROB:
            context = "after_hours"
        elif u < AFTER_HOURS_PROB + NEW_LOCATION_PROB:
            context = "new_location"
        else:
            context = "normal"
        out.append(Event(step, actor.actor_id, ActionKind.LOGIN,
                         {"context": context}))

    for kind in (ActionKind.DB_QUERY, ActionKind.FILE_ACCESS):
        for _ in range(rng.poisson(rates[kind])):
            sensitivity = "sensitive" if rng.random() < sens_p else "normal"
            out.append(Event(step, actor.actor_id, kind,
                             {"resource": rng.choice(pool),
                              "sensitivity": sensitivity}))

    mean_vol = EXPORT_VOLUME_MEAN[role]
    for _ in range(rng.poisson(rates[ActionKind.FILE_EXPORT])):
        volume = max(20, int(round(mean_vol * 2.718281828 ** (0.5 * rng.gauss()))))
        dest = "staging" if rng.random() < STAGING_EXPORT_PROB else "internal"
        out.append(Event(step, actor.actor_id, ActionKind.FILE_EXPORT,
                         {"volume": volume, "resource": rng.choice(pool),
                          "destination": dest}))

    for _ in range(rng.poisson(rates[ActionKind.EMAIL_SEND])):
        body = forensics.compose_body(rng, actor.style_mean, actor.style_sd,
                                      rng.randint(2, 6))
        if rng.random() < EXTERNAL_EMAIL_PROB:
            payload = {"recipient_domain": "external",
                       "recipient": rng.choice(APPROVED_PARTNER_DOMAINS),
                       "body": body}
        else:
            payload = {"recipient_domain": "internal",
                       "recipient": INTERNAL_DOMAIN, "body": body}
        out.append(Event(step, actor.actor_id, ActionKind.EMAIL_SEND, payload))

    # Occasional policy slip: a mail to a deny-listed domain or an over-cap
    # external export. Each actor has one characteristic slip type, scripted
    # insiders are deliberately careful, and senior analysts do not slip.
    if (not actor.malicious and role != "power_user"
            and rng.random() < config.mistake_prob):
        if int(actor.actor_id.lstrip("u")) % 2 == 0:
            out.append(Event(step, actor.actor_id, ActionKind.EMAIL_SEND,
                             {"recipient_domain": "external",
                              "recipient": DENIED_DOMAIN,
                              "body": forensics.compose_body(
                                  rng, actor.style_mean, actor.style_sd, 3)}))
        else:
            out.append(Event(step, actor.actor_id, ActionKind.FILE_EXPORT,
                             {"volume": EXPORT_CAPS[role] + rng.randint(200, 1200),
                              "resource": rng.choice(pool),
                              "destination": "external"}))
    return out


def _power_cycle_events(actor: ActorSpec, config: SimConfig, seed: int,
                        total_steps: int) -> dict[int, list[Event]]:
    """Recurring analyst report cycle: query, stage, export, notify partner."""
    rng = substream(seed, "cycle", actor.actor_id)
    by_step: dict[int, list[Event]] = {}

    def put(step: int, kind: ActionKind, **payload) -> None:
        if step < total_steps:
            by_step.setdefault(step, []).append(
                Event(step, actor.actor_id, kind, payload))

    for base in range(actor.report_phase, total_steps, config.power_report_every):
        put(base, ActionKind.DB_QUERY,
            resource="analytics_db", sensitivity="sensitive")
        put(base + 1, ActionKind.FILE_EXPORT,
            volume=rng.randint(700, 1100),
            resource="analytics_db", destination="staging")
        put(base + 2, ActionKind.FILE_EXPORT,
            volume=rng.randint(2000, 3500),
            resource="analytics_db", destination="external")
        put(base + 3, ActionKind.EMAIL_SEND,
            recipient_domain="external",
            recipient=rng.choice(APPROVED_PARTNER_DOMAINS),
            body=forensics.compose_body(rng, actor.style_mean, actor.style_sd, 3))
    return by_step


def run_simulation(config: SimConfig, seed: int) -> SimResult:
    """Generate the full event log and ground truth for one run."""
    roster = generate_roster(config, seed)

    scripted: dict[str, dict[int, list[Event]]] = {}
    cycles: dict[str, dict[int, list[Event]]] = {}
    truths: list[GroundTruth] = []
    for actor in roster:
        if actor.malicious:
            actor_seed = substream(seed, "script-seed", actor.actor_id).next_u64()
            script = expand_scenario(actor.scenario, actor_seed & 0xFFFFFFFF,
                                     actor.start_step, config.total_steps)
            by_step: dict[int, list[Event]] = {}
            for a in script.actions:
                by_step.setdefault(a.step, []).append(
                    Event(a.step, actor.actor_id, a.kind, dict(a.payload)))
            scripted[actor.actor_id] = by_step
            truths.append(GroundTruth(actor_id=actor.actor_id, malicious=True,
                                      scenario=actor.scenario,
                                      first_malicious_step=actor.start_step))
        else:
            if actor.role is Role.POWER_USER:
                cycles[actor.actor_id] = _power_cycle_events(
                    actor, config, seed, config.total_steps)
            truths.append(GroundTruth(actor_id=actor.actor_id, malicious=False))

    streams = {a.actor_id: substream(seed, "actor", a.actor_id) for a in roster}
    events: list[Event] = []
    for step in range(config.total_steps):
        for actor in roster:
            events.extend(_benign_step_events(actor, step, config,
                                              streams[actor.actor_id]))
            if actor.actor_id in cycles:
                events.extend(cycles[actor.actor_id].get(step, ()))
            if actor.actor_id in scripted:
                events.extend(scripted[actor.actor_id].get(step, ()))
    return SimResult(events=tuple(events), truths=tuple(truths), roster=roster,
                     seed=seed, total_steps=config.total_steps,
                     warmup_steps=config.warmup_steps)
