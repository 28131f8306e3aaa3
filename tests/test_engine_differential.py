"""Differential test: the engine against its frozen reference copy.

``oracle_engine`` is the correlation engine as it stood before every layer
read the window through one summary. Both engines run the same small,
hostile-shaped logs for every variant and three base thresholds, and must
write byte-identical alert logs; the engine runs all twelve cells in one
shared feature pass, the reference one cell at a time. The golden digests
pin simulator-shaped logs; these logs pin the edges a rewrite is likely to
break: events leaving the window at its first and last step, several events
per actor in one step, export volumes on the large-export line and tied,
both suspicious login contexts in one step, approved, denied and unapproved
recipients, role peers for peer normalisation, a compliance power user, and
a staged exfiltration chain that opens the gates and the intent layer.
"""

import oracle_engine
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentinel import forensics, siem
from sentinel.events import ActionKind, Event, Role, serialize_alert_log
from sentinel.simkit import ActorSpec

ROSTER = [ActorSpec(f"u00{i}", Role.STAFF, malicious=i == 2)
          for i in range(1, 5)] + [
    ActorSpec("u005", Role.POWER_USER, malicious=False, compliance=True),
    ActorSpec("u006", Role.POWER_USER, malicious=False)]
MALICIOUS = ["u002"]
ACTORS = [a.actor_id for a in ROSTER]
WINDOW = siem.WINDOW
VARIANTS = ("lsc", "ce", "eg", "eg-pt")
THETAS = (3.0, 4.0, 6.0)

RECIPIENTS = ("partnercorp.example",   # approved partner
              "darkpartner.example",   # denied by policy
              "privatemail.example",   # external, not approved
              "corp.example")
BODIES = ("quarterly budget review notes",
          "urgent: verify your password immediately, account suspended",
          "click here to confirm now, wire transfer overdue")


def _payload(kind):
    if kind is ActionKind.LOGIN:
        return st.fixed_dictionaries({"context": st.sampled_from(
            ["normal", "normal", "after_hours", "new_location"])})
    if kind in (ActionKind.DB_QUERY, ActionKind.FILE_ACCESS):
        return st.fixed_dictionaries({
            "resource": st.sampled_from(["crm_db", "wiki", "hr_records",
                                         "customer_master"]),
            "sensitivity": st.sampled_from(["normal", "sensitive"])})
    if kind is ActionKind.FILE_EXPORT:
        return st.fixed_dictionaries({
            "volume": st.sampled_from([0, 300, 999, 1000, 1000, 4000, 10_000])
            | st.integers(0, 6000),
            "resource": st.sampled_from(["crm_db", "shared_drive"]),
            "destination": st.sampled_from(["internal", "external",
                                            "staging"])})
    return st.tuples(st.sampled_from(RECIPIENTS),
                     st.sampled_from(BODIES)).map(lambda rb: {
        "recipient_domain": "internal" if rb[0] == "corp.example"
        else "external", "recipient": rb[0], "body": rb[1]})


@st.composite
def _event(draw, step, actor=None):
    kind = draw(st.sampled_from(list(ActionKind)))
    return Event(step, actor or draw(st.sampled_from(ACTORS)), kind,
                 draw(_payload(kind)))


def _chain(actor, t, staged, volume, resource, recipient):
    """Sensitive read, `staged` staging exports, a large external export and
    mail to an unapproved or denied domain, one step apart."""
    def export(step, destination, v):
        return Event(step, actor, ActionKind.FILE_EXPORT,
                     {"volume": v, "resource": "crm_db",
                      "destination": destination})
    out = t + staged + 1
    return ([Event(t, actor, ActionKind.DB_QUERY,
                   {"resource": resource, "sensitivity": "sensitive"})]
            + [export(t + i, "staging", volume) for i in range(1, staged + 1)]
            + [export(out, "external", 4000),
               Event(out + 1, actor, ActionKind.EMAIL_SEND,
                     {"recipient_domain": "external", "recipient": recipient,
                      "body": BODIES[0]})])


@st.composite
def logs(draw):
    """(events, total_steps, warmup_steps) for a short, valid log."""
    total = draw(st.integers(WINDOW + 6, WINDOW + 16))
    warmup = draw(st.integers(5, 12))
    # A post-warm-up step whose window just lost the events at s - 20 and
    # still holds those at s - 19.
    s = draw(st.integers(WINDOW, total - 1))
    steps = draw(st.lists(st.integers(0, total - 1), min_size=8, max_size=50))
    events = [draw(_event(step))
              for step in steps + [s - WINDOW, s - WINDOW + 1]]
    burst_step = draw(st.integers(0, total - 1))
    burst_actor = draw(st.sampled_from(ACTORS))
    events += [draw(_event(burst_step, burst_actor))
               for _ in range(draw(st.integers(2, 4)))]
    login_step = draw(st.integers(0, total - 1))
    events += [Event(login_step, burst_actor, ActionKind.LOGIN,
                     {"context": c}) for c in ("after_hours", "new_location")]
    # The compliance power user runs the chain as often as the others
    # together, so the compliance override gets decisions to make.
    events += _chain(draw(st.sampled_from(ACTORS + ["u005"] * 5)),
                     draw(st.integers(0, total - 6)), draw(st.integers(0, 3)),
                     draw(st.sampled_from([999, 1000])),
                     draw(st.sampled_from(["crm_db", "customer_master"])),
                     draw(st.sampled_from(RECIPIENTS[1:3])))
    # Routine internal exports give role peers non-zero peer volumes.
    events += [Event(step, actor, ActionKind.FILE_EXPORT,
                     {"volume": volume, "resource": "shared_drive",
                      "destination": "internal"})
               for step, actor, volume in draw(st.lists(st.tuples(
                   st.integers(0, total - 1), st.sampled_from(ACTORS[:4]),
                   st.sampled_from([250, 400, 999])), max_size=16))]
    tied = draw(st.integers(0, total - 1))
    events += [Event(tied, a, ActionKind.FILE_EXPORT,
                     {"volume": 1000, "resource": "crm_db",
                      "destination": "external"}) for a in ACTORS[:2]]
    events.sort(key=lambda e: e.step)   # stable: same-step order is kept
    return events, total, warmup


@pytest.fixture(scope="module")
def model():
    corpus = forensics.generate_synthetic_corpus(7, 200, 60)
    return forensics.train_classifier(corpus)


@settings(max_examples=24, derandomize=True, deadline=None)
@given(log=logs())
def test_engine_matches_frozen_reference(model, log):
    # All twelve cells go through one shared feature pass; each must match
    # the reference engine run on its own.
    events, total, warmup = log
    cells = [(name, theta) for name in VARIANTS for theta in THETAS]
    got = siem.SiemEngine(
        [siem.VariantConfig(name, theta_base=theta) for name, theta in cells],
        ROSTER, MALICIOUS, 11, model=model).run(events, total, warmup)
    for (name, theta), alerts in zip(cells, got):
        expected = oracle_engine.run_detection(
            events, ROSTER, MALICIOUS,
            oracle_engine.variant_config(name, theta_base=theta), 11,
            total, warmup, model=model if name == "eg-pt" else None)
        assert serialize_alert_log(alerts) == \
            serialize_alert_log(expected), (name, theta)
