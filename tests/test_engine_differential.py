"""Differential test: the engine against its frozen reference copy.

``oracle_engine`` is the correlation engine as it stood before every layer
read the window through one summary. Both engines run the same small,
hostile-shaped logs for every variant and three base thresholds, and must
write byte-identical alert logs; the engine runs all twelve cells in one
shared feature pass, the reference one cell at a time. The golden digests
pin simulator-shaped logs; these logs pin the edges a rewrite is likely to
break: events leaving the window at its first and last step, several events
per actor in one step, export volumes on the large-export line, on both
sides of the plan library's volume limits (500 and 3600) and tied, volumes
whose window sums pass 2**53 (where float sums round by order), both
suspicious login contexts in one step, approved, denied and unapproved
recipients, role peers for peer normalisation, a compliance power user, a
staged exfiltration chain that opens the gates and the intent layer, and
mail bodies on the keyword scorer's edges: repeated keywords, phrases split
by runs of whitespace or a newline, apostrophes, and punctuation inside a
phrase. Warm-ups run past the window length, with policy hits, plan-matching
events and mail on both sides of the last step whose events leave the window
before the first decision. The keyword phishing score is also compared with
the frozen scorer on generated text, each actor's live window summary with a
fresh one at every step, each role forest fitted on first read with one
fitted at once from a fresh warm-up sample, and a guard fails if the
reference starts to import the live ToM, engine or anomaly layers.
"""

import ast
from pathlib import Path

import oracle_engine
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentinel import anomaly, forensics, siem
from sentinel.events import ActionKind, Event, Role, serialize_alert_log
from sentinel.rng import substream
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
          "click here to confirm now, wire transfer overdue",
          "urgent URGENT urgent: password password; penalty penalty",
          "please  wire   transfer the\nsalary, click\n\nhere\tright away",
          "don't share the patient's password; it's the payroll's trade secret",
          "verify, your account: wire-transfer. click.here act-now final, notice")


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
            "volume": st.sampled_from([0, 300, 500, 501, 999, 1000, 1000,
                                      3599, 3600, 4000, 10_000, 2**53 - 1,
                                      2**52])
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


def _chain(actor, t, staged, volume, resource, recipient, out_volume):
    """Sensitive read, `staged` staging exports, an external export of
    `out_volume` and mail to an unapproved or denied domain, one step
    apart."""
    def export(step, destination, v):
        return Event(step, actor, ActionKind.FILE_EXPORT,
                     {"volume": v, "resource": "crm_db",
                      "destination": destination})
    out = t + staged + 1
    return ([Event(t, actor, ActionKind.DB_QUERY,
                   {"resource": resource, "sensitivity": "sensitive"})]
            + [export(t + i, "staging", volume) for i in range(1, staged + 1)]
            + [export(out, "external", out_volume),
               Event(out + 1, actor, ActionKind.EMAIL_SEND,
                     {"recipient_domain": "external", "recipient": recipient,
                      "body": BODIES[0]})])


@st.composite
def logs(draw):
    """(events, total_steps, warmup_steps) for a short, valid log."""
    warmup = draw(st.integers(5, WINDOW + 8))
    total = draw(st.integers(max(WINDOW, warmup) + 6,
                             max(WINDOW, warmup) + 16))
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
                     draw(st.sampled_from(RECIPIENTS[1:3])),
                     draw(st.sampled_from([3599, 3600, 4000])))
    # Routine internal exports give role peers non-zero peer volumes.
    events += [Event(step, actor, ActionKind.FILE_EXPORT,
                     {"volume": volume, "resource": "shared_drive",
                      "destination": "internal"})
               for step, actor, volume in draw(st.lists(st.tuples(
                   st.integers(0, total - 1), st.sampled_from(ACTORS[:4]),
                   st.sampled_from([250, 400, 500, 501, 999])), max_size=16))]
    tied = draw(st.integers(0, total - 1))
    events += [Event(tied, a, ActionKind.FILE_EXPORT,
                     {"volume": 1000, "resource": "crm_db",
                      "destination": "external"}) for a in ACTORS[:2]]
    # Events at or before warmup - WINDOW leave the window before the first
    # decision; those after it stay for it. Put a denied sensitive read, an
    # after-hours login and phishing mail to a denied domain (policy hits,
    # plan-library matches and a phishing score) on both sides.
    edge_actor = draw(st.sampled_from(ACTORS))
    for step in (warmup - WINDOW, warmup - WINDOW + 1):
        if step >= 0:
            events += [
                Event(step, edge_actor, ActionKind.DB_QUERY,
                      {"resource": "hr_records", "sensitivity": "sensitive"}),
                Event(step, edge_actor, ActionKind.LOGIN,
                      {"context": "after_hours"}),
                Event(step, edge_actor, ActionKind.EMAIL_SEND,
                      {"recipient_domain": "external",
                       "recipient": "darkpartner.example", "body": BODIES[1]})]
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
        ROSTER, 11, model=model).run(events, total, warmup,
                                     frozenset(MALICIOUS).__contains__)
    for (name, theta), alerts in zip(cells, got):
        expected = oracle_engine.run_detection(
            events, ROSTER, MALICIOUS,
            oracle_engine.variant_config(name, theta_base=theta), 11,
            total, warmup, model=model if name == "eg-pt" else None)
        assert serialize_alert_log(alerts) == \
            serialize_alert_log(expected), (name, theta)


class _CheckedEngine(siem.SiemEngine):
    """Compares each actor's live summary, after every eviction, with one
    summarized afresh from its window, and its export volume with the
    window's volumes summed as floats in order."""

    def _evict(self, state, now):
        super()._evict(state, now)
        assert state.summary == siem.summarize(
            state.window, self.rules.approved_email_domains)
        in_order = 0.0
        for e in state.window:
            if e.kind is ActionKind.FILE_EXPORT:
                in_order += e.payload["volume"]
        assert state.summary.export_volume == in_order, (now, state.window)


@st.composite
def big_volume_logs(draw):
    """A log from logs() plus exports whose window sums pass 2**53, with odd
    volumes after them, where a sum rounded once differs from one rounded
    after every addition."""
    events, total, warmup = draw(logs())
    events += [Event(step, actor, ActionKind.FILE_EXPORT,
                     {"volume": volume, "resource": "crm_db",
                      "destination": "internal"})
               for step, actor, volume in draw(st.lists(st.tuples(
                   st.integers(0, total - 1), st.sampled_from(ACTORS[:2]),
                   st.sampled_from([2**53 - 1, 2**52, 2**52 + 1, 1, 501])),
                   min_size=4, max_size=24))]
    events.sort(key=lambda e: e.step)
    return events, total, warmup


@settings(max_examples=60, derandomize=True, deadline=None)
@given(log=big_volume_logs())
def test_live_window_summary_matches_a_fresh_summary(log):
    events, total, warmup = log
    _CheckedEngine([siem.VariantConfig("lsc")], ROSTER, 11).run(
        events, total, warmup, frozenset(MALICIOUS).__contains__)


def _warmup_vectors(events, warmup):
    """Each role's warm-up forest sample, from windows summarized afresh."""
    approved = siem.PolicyRules.bundled().approved_email_domains
    roles = {a.actor_id: a.role for a in ROSTER}
    vectors = {}
    for step in range(siem.SAMPLE_EVERY, warmup, siem.SAMPLE_EVERY):
        for actor in sorted(roles):
            window = [e for e in events if e.actor_id == actor
                      and step - WINDOW < e.step <= step]
            if window:
                vectors.setdefault(roles[actor], []).append(
                    anomaly.behavior_vector(siem.summarize(window, approved)))
    return vectors


@settings(max_examples=24, derandomize=True, deadline=None)
@given(log=logs())
def test_forests_fitted_on_first_read_equal_eager_fits(log):
    events, total, warmup = log
    engine = siem.SiemEngine([siem.VariantConfig(v, theta_base=3.0)
                              for v in ("lsc", "eg")], ROSTER, 11)
    engine.run(events, total, warmup, frozenset(MALICIOUS).__contains__)
    vectors = _warmup_vectors(events, warmup)
    assert set(engine.forests) == {role for role, sample in vectors.items()
                                   if len(sample) >= 2}
    for role, fit in engine.forests.items():
        eager = anomaly.IsoForest.fit(vectors[role], seed=substream(
            11, "forest", role.value).next_u64() & 0x7FFFFFFF)
        lazy = fit()
        assert lazy is fit()   # fitted once
        assert lazy.trees == eager.trees
        assert [lazy.score(v) for v in vectors[role]] == \
            [eager.score(v) for v in vectors[role]]


_WORDS = (forensics.SENSITIVE_KEYWORDS + forensics.URGENT_KEYWORDS
          + ("budget", "review", "it's", "x"))


@given(parts=st.lists(st.tuples(
    st.sampled_from(_WORDS).flatmap(lambda w: st.sampled_from(
        [w, w.upper(), w.replace(" ", "  "), w.replace(" ", "\n"),
         w.replace(" ", ", "), w + "'s"])),
    st.sampled_from([" ", "  ", "\n", ". ", ", ", "-", "! ", "'"])),
    max_size=40))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_keyword_score_matches_frozen_reference(parts):
    body = "".join(word + sep for word, sep in parts)
    assert forensics.keyword_phishing_score(body) == \
        oracle_engine.forensics.keyword_phishing_score(body)


_VOLUMES = st.integers(0, 3000) | st.integers(0, 2**60) | st.floats(
    0.0, 1e300)


@given(volume=_VOLUMES, peers=st.lists(_VOLUMES, min_size=3, max_size=12))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_peer_normalize_matches_frozen_reference(volume, peers):
    # Odd and even peer groups: an even group's median and MAD are the
    # mean of the two middle values.
    peers = [float(v) for v in peers]
    assert siem.peer_normalize(float(volume), peers, 0) == \
        oracle_engine.peer_normalize(float(volume), peers, 0)


# -- the reference stays frozen ---------------------------------------------

LIVE_LAYERS = ("sentinel.tom", "sentinel.siem", "sentinel.anomaly")


def _sentinel_uses(source):
    """(module, name) for each name a file takes from a ``sentinel`` module,
    by import or as an attribute of an imported module; name "" for the
    import of a whole module and "*" when it is passed on as it is."""
    tree = ast.parse(source)
    modules, uses, bases = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sentinel":
                    uses.add((alias.name, "" if alias.asname else "*"))
                    if alias.asname:
                        modules[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "sentinel":
            for alias in node.names:
                if node.module == "sentinel":
                    module = f"sentinel.{alias.name}"
                    modules[alias.asname or alias.name] = module
                    uses.add((module, ""))
                else:
                    uses.add((node.module, alias.name))
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name):
            bases.add(id(node.value))
            if node.value.id in modules:
                uses.add((modules[node.value.id], node.attr))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in modules and \
                id(node) not in bases:
            uses.add((modules[node.id], "*"))
    return uses


def _breaks_freeze(uses):
    return sorted(
        (module, name) for module, name in uses
        if module in LIVE_LAYERS or (module == "sentinel.forensics"
                                     and name not in ("", "PretrainedModel")))


@pytest.mark.parametrize("name", ["oracle_engine.py", "oracle_layers.py"])
def test_frozen_reference_uses_no_live_layer(name):
    source = (Path(__file__).parent / name).read_text("utf-8")
    assert _breaks_freeze(_sentinel_uses(source)) == []


def test_freeze_guard_flags_each_way_in():
    for source, bad in [
            ("from sentinel import forensics, tom\nforensics.tokenize",
             [("sentinel.forensics", "tokenize"), ("sentinel.tom", "")]),
            ("import sentinel.siem", [("sentinel.siem", "*")]),
            ("from sentinel.anomaly import IsoForest",
             [("sentinel.anomaly", "IsoForest")]),
            ("import sentinel.forensics as f\nrun(f)",
             [("sentinel.forensics", "*")]),
            ("from sentinel.forensics import PretrainedModel, load_model",
             [("sentinel.forensics", "load_model")])]:
        assert _breaks_freeze(_sentinel_uses(source)) == bad, source
