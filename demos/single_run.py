"""One simulated run through one detector, with a readable alert digest.

Runs a shortened 110-step simulation (60 warmup) and the eg variant, then
prints who was flagged, on what evidence, and how that lines up with the
ground truth.
"""

from collections import Counter

from sentinel import evalkit, simkit

SEED = 101


def main() -> None:
    config = simkit.default_config()
    config.total_steps = 110
    sim = simkit.run_simulation(config, SEED)
    insiders = {t.actor_id: t for t in sim.truths if t.malicious}
    print(f"simulated {len(sim.events)} events for {len(sim.roster)} actors "
          f"({len(insiders)} insiders), seed {SEED}")

    alerts, report = evalkit.run_cell("eg", sim)
    confirmed = [a for a in alerts
                 if a.tier == "confirmed" and a.step >= config.warmup_steps]
    print(f"\n{len(confirmed)} confirmed alerts after warmup:")
    for actor_id in sorted({a.actor_id for a in confirmed}):
        first = min((a for a in confirmed if a.actor_id == actor_id),
                    key=lambda a: a.step)
        kinds = Counter(e.kind.value for a in confirmed
                        if a.actor_id == actor_id for e in a.evidence)
        truth = insiders.get(actor_id)
        label = (f"insider ({truth.scenario.value}, onset {truth.first_malicious_step})"
                 if truth else "benign  <-- false positive")
        print(f"  {actor_id}  first at step {first.step:3d}  "
              f"risk {first.score:4.1f}  gates {list(first.gates)}  {label}")
        print(f"          evidence kinds: {dict(kinds)}")

    print(f"\nactor precision {report.actor_precision:.3f}  "
          f"recall {report.actor_recall:.3f}  F1 {report.actor_f1:.3f}  "
          f"TTD avg {report.ttd_avg:.1f} steps")
    missed = set(insiders) - {a.actor_id for a in confirmed}
    if missed:
        print(f"missed insiders: {sorted(missed)} "
              f"(short run; the full 240-step run catches them)")


if __name__ == "__main__":
    main()
