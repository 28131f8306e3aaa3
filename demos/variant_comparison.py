"""Small variant-by-seed matrix with a side-by-side metric table.

Uses three seeds at the full 240-step configuration so the layered variants
have room to separate. Takes roughly half a minute.
"""

from sentinel import evalkit

SEEDS = (101, 102, 103)
VARIANTS = ("lsc", "ce", "eg", "eg-pt")


def main() -> None:
    matrix, _ = evalkit.run_experiment(variants=VARIANTS, seeds=SEEDS)
    rows = {r.variant: r for r in matrix if r.seed == -1}
    print(f"ran {', '.join(VARIANTS)} over seeds {list(SEEDS)}")

    header = f"{'metric':<24}" + "".join(f"{v:>10}" for v in VARIANTS)
    print("\n" + header)
    print("-" * len(header))
    metrics = (
        ("actor precision", "actor_precision", "{:.3f}"),
        ("actor recall", "actor_recall", "{:.3f}"),
        ("actor F1", "actor_f1", "{:.3f}"),
        ("confirmed precision", "confirmed_precision", "{:.3f}"),
        ("confirmed FP/run", "confirmed_fp", "{:.1f}"),
        ("confirmed alerts/run", "confirmed_alerts", "{:.1f}"),
        ("TTD avg (steps)", "ttd_avg", "{:.2f}"),
    )
    for label, attr, fmt in metrics:
        cells = "".join(f"{fmt.format(getattr(rows[v], attr)):>10}"
                        for v in VARIANTS)
        print(f"{label:<24}{cells}")
    leak = {v: rows[v].ttd_scenario.get("email_leakage") for v in VARIANTS}
    cells = "".join(f"{('%.1f' % leak[v]) if leak[v] is not None else '-':>10}"
                    for v in VARIANTS)
    print(f"{'TTD email leakage':<24}{cells}")
    print("\nreading: each layer trades alert volume for precision; the "
          "pretrained classifier (eg-pt) buys back leak-detection latency.")


if __name__ == "__main__":
    main()
