"""Per-relation cost of the fuzz gate, and the pairings and kernel evaluations per context.

Usage: PYTHONPATH=src python scripts/relation_costs.py [--chunks 20] [--trials 50] [--seed 20240501]

The configuration is the fuzz gate's: dims 2-6, 1-4 observables, full-rank and
rank-1 states, every relation group and the f labels wy, sld and wyd:0.3, run
in chunks of --trials trials as ``run_fuzz`` runs them.  Each chunk is drawn
and grouped by (dim, n) into fresh contexts (the ``draw`` row), every
``Relation.evaluate`` runs in table order on each context, once per f label
for a per-f relation, and the samples are filed into the stats (the
``filing`` row).  A pairing or kernel shared by several relations is made, and
timed, by the first relation in table order that reads it.  Times are means
per chunk in ms, by ``time.perf_counter``.

The counts come from a separate pass over the first chunk, with
``SpectralContext.pair`` and first-time ``SpectralContext.weights`` evaluations
counted per context.
"""

from __future__ import annotations

import argparse
import time
from collections import Counter

from skewsharp import fuzz
from skewsharp.gcov import resolve_monotone
from skewsharp.skew import SpectralContext


def chunk_times(config: fuzz.FuzzConfig, fs, trials, times: Counter) -> None:
    """Add one chunk's seconds per row to ``times``."""
    t0 = time.perf_counter()
    groups = fuzz.draw_groups(config, trials)
    times["draw"] += time.perf_counter() - t0
    rows = []
    for group in groups:
        out = []
        for r in fuzz.RELATIONS:
            for f in fs if r.per_f else (None,):
                t0 = time.perf_counter()
                sample = r.evaluate(group.ctx, f)
                times[r.rid] += time.perf_counter() - t0
                if sample is not None:
                    out.append((r.rid, f and f.label, *sample))
        rows.append(out)
    stats = fuzz.FuzzStats(seed=config.seed, config=config.to_dict(), per_relation={})
    t0 = time.perf_counter()
    fuzz._record_chunk(stats, config, fs, groups, rows)
    times["filing"] += time.perf_counter() - t0


def context_counts(config: fuzz.FuzzConfig, fs, trials) -> list[tuple[int, int]]:
    """(pairings, kernel evaluations) of each context of one chunk."""
    pair, weights = SpectralContext.pair, SpectralContext.weights
    counts: dict[int, list[int]] = {}

    def counted_pair(ctx, W):
        counts.setdefault(id(ctx), [0, 0])[0] += 1
        return pair(ctx, W)

    def counted_weights(ctx, g):
        if ("weights", g) not in ctx.memo:
            counts.setdefault(id(ctx), [0, 0])[1] += 1
        return weights(ctx, g)

    SpectralContext.pair, SpectralContext.weights = counted_pair, counted_weights
    try:
        groups = fuzz.draw_groups(config, trials)
        for group in groups:
            fuzz.group_margins(group.ctx, config.relations, fs)
    finally:
        SpectralContext.pair, SpectralContext.weights = pair, weights
    return [tuple(counts.get(id(group.ctx), (0, 0))) for group in groups]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chunks", type=int, default=20, help="chunks timed")
    parser.add_argument("--trials", type=int, default=50, help="trials per chunk")
    parser.add_argument("--seed", type=int, default=20240501)
    args = parser.parse_args(argv)
    config = fuzz.FuzzConfig(trials=args.chunks * args.trials, seed=args.seed)
    fs = [resolve_monotone(label) for label in config.f_labels]
    chunks = [range(c * args.trials, (c + 1) * args.trials) for c in range(args.chunks)]

    times: Counter = Counter()
    for trials in chunks:
        chunk_times(config, fs, trials, times)
    names = ["draw", *dict.fromkeys(r.rid for r in fuzz.RELATIONS), "filing"]
    total = sum(times.values())
    print(f"mean ms per chunk of {args.trials} trials over {args.chunks} chunks; "
          f"f labels {', '.join(config.f_labels)}")
    print("| row | ms | share |")
    print("|---|---|---|")
    for name in names:
        print(f"| {name} | {1e3 * times[name] / args.chunks:.3f} | {100 * times[name] / total:.1f} % |")
    print(f"| total | {1e3 * total / args.chunks:.3f} | 100.0 % |")

    counts = context_counts(config, fs, chunks[0])
    print(f"\nper context, first chunk ({len(counts)} contexts): (pairings, kernel evaluations) x contexts")
    for (pairings, kernels), k in sorted(Counter(counts).items()):
        print(f"  ({pairings}, {kernels}) x {k}")


if __name__ == "__main__":
    main()
