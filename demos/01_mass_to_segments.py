#!/usr/bin/env python3
"""From raw attention usage to adaptive segments, step by step.

We fake a recent-query window whose attention concentrates on two hot spots,
then watch the pipeline: causal max-padded aggregation, average-pool
smoothing, mass normalization, cumulative-mass cuts, and split/merge.
"""

import numpy as np

from masskv import UsageAccumulator, cut_points, default_config, normalize_mass, segment, smooth

T = 120
W = 12
rng = np.random.default_rng(0)

# Take W recent attention rows over a cache of T positions, oldest first,
# each straight into a UsageAccumulator. Two hot spots (around 25 and 80)
# soak up most of the attention; the causal mask hides the newest positions
# from the older queries, so row j saw only the first T - W + 1 + j.
acc = UsageAccumulator()
for j in range(W):
    seen = T - W + 1 + j
    u = np.full(seen, 0.2)
    for center in (25, 80):
        u += 4.0 * np.exp(-0.5 * ((np.arange(seen) - center) / 5.0) ** 2)
    u *= 1.0 + 0.1 * rng.uniform(-1, 1, size=seen)
    acc.add(u / u.sum())

cfg = default_config().replace(min_seg_len=4, max_seg_len=32)

usage = acc.fold()
smoothed = smooth(usage, cfg.smooth_kernel)
mass = normalize_mass(smoothed, cfg.epsilon)
print(f"aggregated usage over last {W} queries; mass sums to {mass.sum():.12f}")

cuts = cut_points(mass, cfg.segment_mass)
print(f"raw cumulative-mass cuts at {cfg.segment_mass:.0%} steps: {cuts.tolist()}")

segs = segment(mass, cfg)
print(f"after split(<= {cfg.max_seg_len}) and merge(>= {cfg.min_seg_len}):")
for a, b in segs:
    bar = "#" * int(400 * mass[a:b].sum())
    print(f"  [{a:3d}, {b:3d})  len {b - a:3d}  mass {mass[a:b].sum():.3f} {bar}")

print("\nhot spots get short segments, quiet stretches get long ones;")
print("every segment will later receive a retention quota of at least q_min.")
