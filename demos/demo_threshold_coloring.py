"""
Coloring a threshold-density graph
==================================

The sparse-graph scheme: pendant edges get reserved colors, a small
random base palette covers everything else, and two extra colors (Red
and Blue) stand by for degree-2 conflicts.  At the threshold the palette
stays polylogarithmic while rainbow paths stay short.
"""

from collections import Counter

from rainbowconn.coloring import color_threshold, threshold_params
from rainbowconn.graphs import GenParams, connected, gen_gnp
from rainbowconn.verify import report_text, verify_sampled

# seed 10 gives a connected instance that still has pendant vertices,
# so the pendant rule fires; under the default cutoff log n / 100 no
# vertex counts as small, so Red and Blue stay unused here (an explicit
# small_threshold for color_threshold makes them fire)
n = 2000
g = gen_gnp(GenParams(n=n, omega=2.0, seed=10))
assert connected(g), "pick a seed whose instance is connected"

params = threshold_params(n)
print(f"n={n}: L={params.L:.3f}  k={params.k}  gamma={params.gamma}  "
      f"q={params.q}  p0={params.p0:.4f}")

c = color_threshold(g, params, seed=0)
print(f"\npalette size {c.palette_size} for {g.m} edges")

# provenance says which rule produced each edge color
for tag, count in sorted(Counter(c.provenance).items()):
    print(f"  {tag:10s} {count}")

# With q colors drawn at random, most short paths are automatically
# rainbow; sample pairs and search within the palette-length cap.
rep = verify_sampled(g, c, 100, seed=1, budget=200000)
print()
print(report_text(rep))
