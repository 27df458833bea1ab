"""Rainbow connectivity toolkit.

A graph is rainbow connected under an edge coloring when every vertex pair is
joined by a path whose edge colors are pairwise distinct; the rainbow
connection number rc(G) is the fewest colors making that possible.  This
package bundles the pieces needed to study rc on random graphs at desk scale:

- :mod:`rainbowconn.graphs`: canonical graph container, binomial and random
  regular generators, BFS, diameter, degree stats and the unique cycle
  near a vertex;
- :mod:`rainbowconn.coloring`: the near-optimal randomized coloring for
  binomial graphs near the connectivity threshold, the distance-bounded
  greedy coloring for regular graphs, and the cycle-class recoloring pass;
- :mod:`rainbowconn.verify`: exact and budgeted rainbow path verifiers plus
  a small-instance brute-force rc solver;
- :mod:`rainbowconn.pairing`: rainbow tree growth, the pairing of
  root-to-leaf paths by one maximum matching, and witness-path assembly;
- :mod:`rainbowconn.experiment` / :mod:`rainbowconn.cli`: sweep harness and
  command line front end.
"""

from .errors import (
    GenerationExhausted,
    GuardError,
    GuaranteeViolation,
    NoStructure,
    NotConnected,
    PaletteExhausted,
    ParityError,
    RainbowError,
)

__version__ = "0.1.0"

__all__ = [
    "RainbowError",
    "ParityError",
    "GenerationExhausted",
    "NotConnected",
    "PaletteExhausted",
    "GuardError",
    "NoStructure",
    "GuaranteeViolation",
    "__version__",
]
