"""cfl: a desk-scale laboratory for clique factors under clique-independence bounds.

Subpackages by concern:

* graphs        immutable bitset graphs, wire formats, generators (circulants
                among them), clique listing
* invariants    exact/greedy clique-independence, clique covers, the tiny-n
                degree-threshold oracle
* tiling        exact maximum clique tilings and factor decisions
* constructions builders for the extremal graph families and the graph
                spec resolver
* bounds        log-space evaluation of the probabilistic and threshold formulas
* regularity    density, regular/super-regular certification, reduced graphs
* embedding     dependent-random-choice selectors and the regular-tuple
                clique embedder
* absorption    absorber / reachable-set / absorbing-set certifiers
* cli           the ``cfl`` command-line harness
"""

__version__ = "0.1.0"
