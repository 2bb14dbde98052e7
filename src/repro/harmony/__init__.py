"""Active Harmony: the paper's automated tuning infrastructure.

The package mirrors the architecture of Figure 2 of the paper:

* :mod:`repro.harmony.parameter` — tunable parameters and configurations
  (each parameter is one dimension of the search space, §II.B),
* :mod:`repro.harmony.simplex` — the integer-adapted Nelder–Mead simplex
  that is the kernel of the Adaptation Controller,
* :mod:`repro.harmony.search` — the strategy interface plus baseline
  strategies (random search, coordinate descent) used for ablations,
* :mod:`repro.harmony.server` / :mod:`repro.harmony.client` — the Harmony
  server and the minimal client API applications call
  (register / fetch / report),
* :mod:`repro.harmony.scaling` — *parameter duplication* and *parameter
  partitioning* (§III.B) for scalable cluster tuning,
* :mod:`repro.harmony.history` — tuning histories and convergence metrics.
"""
