"""repro — reproduction of "Automated Cluster-Based Web Service Performance
Tuning" (Chung & Hollingsworth, HPDC 2004).

The package provides, from scratch:

* **Active Harmony** (:mod:`repro.harmony`) — the automated tuning
  infrastructure: integer-adapted Nelder–Mead simplex, tuning
  server/clients, and the §III.B scaling schemes (parameter duplication
  and parameter partitioning),
* **TPC-W** (:mod:`repro.tpcw`) — the benchmark workload: Table 1 mixes,
  emulated browsers, item catalog, WIPS metrics,
* **the cluster substrate** (:mod:`repro.cluster`) — parametric
  performance models of the Squid / Tomcat / MySQL three-tier stack with
  the paper's 23 tunable parameters,
* **two measurement backends** — analytic queueing model
  (:mod:`repro.model`) and request-level discrete-event simulation
  (:mod:`repro.des`),
* **the tuning layer** (:mod:`repro.tuning`) — iteration protocol,
  cluster tuning sessions, workload-shift adaptation, and the §IV
  automatic reconfiguration algorithm,
* **experiment drivers** (:mod:`repro.experiments`) — one per table and
  figure of the paper's evaluation.

Quickstart::

    from repro import (AnalyticBackend, ClusterSpec, ClusterTuningSession,
                       Scenario, SHOPPING_MIX, make_scheme)

    cluster = ClusterSpec.three_tier(1, 1, 1)
    scenario = Scenario(cluster=cluster, mix=SHOPPING_MIX, population=750)
    session = ClusterTuningSession(AnalyticBackend(), scenario,
                                   scheme=make_scheme(scenario, "default"))
    session.run(200)
    print(session.best_configuration())
"""

from importlib import import_module

#: Public name -> the module that defines it.  The module loads on first
#: access (PEP 562), so ``import repro`` alone loads no subpackage.
_EXPORTS = {
    # harmony
    "IntParameter": "repro.harmony.parameter",
    "ConstraintSet": "repro.harmony.constraints",
    "OrderingConstraint": "repro.harmony.constraints",
    "ParameterSpace": "repro.harmony.parameter",
    "Configuration": "repro.harmony.parameter",
    "NelderMeadSimplex": "repro.harmony.simplex",
    "SimplexOptions": "repro.harmony.simplex",
    "SearchStrategy": "repro.harmony.search",
    "SimplexStrategy": "repro.harmony.search",
    "RandomSearch": "repro.harmony.search",
    "CoordinateDescent": "repro.harmony.search",
    "HarmonyServer": "repro.harmony.server",
    "HarmonyClient": "repro.harmony.client",
    "HarmonyTCPServer": "repro.harmony.net",
    "RemoteHarmonyClient": "repro.harmony.net",
    "DuplicationScheme": "repro.harmony.scaling",
    "PartitionScheme": "repro.harmony.scaling",
    "identity_scheme": "repro.harmony.scaling",
    # cluster
    "Role": "repro.cluster.node",
    "NodeSpec": "repro.cluster.node",
    "NodePlacement": "repro.cluster.topology",
    "ClusterSpec": "repro.cluster.topology",
    "PricingModel": "repro.cluster.pricing",
    # tpcw
    "Interaction": "repro.tpcw.interactions",
    "WorkloadMix": "repro.tpcw.interactions",
    "BROWSING_MIX": "repro.tpcw.interactions",
    "SHOPPING_MIX": "repro.tpcw.interactions",
    "ORDERING_MIX": "repro.tpcw.interactions",
    "STANDARD_MIXES": "repro.tpcw.interactions",
    # backends
    "PerformanceBackend": "repro.model.base",
    "AnalyticBackend": "repro.model.analytic",
    "Scenario": "repro.model.base",
    "Measurement": "repro.model.base",
    # tuning
    "ClusterTuningSession": "repro.tuning.session",
    "AdaptiveTuningSession": "repro.tuning.adaptive",
    "make_scheme": "repro.tuning.session",
    "Reconfigurator": "repro.tuning.reconfig",
    "ReconfigPolicy": "repro.tuning.reconfig",
    "ReconfigurationLoop": "repro.tuning.reconfig_loop",
}

__version__ = "1.0.0"

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value
