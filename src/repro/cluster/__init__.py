"""The system under test: a simulated cluster-based three-tier web service.

The paper's testbed (Table 2) is 10 dual-Athlon Linux machines running Squid
(proxy tier), Tomcat (application tier) and MySQL (database tier).  This
package models that substrate:

* :mod:`repro.cluster.params` — the 23 tunable parameters of the paper's
  Table 3, with the paper's default values and tuning ranges,
* :mod:`repro.cluster.node` — node hardware (CPU, memory, disk, NIC),
* :mod:`repro.cluster.memory` — memory accounting and the swap-pressure
  penalty that makes extreme configurations behave poorly,
* :mod:`repro.cluster.proxy` / :mod:`appserver` / :mod:`database` —
  parametric performance models of Squid / Tomcat / MySQL,
* :mod:`repro.cluster.topology` — tier layout, the cluster-wide parameter
  space (``"<node>.<param>"`` names) and the reconfiguration operation
  (moving a node between tiers) used by §IV.
"""
