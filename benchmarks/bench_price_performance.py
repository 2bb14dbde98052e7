"""Dollars/WIPS across cluster layouts (TPC-W's price-performance metric).

Extension bench: same six front machines, different tier assignments, under
the browsing and ordering mixes.  The cost-optimal layout flips with the
workload — the capacity-planning face of the paper's §IV result that node
roles must follow the traffic.
"""

from repro.experiments import price_performance
from repro.experiments.runner import ExperimentConfig

FULL = ExperimentConfig()


def test_price_performance_ordering(benchmark, report):
    result = benchmark.pedantic(
        lambda: price_performance.run(FULL, mix_name="ordering", machines=6),
        rounds=1, iterations=1,
    )
    best = result.best()
    assert best.apps >= best.proxies  # ordering wants application capacity
    report("price_performance_ordering", result.to_table())


def test_price_performance_browsing(benchmark, report):
    result = benchmark.pedantic(
        lambda: price_performance.run(FULL, mix_name="browsing", machines=6),
        rounds=1, iterations=1,
    )
    best = result.best()
    assert best.proxies >= best.apps  # browsing wants proxy capacity
    report("price_performance_browsing", result.to_table())
