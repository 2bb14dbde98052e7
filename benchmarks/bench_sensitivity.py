"""§III.A diagnostics: which parameters actually affect performance.

Reproduces the paper's named findings: the Squid eviction watermarks are
performance-neutral, the proxy memory-cache size matters (most under the
browsing mix), and shrinking ``join_buffer_size`` from its 8 MB default
does not hurt.
"""

from repro.experiments import sensitivity
from repro.experiments.runner import ExperimentConfig

FULL = ExperimentConfig()


def test_parameter_sensitivity(benchmark, report):
    result = benchmark.pedantic(
        lambda: sensitivity.run(FULL, points=5, repeats=4),
        rounds=1, iterations=1,
    )
    # "cache_swap_low/high ... do not impact the overall system performance"
    for mix in ("browsing", "shopping", "ordering"):
        assert result.effect(mix, "proxy0.cache_swap_low") < 0.05
        assert result.effect(mix, "proxy0.cache_swap_high") < 0.05
    # The proxy memory cache is a first-order knob for browsing...
    assert result.effect("browsing", "proxy0.cache_mem") > 0.10
    # ...and matters far more there than the watermarks do.
    assert result.effect("browsing", "proxy0.cache_mem") > 3 * result.effect(
        "browsing", "proxy0.cache_swap_low"
    )
    report("sensitivity", result.to_table())
