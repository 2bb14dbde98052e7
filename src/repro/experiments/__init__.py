"""Experiment drivers: one per table/figure of the paper's evaluation.

Each driver is a plain function taking an :class:`ExperimentConfig`
(iteration counts scale down for tests, up for the benchmark harness) and
returning a result dataclass that knows how to render the paper-style
table(s).  The benchmark files under ``benchmarks/`` are thin wrappers that
run these drivers and print the renderings.

| paper item        | driver                                      |
|-------------------|---------------------------------------------|
| Table 1           | :func:`repro.experiments.table1.run`        |
| §III.A text       | part of :func:`repro.experiments.fig4.run`  |
| Figure 4          | :func:`repro.experiments.fig4.run`          |
| Table 3           | :func:`repro.experiments.table3.render`     |
| Figure 5          | :func:`repro.experiments.fig5.run`          |
| Table 4           | :func:`repro.experiments.table4.run`        |
| Figure 7          | :func:`repro.experiments.fig7.run`          |
| §III.A diagnostics| :func:`repro.experiments.sensitivity.run`   |
| ablations         | :mod:`repro.experiments.ablations`          |
| drift (extension) | :func:`repro.experiments.drift.run`         |
| scale (extension) | :func:`repro.experiments.scale.run`         |
| $/WIPS (extension)| :func:`repro.experiments.price_performance.run` |
| robustness        | :mod:`repro.experiments.robustness`         |
| replication       | :mod:`repro.experiments.replication`        |
"""
