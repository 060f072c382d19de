"""repro — a full reproduction of *Rumba: An Online Quality Management
System for Approximate Computing* (Khudia, Zamirai, Samadi, Mahlke;
ISCA 2015).

Rumba adds continuous light-weight error detection and selective exact
re-execution on top of an NPU-style approximate accelerator.  This package
implements the whole stack in Python:

* :mod:`repro.nn` — the MLP substrate the accelerator executes,
* :mod:`repro.hardware` — CPU/NPU/checker energy and timing models,
* :mod:`repro.apps` — the Table 1 benchmark kernels (exact, pure),
* :mod:`repro.approx` — the NN accelerator backend and loop perforation,
* :mod:`repro.predictors` — linear/tree/EMA checkers and baselines,
* :mod:`repro.core` — detection, recovery, online tuning, the pipelined
  runtime,
* :mod:`repro.metrics` / :mod:`repro.eval` — quality analyses and the
  per-figure experiment drivers,
* :mod:`repro.observability` — metrics registry, invocation timelines,
  Prometheus/JSON exporters and the live quality dashboard.

Quickstart::

    from repro.core import prepare_system
    system = prepare_system("sobel", scheme="treeErrors")
    record = system.run_invocation(system.app.test_inputs(rng)[:10000])
    print(record.measured_error, record.costs.energy_savings)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Imported on first use, so ``import repro.errors`` (or the router) does
# not load the core, the apps and numpy; see ``repro._lazy``.
_EXPORTS = {
    "APPLICATION_NAMES": "apps", "Application": "apps",
    "get_application": "apps",
    "RumbaSystem": "core", "RumbaConfig": "core", "TunerMode": "core",
    "prepare_system": "core",
    "Telemetry": "observability", "MetricsRegistry": "observability",
    "ReproError": "errors", "ConfigurationError": "errors",
    "TrainingError": "errors", "NotFittedError": "errors",
    "PurityError": "errors", "UnknownApplicationError": "errors",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = ["__version__", *_EXPORTS]
