# lint-path: src/repro/util/example_globals_registry.py
"""RPL106 suppression: a justified module-level bookkeeping lock."""
import threading

# Guards a process-local registry: held only for short ops, never
# across fork, and every worker re-creates it fresh at import.
_REGISTRY_GUARD = threading.Lock()  # repro: noqa[RPL106]
