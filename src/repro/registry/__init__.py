"""Pluggable component registry — the scenario API's parts bin.

Scenario specs name their pluggable ingredients as strings
(``system="neupims"``, ``scheduler="iteration"``, ``traffic="poisson"``,
``faults="seeded"``, and a fleet's ``policy="least-loaded"``); this
package maps those names to factories, one table per kind in
:data:`KINDS`.  The process-wide :data:`REGISTRY` is pre-populated with
every built-in component on import, and user code extends it with
:func:`register`::

    from repro.registry import register

    @register("scheduler", "slo-throttle",
              description="admission throttle driven by live TPOT")
    class SloThrottleScheduler(IterationScheduler):
        ...

    Session(spec.override(scheduler="slo-throttle")).run()

See :mod:`repro.registry.builtin` for the per-kind factory calling
conventions and DESIGN.md §8 for the registration contract.
"""

from repro.registry.builtin import Workload, register_builtins
from repro.registry.core import (KINDS, Component, ComponentRegistry,
                                 FrozenOptions, freeze_options,
                                 thaw_options)

#: The process-wide registry every Session resolves through.
REGISTRY = ComponentRegistry()
register_builtins(REGISTRY)

#: Bound convenience aliases over :data:`REGISTRY`.
register = REGISTRY.register
unregister = REGISTRY.unregister
get_component = REGISTRY.get
create = REGISTRY.create
component_names = REGISTRY.names
describe_components = REGISTRY.describe

__all__ = [
    "KINDS",
    "REGISTRY",
    "Component",
    "ComponentRegistry",
    "FrozenOptions",
    "Workload",
    "component_names",
    "create",
    "describe_components",
    "freeze_options",
    "get_component",
    "register",
    "register_builtins",
    "thaw_options",
    "unregister",
]
