"""The component registry: named, introspectable factories.

The pluggable scenario ingredients — the system under test, the
serving scheduler, the traffic model, the fault plan and the fleet
router — are *components*: named factories registered under one of the
:data:`KINDS`.  :class:`~repro.api.spec.ScenarioSpec` stores component
**names** (plain strings) plus per-component **option dicts**, and
:class:`~repro.api.session.Session` resolves both through the registry
at materialization time.  That keeps specs picklable and JSON
round-trippable while letting user code plug in new policies without
editing core files::

    from repro.registry import register
    from repro.serving.scheduler import IterationScheduler

    @register("scheduler", "my-policy")
    class MyPolicyScheduler(IterationScheduler):
        '''An admission policy the sweeps can now select by name.'''

    spec = ScenarioSpec(scheduler="my-policy")   # sweeps like a built-in

Factories are looked up by ``(kind, name)``; names are case-insensitive
and normalized to lower case.  Unknown names raise a :class:`ValueError`
listing the registered alternatives, and duplicate registrations are
rejected unless ``replace=True`` — both error paths are part of the
public contract (see ``tests/test_registry.py``).

Option dicts ride inside frozen specs as canonical sorted tuples
(:func:`freeze_options`) so specs stay hashable and order-insensitive;
:func:`thaw_options` rebuilds the plain dict before the factory call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple, Union)

#: The component kinds a scenario is assembled from.
KINDS = ("system", "scheduler", "traffic", "faults", "router")

#: Canonical frozen encoding of an option dict: sorted ``(key, value)``
#: pairs, with nested mappings/sequences frozen recursively.
FrozenOptions = Tuple[Tuple[str, Any], ...]

#: First element of a frozen *nested* mapping, so thawing can tell a
#: mapping value apart from a list value that merely looks like pairs.
MAPPING_TAG = "__mapping__"


def freeze_options(options: Union[None, Mapping[str, Any],
                                  Iterable[Tuple[str, Any]]]
                   ) -> FrozenOptions:
    """Canonicalize an option mapping into a frozen, hashable tuple.

    Accepts a mapping, an iterable of ``(key, value)`` pairs (including
    an already-frozen tuple — the function is idempotent), or ``None``.
    Keys must be strings; nested dicts and lists freeze recursively so
    the result is hashable and compares order-insensitively.  Nested
    mapping values are tagged with :data:`MAPPING_TAG` in their frozen
    form, so :func:`thaw_options` reconstructs lists and dicts without
    ambiguity (a list value whose first element is the tag itself is
    rejected rather than silently re-typed).
    """
    if options is None:
        return ()
    pairs = options.items() if isinstance(options, Mapping) else options
    frozen: Dict[str, Any] = {}
    for key, value in pairs:
        if not isinstance(key, str):
            raise TypeError(f"option keys must be strings, got {key!r}")
        frozen[key] = _freeze_value(value)
    return tuple(sorted(frozen.items()))


def _freeze_value(value: Any) -> Any:
    if isinstance(value, Mapping):
        return (MAPPING_TAG,) + freeze_options(value)
    if isinstance(value, tuple):
        # Tuples only arise from the frozen form (JSON yields lists), so
        # a tagged tuple is an already-frozen mapping: re-freeze its
        # pairs for idempotency.
        if value and value[0] == MAPPING_TAG:
            return (MAPPING_TAG,) + freeze_options(value[1:])
        return tuple(_freeze_value(item) for item in value)
    if isinstance(value, list):
        # A raw *list* beginning with the marker is user data that would
        # be re-typed as a dict on thaw; reject instead of corrupting.
        if value and value[0] == MAPPING_TAG:
            raise ValueError(
                f"option list values must not start with {MAPPING_TAG!r} "
                "(reserved as the frozen-mapping marker)")
        return tuple(_freeze_value(item) for item in value)
    return value


def thaw_options(options: Union[None, FrozenOptions, Mapping[str, Any]]
                 ) -> Dict[str, Any]:
    """Rebuild the plain option dict a factory call consumes.

    The inverse of :func:`freeze_options` for JSON-shaped values
    (tagged nested pair-tuples become dicts again; other tuples become
    lists).
    """
    if options is None:
        return {}
    if isinstance(options, Mapping):
        return {key: _thaw_value(value) for key, value in options.items()}
    return {key: _thaw_value(value) for key, value in options}


def _thaw_value(value: Any) -> Any:
    if isinstance(value, tuple):
        if value and value[0] == MAPPING_TAG:
            return {key: _thaw_value(item) for key, item in value[1:]}
        return [_thaw_value(item) for item in value]
    return value


@dataclass(frozen=True)
class Component:
    """One registered factory and its metadata.

    ``factory`` is any callable producing the component instance; the
    calling convention per kind is documented in DESIGN.md §8 (the
    registration contract).  ``description`` feeds ``python -m repro
    components`` and error messages; ``option_names`` documents the
    factory's recognized options (informational — factories own their
    validation).
    """

    kind: str
    name: str
    factory: Callable[..., Any]
    description: str = ""
    option_names: Tuple[str, ...] = ()


@dataclass
class ComponentRegistry:
    """A mutable table of components, keyed by ``(kind, name)``.

    One process-wide instance (:data:`repro.registry.REGISTRY`) backs
    the scenario API; separate instances exist only for tests.
    """

    _components: Dict[str, Dict[str, Component]] = field(
        default_factory=lambda: {kind: {} for kind in KINDS})

    def _kind_table(self, kind: str) -> Dict[str, Component]:
        # Kinds normalize like names: lookups are case-insensitive.
        key = kind.lower() if isinstance(kind, str) else kind
        try:
            return self._components[key]
        except (KeyError, TypeError):
            raise ValueError(f"unknown component kind {kind!r}; "
                             f"known kinds: {list(KINDS)}") from None

    def register(self, kind: str, name: str,
                 factory: Optional[Callable[..., Any]] = None, *,
                 description: str = "",
                 option_names: Iterable[str] = (),
                 replace: bool = False) -> Callable[..., Any]:
        """Register ``factory`` under ``(kind, name)``.

        Usable directly (``register("traffic", "burst", build_burst)``)
        or as a decorator (``@register("scheduler", "my-policy")``); the
        decorated callable/class is returned unchanged.  A second
        registration of the same name raises unless ``replace=True``
        (explicit override, e.g. swapping a built-in in a test).
        """
        table = self._kind_table(kind)

        def _add(target: Callable[..., Any]) -> Callable[..., Any]:
            key = name.lower()
            if key in table and not replace:
                raise ValueError(
                    f"{kind} component {name!r} is already registered; "
                    "pass replace=True to override it")
            summary = description or (target.__doc__ or "").strip() \
                .split("\n")[0]
            table[key] = Component(kind=kind, name=key, factory=target,
                                   description=summary,
                                   option_names=tuple(option_names))
            return target

        if factory is not None:
            return _add(factory)
        return _add

    def unregister(self, kind: str, name: str) -> None:
        """Remove a registration (primarily for test cleanup)."""
        self._kind_table(kind).pop(name.lower(), None)

    def get(self, kind: str, name: str) -> Component:
        """Look up one component; unknown names list the alternatives."""
        table = self._kind_table(kind)
        key = name.lower() if isinstance(name, str) else name
        component = table.get(key)
        if component is None:
            raise ValueError(f"unknown {kind} component {name!r}; "
                             f"registered: {sorted(table)}")
        return component

    def create(self, kind: str, name: str, *args: Any,
               **kwargs: Any) -> Any:
        """Instantiate a component: ``factory(*args, **kwargs)``."""
        return self.get(kind, name).factory(*args, **kwargs)

    def names(self, kind: str) -> Tuple[str, ...]:
        """Sorted registered names of one kind."""
        return tuple(sorted(self._kind_table(kind)))

    def describe(self, kind: Optional[str] = None) -> List[Component]:
        """All components (of one kind, or every kind), sorted."""
        kinds = (kind,) if kind is not None else KINDS
        out: List[Component] = []
        for k in kinds:
            table = self._kind_table(k)
            out.extend(table[name] for name in sorted(table))
        return out
