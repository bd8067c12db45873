"""Execution-target registry for the :mod:`repro.engine` façade.

Every way of *running* a model — numpy float forward, integer golden model,
the ISA-simulated IBEX / MAUPITI cores, the analytical STM32 baseline — is a
*target*.  Targets are registered with :func:`register_target`, which makes
them reachable through ``repro.compile(model, target="<name>")`` without the
caller knowing anything about the backend's construction.  Third-party or
experimental backends (e.g. a future RTL co-simulation) plug in the same way:

    @register_target("my-fpga", description="...", supports_stats=True)
    class MyFpgaBackend(EngineBackend):
        ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


class EngineError(RuntimeError):
    """Raised for engine-level failures: unknown targets, unsupported
    model/target combinations, or operations a target cannot perform."""


@dataclass(frozen=True)
class TargetSpec:
    """Static description of one registered execution target.

    ``supports_sim_mode`` declares that the backend's constructor accepts a
    ``sim_mode="interp"|"jit"`` keyword selecting the simulation engine
    (the ISA-simulated targets); callers such as the flow's deployment
    stage use it to decide whether to forward the option.
    """

    name: str
    description: str
    supports_stats: bool
    backend_cls: type
    aliases: Tuple[str, ...] = ()
    supports_sim_mode: bool = False


_REGISTRY: Dict[str, TargetSpec] = {}


def register_target(
    name: str,
    *,
    description: str = "",
    supports_stats: bool = False,
    aliases: Tuple[str, ...] = (),
    supports_sim_mode: bool = False,
):
    """Class decorator registering an :class:`~repro.engine.backends.EngineBackend`
    under ``name`` (and optional ``aliases``)."""

    def decorator(cls: type) -> type:
        spec = TargetSpec(
            name=name,
            description=description,
            supports_stats=supports_stats,
            backend_cls=cls,
            aliases=tuple(aliases),
            supports_sim_mode=supports_sim_mode,
        )
        keys = [key.lower() for key in (name, *aliases)]
        # Validate every key before inserting any, so a collision cannot
        # leave the registry partially populated.
        for canonical in keys:
            if canonical in _REGISTRY:
                raise ValueError(f"target {canonical!r} is already registered")
        for canonical in keys:
            _REGISTRY[canonical] = spec
        cls.spec = spec
        return cls

    return decorator


def unregister_target(name: str) -> None:
    """Remove a target and all its aliases (mainly for tests and plugins)."""
    spec = _REGISTRY.get(name.lower())
    if spec is None:
        return
    for key in (spec.name, *spec.aliases):
        _REGISTRY.pop(key.lower(), None)


def get_target(name: str) -> TargetSpec:
    """Resolve a target name (or alias) to its :class:`TargetSpec`."""
    spec = _REGISTRY.get(str(name).lower())
    if spec is None:
        raise EngineError(
            f"unknown target {name!r}; available targets: "
            + ", ".join(available_targets())
        )
    return spec


def available_targets() -> List[str]:
    """Sorted canonical names of every registered target."""
    return sorted({spec.name for spec in _REGISTRY.values()})


def target_table() -> str:
    """Human-readable table of the registered targets (used by the docs)."""
    rows = [f"{'target':<14} {'stats':<6} description"]
    for name in available_targets():
        spec = get_target(name)
        stats = "yes" if spec.supports_stats else "no"
        rows.append(f"{spec.name:<14} {stats:<6} {spec.description}")
    return "\n".join(rows)
