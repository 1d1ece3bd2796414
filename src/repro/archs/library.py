"""Registry of the bundled and generated example architectures.

Besides the three hand-written designs, the library resolves any member
of the parametric family (:mod:`repro.archs.family`) straight from its
canonical ``fam-...`` name, and accepts runtime registrations so tools
and tests can plug additional factories in without touching this module.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..pipeline.structure import Architecture
from .example_dac2002 import example_architecture
from .family import FamilyConfig, FamilyError, SHOWCASE_CONFIGS, is_family_name
from .firepath_like import firepath_like_architecture
from .risc5 import risc5_architecture

_REGISTRY: Dict[str, Callable[[], Architecture]] = {
    "dac2002-example": example_architecture,
    "firepath-like": firepath_like_architecture,
    "risc5": risc5_architecture,
}

for _config in SHOWCASE_CONFIGS:
    _REGISTRY[_config.name] = _config.build


def register_architecture(name: str, factory: Callable[[], Architecture]) -> None:
    """Register an architecture factory under a name.

    Raises ValueError when the name is already taken (unregister it first)
    or is a family name, which is resolved dynamically and cannot be
    shadowed.
    """
    if not name:
        raise ValueError("architecture name must be non-empty")
    if is_family_name(name):
        raise ValueError(
            f"the {name!r} prefix is reserved for the parametric family; "
            "family members are resolved from their canonical names"
        )
    if name in _REGISTRY:
        raise ValueError(f"architecture {name!r} is already registered")
    _REGISTRY[name] = factory


def unregister_architecture(name: str) -> None:
    """Remove a registered factory (KeyError when the name is unknown)."""
    del _REGISTRY[name]


def available_architectures() -> List[str]:
    """Names of the registered architectures.

    Any further ``fam-r<R>w<W>d<D>s<S>-<style>[-ls][-wait]`` name is also
    loadable — the parametric family is resolved dynamically.
    """
    return sorted(_REGISTRY)


def load_architecture(name: str) -> Architecture:
    """Instantiate an architecture by name (registered or family)."""
    factory = _REGISTRY.get(name)
    if factory is not None:
        return factory()
    if is_family_name(name):
        try:
            return FamilyConfig.from_name(name).build()
        except FamilyError as exc:
            raise KeyError(str(exc)) from exc
    raise KeyError(
        f"unknown architecture {name!r}; available: {available_architectures()} "
        "or any parametric family name "
        "fam-r<registers>w<width>d<depth>s<step>-<style>[-ls][-wait]"
    )
