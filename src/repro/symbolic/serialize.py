"""Artifact round trips for :class:`~repro.symbolic.SymbolicFunction` sets.

This is the symbolic-layer view of :mod:`repro.bdd.serialize`: a named
set of functions sharing one :class:`~repro.symbolic.SymbolicContext` is
dumped to one self-contained byte string (node table + variable-order
manifest + optional minimized ISOP covers + caller payload), and loaded
back either into a fresh context — reconstructed with the source's full
variable order — or spliced into an existing compatible context, where
per-node deduplication makes a reloaded function *pointer-equal* to the
function it was dumped from.

Including covers snapshots the materialization work too.  The dump
reads each function's cover from the context's per-node cover store
(racing the ISOP budget only for a function not yet materialized), and
a load installs the covers into the target context's cover store and
expression cache, so ``to_expr`` on a loaded function — or on its
negation, when the cover is complemented — is a dictionary lookup
instead of an ISOP extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from ..bdd.serialize import (
    ArtifactError,
    dump_nodes,
    parse_artifact,
    splice_nodes,
)
from .function import SymbolicContext, SymbolicFunction

__all__ = [
    "ArtifactError",
    "LoadedFunctions",
    "dump_functions",
    "load_functions",
]


@dataclass
class LoadedFunctions:
    """What :func:`load_functions` hands back."""

    context: SymbolicContext
    functions: Dict[str, SymbolicFunction]
    payload: Dict[str, Any]
    manifest: Dict[str, Any]


def dump_functions(
    functions: Mapping[str, SymbolicFunction],
    payload: Optional[Dict[str, Any]] = None,
    include_covers: bool = False,
) -> bytes:
    """Serialize named functions (one shared context) to artifact bytes.

    Args:
        functions: name → function; all must share one context.
        payload: arbitrary JSON metadata stored in the manifest.
        include_covers: also store each function's minimized ISOP cover
            (the context's stored cover, computed now if needed), so
            loaders get cached expressions for free.
    """
    if not functions:
        raise ValueError("cannot serialize an empty function set")
    contexts = {fn.context for fn in functions.values()}
    if len(contexts) != 1:
        raise ValueError("all serialized functions must share one SymbolicContext")
    context = next(iter(contexts))
    covers = None
    if include_covers:
        covers = {}
        for name, fn in functions.items():
            complemented, cubes = context.minimized_cover(fn.node)
            # At dump time a cube's variable index in the manifest order
            # *is* its manager level, because the manifest records the
            # full source order.
            covers[name] = {"complemented": complemented, "cubes": cubes}
    return dump_nodes(
        context.manager,
        roots={name: fn.node for name, fn in functions.items()},
        scopes={name: fn.scope for name, fn in functions.items()},
        covers=covers,
        payload=payload,
    )


def load_functions(
    data: bytes, context: Optional[SymbolicContext] = None
) -> LoadedFunctions:
    """Load an artifact into a context (a fresh one by default).

    With ``context`` given, nodes are spliced into its manager and
    deduplicate against everything it already holds — loading an artifact
    back into its source context returns pointer-equal functions.  The
    context's variable order must be compatible (the artifact's variables
    in the same relative order); otherwise :class:`ArtifactError` is
    raised and the caller should retry with a fresh context.
    """
    parsed = parse_artifact(data)
    if context is None:
        context = SymbolicContext(parsed.variables)
    roots = splice_nodes(context.manager, parsed)
    manifest = parsed.manifest
    variables = manifest["variables"]
    # The parser checked every table index, so decoding cannot fail here.
    scope_table = [
        tuple([variables[index] for index in scope])
        for scope in manifest.get("scope_table", ())
    ]
    scope_of = manifest.get("scopes", {})
    functions = {}
    for name, node in roots.items():
        entry = scope_of.get(name)
        functions[name] = context.function(
            node, scope=scope_table[entry] if entry is not None else None
        )
    covers = manifest.get("covers")
    if covers:
        _prime_covers(context, functions, covers, manifest["cover_table"], variables)
    return LoadedFunctions(
        context=context,
        functions=functions,
        payload=dict(manifest.get("payload") or {}),
        manifest=manifest,
    )


def _prime_covers(
    context: SymbolicContext,
    functions: Dict[str, SymbolicFunction],
    covers: Dict[str, int],
    cover_table: List[Dict[str, Any]],
    variables: List[str],
) -> None:
    """Install the stored minimized covers into the context's cover store.

    Each table entry is decoded once, however many roots share it.  The
    expression cache is primed from it too, for the node and — when the
    cover is complemented — for its negation.  ``variables`` is the
    *artifact's* manifest order — literal codes refer to it, and the
    target context may interleave other variables.
    """
    level_of = context.manager.level_of
    # Literal code ``2 * index + polarity`` -> the cube literal ``(level, polarity)``.
    literal_of = [
        literal
        for level in map(level_of, variables)
        for literal in ((level, False), (level, True))
    ]
    decode = literal_of.__getitem__
    for name, entry in covers.items():
        node = functions[name].node
        # Roots share an entry only when they share a node, so a shared
        # entry is found installed here after its first decode.
        if node in context._cover_cache:
            continue
        stored = cover_table[entry]
        cubes = tuple([tuple(map(decode, cube)) for cube in stored["cubes"]])
        context._store_cover(node, (stored["complemented"], cubes))
        context.to_expr(node)
