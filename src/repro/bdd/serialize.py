"""Compact binary serialization of BDD node sets (the artifact format).

A symbolic artifact is a set of named root functions dumped from one
:class:`~repro.bdd.manager.BddManager` into a self-contained byte string
that round-trips in milliseconds.  The campaign layer stores these next
to its JSON verdicts so a derived interlock closed form is a durable
object handed between processes, instead of something every worker must
re-derive from the architecture — the artifact-handoff framing the
repository roadmap borrows from agentic-EDA work.

Wire format (``RBDD`` version 2)
--------------------------------

======  ========  =======================================================
offset  size      field
======  ========  =======================================================
0       4         magic ``b"RBDD"``
4       4         format version, u32 little-endian (currently 2)
8       4         manifest length ``M``, u32 little-endian
12      M         manifest, UTF-8 JSON (see below)
12+M    4·n       ``var`` array — per node, the index of its variable in
                  the manifest's ``variables`` list (int32 LE)
...     4·n       ``lo`` array — low-child references (int32 LE)
...     4·n       ``hi`` array — high-child references (int32 LE)
end-32  32        SHA-256 over every preceding byte
======  ========  =======================================================

A node *reference* is ``0`` for the FALSE terminal, ``1`` for TRUE, and
``i + 2`` for the ``i``-th serialized node.  Nodes are written
level-ordered bottom-up — deepest variable level first — so every
reference points strictly backwards and loading is a single forward pass.

The manifest is a JSON object that holds each scope and each cover once::

    {"schema": 1,
     "variables": [...],        # full source variable order, top first
     "num_nodes": n,
     "roots": {name: ref},      # named entry points into the node table
     "scope_table": [[var_index, ...], ...],   # each distinct scope once
     "scopes": {name: scope_table index or null},
     "cover_table": [{"complemented": bool,    # each distinct cover once
                      "cubes": [[literal, ...], ...]}, ...],
     "covers": {name: cover_table index},
     "payload": {...}}          # arbitrary caller JSON (e.g. derivation
                                # iterations, spec name)

A cover literal is one integer, ``2 * var_index + polarity``.  Both
tables are built in sorted root-name order, so equal root sets dump equal
bytes whatever order the caller's mappings list them in.  The two tables
and their maps are present only when the caller gives scopes or covers.
A version-1 artifact (one scope and one cover per root, literals as
``[var_index, polarity]`` pairs) is rejected as unsupported; the result
store treats that as a corrupt entry and rebuilds it.

``variables`` records the *entire* source variable order, not only the
levels in use: splicing a function into a manager whose relative order of
these variables differs would silently build a malformed BDD, so the
loader declares missing variables and rejects incompatible orders.

Loading splices nodes into the target manager through its unique table
(:meth:`~repro.bdd.manager.BddManager._make_node`), so a function loaded
into the manager it was dumped from — or into any manager that already
holds an equal function — deduplicates onto the existing node: pointer
equality keeps deciding equivalence across a dump/load round trip.

The int32 arrays are encoded and decoded in bulk through the standard
library's :mod:`array` module.
"""

from __future__ import annotations

import hashlib
import json
import operator
import struct
import sys
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .manager import BddManager, FALSE_NODE, TRUE_NODE

MAGIC = b"RBDD"
FORMAT_VERSION = 2
ARTIFACT_SCHEMA = 1

_HEADER = struct.Struct("<4sII")
_DIGEST_SIZE = hashlib.sha256().digest_size

#: ``array`` typecode with a 4-byte item on this platform ('i' everywhere
#: that matters; 'l' only on exotic ABIs where int is 2 bytes).
_I4 = "i" if array("i").itemsize == 4 else "l"


class ArtifactError(ValueError):
    """Raised for truncated, corrupt or incompatible serialized artifacts."""


def _encode_i32(values: Sequence[int]) -> bytes:
    data = array(_I4, values)
    if sys.byteorder != "little":  # pragma: no cover - big-endian only
        data.byteswap()
    return data.tobytes()


def _decode_i32(data: bytes) -> List[int]:
    out = array(_I4)
    out.frombytes(data)
    if sys.byteorder != "little":  # pragma: no cover - big-endian only
        out.byteswap()
    return out.tolist()


@dataclass
class ParsedArtifact:
    """A checksum-verified artifact, decoded but not yet spliced anywhere."""

    manifest: Dict[str, Any]
    var_indexes: Sequence[int]
    lo_refs: Sequence[int]
    hi_refs: Sequence[int]
    total_bytes: int
    version: int

    @property
    def variables(self) -> List[str]:
        """The full source variable order, top level first."""
        return list(self.manifest["variables"])

    @property
    def num_nodes(self) -> int:
        """Number of serialized (non-terminal) nodes."""
        return int(self.manifest["num_nodes"])


def dump_nodes(
    manager: BddManager,
    roots: Mapping[str, int],
    scopes: Optional[Mapping[str, Optional[Sequence[str]]]] = None,
    covers: Optional[Mapping[str, Any]] = None,
    payload: Optional[Dict[str, Any]] = None,
) -> bytes:
    """Serialize the named root nodes (and everything they reach) to bytes.

    Args:
        manager: the owning manager; every root must be one of its nodes.
        roots: name → node id entry points.
        scopes: optional per-root declared variable scopes (for the
            symbolic layer); each distinct scope is stored once.  A scope
            naming a variable outside the manager's order raises
            ``ValueError``.
        covers: optional per-root ISOP covers, each a dict with keys
            ``complemented`` (bool) and ``cubes`` — ``(index, polarity)``
            literals whose *variable indexes into the manifest order* at
            dump time equal the source manager's levels.  Roots sharing
            a node and a cover store it once.
        payload: arbitrary JSON-serializable metadata for the caller.
    """
    var_of = manager._var
    lo_of = manager._lo
    hi_of = manager._hi
    # Deterministic reachability: DFS from the roots in name order, then a
    # stable sort deepest-level-first so references always point backwards.
    discovery: Dict[int, int] = {}
    order: List[int] = []
    for name in sorted(roots):
        stack = [roots[name]]
        while stack:
            node = stack.pop()
            if node <= TRUE_NODE or node in discovery:
                continue
            discovery[node] = len(order)
            order.append(node)
            stack.append(hi_of[node])
            stack.append(lo_of[node])
    order.sort(key=lambda node: (-var_of[node], discovery[node]))
    ref = {FALSE_NODE: 0, TRUE_NODE: 1}
    for position, node in enumerate(order):
        ref[node] = position + 2

    variables = manager.variable_order()
    root_refs = {name: ref[node] for name, node in roots.items()}
    manifest: Dict[str, Any] = {
        "schema": ARTIFACT_SCHEMA,
        "variables": variables,
        "num_nodes": len(order),
        "roots": root_refs,
    }
    if scopes:
        manifest["scope_table"], manifest["scopes"] = _scope_table(variables, scopes)
    if covers:
        manifest["cover_table"], manifest["covers"] = _cover_table(root_refs, covers)
    if payload is not None:
        manifest["payload"] = payload
    manifest_bytes = json.dumps(
        manifest, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")

    parts = [
        _HEADER.pack(MAGIC, FORMAT_VERSION, len(manifest_bytes)),
        manifest_bytes,
        _encode_i32([var_of[node] for node in order]),
        _encode_i32([ref[lo_of[node]] for node in order]),
        _encode_i32([ref[hi_of[node]] for node in order]),
    ]
    body = b"".join(parts)
    return body + hashlib.sha256(body).digest()


def _scope_table(
    variables: List[str], scopes: Mapping[str, Optional[Sequence[str]]]
) -> Tuple[List[List[int]], Dict[str, Optional[int]]]:
    """Each distinct scope once, as variable indexes, and each root's entry."""
    position = {name: index for index, name in enumerate(variables)}
    table: List[List[int]] = []
    entry_of: Dict[tuple, int] = {}
    entries: Dict[str, Optional[int]] = {}
    for name in sorted(scopes):
        scope = scopes[name]
        if scope is None:
            entries[name] = None
            continue
        key = tuple(scope)
        entry = entry_of.get(key)
        if entry is None:
            try:
                table.append([position[variable] for variable in key])
            except KeyError as exc:
                raise ValueError(
                    f"scope of {name!r} names {exc.args[0]!r}, which is not in "
                    "the manager's variable order"
                ) from None
            entry = entry_of[key] = len(table) - 1
        entries[name] = entry
    return table, entries


def _cover_table(
    root_refs: Mapping[str, int], covers: Mapping[str, Any]
) -> Tuple[List[Dict[str, Any]], Dict[str, int]]:
    """Each distinct cover once, literals as ``2 * index + polarity``.

    Roots with the same node reference and complementation share an entry
    when their cubes are equal too.
    """
    table: List[Dict[str, Any]] = []
    entry_of: Dict[tuple, tuple] = {}
    entries: Dict[str, int] = {}
    for name in sorted(covers):
        cover = covers[name]
        complemented = bool(cover["complemented"])
        cubes = cover["cubes"]
        key = (root_refs[name], complemented)
        seen = entry_of.get(key)
        if seen is None or (seen[0] is not cubes and seen[0] != cubes):
            table.append({
                "complemented": complemented,
                "cubes": [
                    [2 * index + polarity for index, polarity in cube] for cube in cubes
                ],
            })
            seen = entry_of[key] = (cubes, len(table) - 1)
        entries[name] = seen[1]
    return table, entries


def parse_artifact(data: bytes) -> ParsedArtifact:
    """Verify and decode an artifact without splicing it into a manager.

    Raises :class:`ArtifactError` for anything that is not a byte-exact,
    checksum-verified version-2 artifact (truncation, bit corruption, a
    foreign file, an unsupported version such as an older build's
    version 1, a malformed scope or cover table).
    """
    if len(data) < _HEADER.size + _DIGEST_SIZE:
        raise ArtifactError("artifact truncated: shorter than header + checksum")
    body, digest = data[:-_DIGEST_SIZE], data[-_DIGEST_SIZE:]
    if hashlib.sha256(body).digest() != digest:
        raise ArtifactError("artifact corrupt: SHA-256 checksum mismatch")
    magic, version, manifest_len = _HEADER.unpack_from(body)
    if magic != MAGIC:
        raise ArtifactError(f"not a BDD artifact (bad magic {magic!r})")
    if version != FORMAT_VERSION:
        raise ArtifactError(
            f"unsupported artifact format version {version} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    offset = _HEADER.size
    if len(body) < offset + manifest_len:
        raise ArtifactError("artifact truncated inside the manifest")
    try:
        manifest = json.loads(body[offset : offset + manifest_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"artifact manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("schema") != ARTIFACT_SCHEMA:
        raise ArtifactError("artifact manifest schema not supported")
    offset += manifest_len
    try:
        num_nodes = int(manifest["num_nodes"])
        variables = list(manifest["variables"])
        roots = dict(manifest["roots"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"artifact manifest missing field: {exc}") from exc
    array_bytes = 4 * num_nodes
    if len(body) != offset + 3 * array_bytes:
        raise ArtifactError(
            "artifact truncated or padded: node arrays do not match num_nodes"
        )
    var_indexes = _decode_i32(body[offset : offset + array_bytes])
    offset += array_bytes
    lo_refs = _decode_i32(body[offset : offset + array_bytes])
    offset += array_bytes
    hi_refs = _decode_i32(body[offset : offset + array_bytes])
    limit = num_nodes + 2
    for name, root in roots.items():
        if not isinstance(root, int) or not (0 <= root < limit):
            raise ArtifactError(f"artifact root {name!r} reference out of range")
    num_vars = len(variables)
    if num_nodes:
        if min(var_indexes) < 0 or max(var_indexes) >= num_vars:
            raise ArtifactError("artifact node has an out-of-range variable index")
        if min(lo_refs) < 0 or min(hi_refs) < 0:
            raise ArtifactError("artifact node has a negative child reference")
        positions = range(2, limit)
        if not (
            all(map(operator.lt, lo_refs, positions))
            and all(map(operator.lt, hi_refs, positions))
        ):
            raise ArtifactError(
                "artifact node references a later node (not level-ordered)"
            )
    _check_tables(manifest, roots, num_vars)
    return ParsedArtifact(
        manifest=manifest,
        var_indexes=var_indexes,
        lo_refs=lo_refs,
        hi_refs=hi_refs,
        total_bytes=len(data),
        version=version,
    )


def _is_index_list(values: Any, limit: int) -> bool:
    """Whether ``values`` is a JSON list of integers in ``[0, limit)``."""
    return (
        type(values) is list
        and set(map(type, values)) <= {int}
        and (not values or (min(values) >= 0 and max(values) < limit))
    )


def _check_tables(manifest: Dict[str, Any], roots: Dict[str, Any], num_vars: int) -> None:
    """Reject scope and cover tables a loader could not decode.

    Checks the shape and every index in bulk, so a malformed table raises
    :class:`ArtifactError` here and never an ``IndexError`` or
    ``TypeError`` while loading.
    """
    scope_table = manifest.get("scope_table", [])
    cover_table = manifest.get("cover_table", [])
    scopes = manifest.get("scopes", {})
    covers = manifest.get("covers", {})
    if not (
        type(scope_table) is list
        and type(cover_table) is list
        and type(scopes) is dict
        and type(covers) is dict
    ):
        raise ArtifactError("artifact scope or cover table has the wrong JSON type")
    if not (set(scopes) <= set(roots) and set(covers) <= set(roots)):
        raise ArtifactError("artifact scope or cover names an unknown root")
    if not (
        _is_index_list([e for e in scopes.values() if e is not None], len(scope_table))
        and _is_index_list(list(covers.values()), len(cover_table))
    ):
        raise ArtifactError("artifact scope or cover index out of range")
    if not all(_is_index_list(scope, num_vars) for scope in scope_table):
        raise ArtifactError("artifact scope names a variable out of range")
    for entry in cover_table:
        cubes = entry.get("cubes") if type(entry) is dict else None
        if not (
            type(cubes) is list
            and type(entry.get("complemented")) is bool
            and set(map(type, cubes)) <= {list}
            and _is_index_list(list(chain.from_iterable(cubes)), 2 * num_vars)
        ):
            raise ArtifactError("artifact cover is malformed or has a literal out of range")


def splice_nodes(manager: BddManager, parsed: ParsedArtifact) -> Dict[str, int]:
    """Splice a parsed artifact into a manager, deduplicating per node.

    Missing variables are declared in the artifact's order; an existing
    manager whose relative order of the artifact's variables differs is
    rejected (splicing across orders would build malformed BDDs — callers
    should fall back to a fresh manager).  Returns name → node id for the
    roots.  The returned nodes are **not** protected; wrap or protect
    them before any garbage collection.
    """
    levels = [manager.declare(name) for name in parsed.variables]
    for shallow, deep in zip(levels, levels[1:]):
        if shallow >= deep:
            raise ArtifactError(
                "artifact variable order is incompatible with this manager; "
                "load into a fresh manager instead"
            )
    var_indexes = parsed.var_indexes
    lo_refs = parsed.lo_refs
    hi_refs = parsed.hi_refs
    make_node = manager._make_node
    node_of: List[int] = [FALSE_NODE, TRUE_NODE] + [0] * parsed.num_nodes
    var_arr = manager._var
    for index in range(parsed.num_nodes):
        level = levels[var_indexes[index]]
        low = node_of[lo_refs[index]]
        high = node_of[hi_refs[index]]
        # Children must sit strictly deeper (terminals carry a sentinel
        # level far below everything); a violation means the var array
        # was corrupted in a way that preserved the checksum-verified
        # ranges.
        if var_arr[low] <= level or var_arr[high] <= level:
            raise ArtifactError("artifact violates the BDD level ordering")
        node_of[index + 2] = make_node(level, low, high)
    return {name: node_of[root] for name, root in parsed.manifest["roots"].items()}


def inspect_artifact(data: bytes) -> Dict[str, Any]:
    """A JSON-ready summary of an artifact (for ``repro artifact``).

    Verifies the checksum and structure like :func:`parse_artifact` but
    splices nothing; the summary carries sizes, the number of distinct
    scopes and covers, the root names and the caller payload.
    """
    parsed = parse_artifact(data)
    manifest = parsed.manifest
    return {
        "format_version": parsed.version,
        "bytes": parsed.total_bytes,
        "num_nodes": parsed.num_nodes,
        "num_variables": len(parsed.variables),
        "num_scopes": len(manifest.get("scope_table", [])),
        "num_covers": len(manifest.get("cover_table", [])),
        "roots": sorted(manifest.get("roots", {})),
        "has_covers": bool(manifest.get("covers")),
        "payload": manifest.get("payload", {}),
    }
