"""Compact binary serialization of BDD node sets (the artifact format).

A symbolic artifact is a set of named root functions dumped from one
:class:`~repro.bdd.manager.BddManager` into a self-contained byte string
that round-trips in milliseconds.  The campaign layer stores these next
to its JSON verdicts so a derived interlock closed form is a durable
object handed between processes, instead of something every worker must
re-derive from the architecture — the artifact-handoff framing the
repository roadmap borrows from agentic-EDA work.

Wire format (``RBDD`` version 1)
--------------------------------

======  ========  =======================================================
offset  size      field
======  ========  =======================================================
0       4         magic ``b"RBDD"``
4       4         format version, u32 little-endian (currently 1)
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

The manifest is a JSON object::

    {"schema": 1,
     "variables": [...],        # full source variable order, top first
     "num_nodes": n,
     "roots": {name: ref},      # named entry points into the node table
     "scopes": {name: [...]},   # optional declared scopes per root
     "covers": {name: {"complemented": bool,
                       "cubes": [[[var_index, polarity], ...], ...]}},
     "payload": {...}}          # arbitrary caller JSON (e.g. derivation
                                # iterations, spec name)

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
import struct
import sys
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from .manager import BddManager, FALSE_NODE, TRUE_NODE

MAGIC = b"RBDD"
FORMAT_VERSION = 1
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
        scopes: optional per-root declared variable scopes (stored
            verbatim in the manifest for the symbolic layer).
        covers: optional per-root ISOP covers, each a dict with keys
            ``complemented`` (bool) and ``cubes`` — cubes use *variable
            indexes into the manifest order*, which at dump time equal
            the source manager's levels.
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

    manifest: Dict[str, Any] = {
        "schema": ARTIFACT_SCHEMA,
        "variables": manager.variable_order(),
        "num_nodes": len(order),
        "roots": {name: ref[node] for name, node in roots.items()},
    }
    if scopes:
        manifest["scopes"] = {
            name: (list(scope) if scope is not None else None)
            for name, scope in scopes.items()
        }
    if covers:
        manifest["covers"] = {
            name: {
                "complemented": bool(cover["complemented"]),
                "cubes": [
                    [[int(index), bool(polarity)] for index, polarity in cube]
                    for cube in cover["cubes"]
                ],
            }
            for name, cover in covers.items()
        }
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


def parse_artifact(data: bytes) -> ParsedArtifact:
    """Verify and decode an artifact without splicing it into a manager.

    Raises :class:`ArtifactError` for anything that is not a byte-exact,
    checksum-verified version-1 artifact (truncation, bit corruption, a
    foreign file, an unsupported version).
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
    for index in range(num_nodes):
        if not (0 <= var_indexes[index] < num_vars):
            raise ArtifactError("artifact node has an out-of-range variable index")
        if lo_refs[index] >= index + 2 or hi_refs[index] >= index + 2:
            raise ArtifactError(
                "artifact node references a later node (not level-ordered)"
            )
        if lo_refs[index] < 0 or hi_refs[index] < 0:
            raise ArtifactError("artifact node has a negative child reference")
    return ParsedArtifact(
        manifest=manifest,
        var_indexes=var_indexes,
        lo_refs=lo_refs,
        hi_refs=hi_refs,
        total_bytes=len(data),
    )


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
    splices nothing; the summary carries sizes, the root names and the
    caller payload.
    """
    parsed = parse_artifact(data)
    manifest = parsed.manifest
    return {
        "format_version": FORMAT_VERSION,
        "bytes": parsed.total_bytes,
        "num_nodes": parsed.num_nodes,
        "num_variables": len(parsed.variables),
        "roots": sorted(manifest.get("roots", {})),
        "has_covers": bool(manifest.get("covers")),
        "payload": manifest.get("payload", {}),
    }
