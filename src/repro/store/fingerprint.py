"""Content-addressed cache keys for the artifact store.

Two ingredients make an artifact key:

* :func:`aig_fingerprint` — a structural hash of the design itself.  Node ids
  are canonically renumbered (constant, then PIs in creation order, then AND
  nodes in topological order) before hashing, so two differently-constructed
  but structurally identical networks share one fingerprint, while any change
  to the logic, the interface or the PI/PO ordering changes it.  It is
  memoized per network and structural version, as the DFS order is.
* :func:`config_fingerprint` — a canonical-JSON hash of arbitrary
  configuration values (dataclasses, enums, numpy scalars, containers).

:func:`combine_keys` folds any number of such parts into the final hex key
used as the artifact file name.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import weakref
from typing import Any, Iterable, Tuple

from repro.aig.aig import Aig
from repro.aig.kernels import cached_topological_order
from repro.aig.literals import lit_is_compl, lit_var


_FINGERPRINTS: "weakref.WeakKeyDictionary[Aig, Tuple[int, str]]" = (
    weakref.WeakKeyDictionary()
)


def aig_fingerprint(aig: Aig) -> str:
    """Return the canonical structural hash (hex sha256) of ``aig``.

    The fingerprint covers the PI count, every AND node's fanin literals under
    the canonical renumbering and the PO driver literals.  The design *name*
    is deliberately excluded: renaming a netlist must not invalidate caches.
    It is memoized per network and :attr:`~repro.aig.aig.Aig.modification_count`,
    so hashing an unchanged network again costs a lookup.
    """
    entry = _FINGERPRINTS.get(aig)
    if entry is None or entry[0] != aig.modification_count:
        entry = (aig.modification_count, _structural_hash(aig))
        _FINGERPRINTS[aig] = entry
    return entry[1]


def _structural_hash(aig: Aig) -> str:
    """Hash ``aig`` under the canonical renumbering (see :func:`aig_fingerprint`)."""
    topo = cached_topological_order(aig)
    renumber = {0: 0}
    for row, node in enumerate(aig.pis(), start=1):
        renumber[node] = row
    offset = len(renumber)
    for row, node in enumerate(topo):
        renumber[node] = offset + row

    def canonical_literal(literal: int) -> int:
        return 2 * renumber[lit_var(literal)] + int(lit_is_compl(literal))

    hasher = hashlib.sha256()
    hasher.update(f"pis:{aig.num_pis()};".encode("ascii"))
    for node in topo:
        f0, f1 = aig.fanins(node)
        hasher.update(f"a:{canonical_literal(f0)},{canonical_literal(f1)};".encode("ascii"))
    for driver in aig.pos():
        hasher.update(f"o:{canonical_literal(driver)};".encode("ascii"))
    return hasher.hexdigest()


def _canonical(value: Any) -> Any:
    """Reduce ``value`` to JSON-serializable primitives, deterministically."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return _canonical(value.value)
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_canonical(item) for item in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if hasattr(value, "item"):  # numpy scalars
        return _canonical(value.item())
    return repr(value)


def config_fingerprint(*values: Any) -> str:
    """Return the hex sha256 of the canonical JSON rendering of ``values``."""
    text = json.dumps([_canonical(value) for value in values], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def combine_keys(*parts: Iterable[str]) -> str:
    """Fold hex-digest parts (and plain strings) into one artifact key."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(str(part).encode("utf-8"))
        hasher.update(b"|")
    return hasher.hexdigest()
