"""Predictor-state extraction and resident-size accounting.

The serving plane (:mod:`repro.serve`) keeps one predictor pair per live
stream and must (a) bound the total resident memory of its stream tables and
(b) move a stream's state between processes byte-exactly (snapshot/restore,
shard drains).  Both needs are predictor-agnostic — any registry predictor
can be served — so this module provides the two generic primitives:

* :func:`state_nbytes` — a deep resident-size estimate of an arbitrary
  predictor object graph (NumPy buffers counted by ``nbytes``, containers
  and ``__dict__``/``__slots__`` objects walked recursively, shared objects
  counted once);
* :func:`freeze_state` / :func:`thaw_state` — a byte-exact state codec
  (pickle protocol 4) used by the snapshot format of
  :mod:`repro.serve.snapshot`.  Restoring a frozen state reproduces the
  exact object state, so subsequent predictions are bit-identical — the
  serve plane's snapshot round-trip invariant rides on this.

The size estimate never reads clocks or addresses (beyond identity-based
deduplication), but it is *not* a pure function of the object graph: it
reads ``sys.getsizeof``, and the size of an instance ``__dict__`` depends on
interpreter history (CPython shares dict keys between instances of a class,
so the first predictor of a process measures larger than identical later
ones).  Byte-capped LRU eviction is therefore reproducible for the same
sequence of operations in a fresh process, not across process histories.
Exact byte accounting is ROADMAP item 3.
"""

from __future__ import annotations

import pickle
import sys

import numpy as np

__all__ = ["state_nbytes", "freeze_state", "thaw_state", "PICKLE_PROTOCOL"]

#: Pickle protocol used for frozen predictor state (fixed so snapshots
#: written by newer interpreters stay loadable by the documented format).
PICKLE_PROTOCOL = 4

#: Primitive types whose ``sys.getsizeof`` is the whole story.
_ATOMS = (int, float, bool, bytes, str, complex, type(None))


def state_nbytes(obj) -> int:
    """Deep resident-size estimate (bytes) of a predictor object graph.

    Walks containers, ``__dict__`` and ``__slots__`` attributes; NumPy
    arrays contribute their buffer size (``nbytes``) plus the array-object
    overhead (views share their base's buffer, which is counted once via
    the identity memo).  Objects reachable twice are counted once.

    This is an *estimate* — interpreter-internal sharing (small-int cache,
    string interning) is deliberately ignored.  It is monotone in history
    growth and cheap enough to refresh periodically on the serve ingest
    path, but not stable across interpreter history: identical fresh
    objects can measure differently as the process ages (see the module
    docstring).

    The walk is iterative with a per-type dispatch memo: the serve tables
    measure every stream they create, so this sits on the cold-ingest path.
    Every object contributes its own size exactly once, so the total does
    not depend on the visiting order.  ``obj`` stays bound for the whole
    walk: the identity memo is only sound while the graph is alive.
    """
    getsizeof = sys.getsizeof
    kinds = _KINDS
    seen: set[int] = set()
    total = 0
    pending = [obj]
    while pending:
        item = pending.pop()
        identity = id(item)
        if identity in seen:
            continue
        seen.add(identity)
        cls = type(item)
        kind = kinds.get(cls)
        if kind is None:
            kind = kinds[cls] = _kind_of(cls)
        if kind == _ATOM:
            total += getsizeof(item)
        elif kind == _MAPPING:
            total += getsizeof(item)
            for key, value in item.items():
                pending.append(key)
                pending.append(value)
        elif kind == _OBJECT:
            total += getsizeof(item)
            attributes = getattr(item, "__dict__", None)
            if attributes is not None:
                pending.append(attributes)
            slots = getattr(cls, "__slots__", ())
            if isinstance(slots, str):
                slots = (slots,)
            for name in slots:
                if hasattr(item, name):
                    pending.append(getattr(item, name))
        elif kind == _ARRAY:
            # getsizeof includes the owned buffer for ndarrays, but not
            # always for non-contiguous ones; be explicit instead.  A view
            # counts its base, which the identity memo counts once.
            total += 128
            base = item.base
            if base is None:
                total += int(item.nbytes)
            else:
                pending.append(base)
        else:
            total += getsizeof(item)
            pending.extend(item)
    return int(total)


#: How :func:`state_nbytes` walks an object, decided once per type.
_ATOM, _ARRAY, _SEQUENCE, _MAPPING, _OBJECT = range(5)
_KINDS: dict[type, int] = {}


def _kind_of(cls: type) -> int:
    if issubclass(cls, np.ndarray):
        return _ARRAY
    if issubclass(cls, _ATOMS):
        return _ATOM
    if issubclass(cls, (list, tuple, set, frozenset)):
        return _SEQUENCE
    if issubclass(cls, dict):
        return _MAPPING
    return _OBJECT


def freeze_state(obj) -> bytes:
    """Serialise a predictor state object graph byte-exactly."""
    return pickle.dumps(obj, protocol=PICKLE_PROTOCOL)


def thaw_state(blob: bytes):
    """Inverse of :func:`freeze_state` (exact object state back)."""
    return pickle.loads(blob)
