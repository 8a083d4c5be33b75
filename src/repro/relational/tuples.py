"""Tuples over attribute sets, with the distinguished ``NULL`` marker.

The paper works with a single null marker (Section 2): a tuple is *total*
iff it has only non-null values, and ``null_k`` denotes a sub-tuple of
``k`` nulls.  Following the DBMSs the paper targets (Section 5.1 notes that
SYBASE and INGRES "consider all null values as identical"), ``NULL`` is a
singleton and compares equal only to itself.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from operator import attrgetter, is_, itemgetter, methodcaller
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.relational.attributes import Attribute


class _NullType:
    """Singleton type of the ``NULL`` marker."""

    _instance: "_NullType | None" = None

    def __new__(cls) -> "_NullType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self):
        return (_NullType, ())


#: The distinguished null marker used throughout the library.
NULL = _NullType()


def is_null(value: Any) -> bool:
    """True iff ``value`` is the ``NULL`` marker."""
    return value is NULL


class Tuple:
    """An immutable tuple over a set of attributes.

    A :class:`Tuple` maps attribute *names* to values (possibly ``NULL``).
    Attribute names are used as keys because the paper assumes globally
    unique attribute names within a schema, which makes names unambiguous
    join/projection handles.
    """

    __slots__ = ("_values", "_hash")

    def __init__(self, values: Mapping[str, Any]):
        self._values: dict[str, Any] = dict(values)
        self._hash: int | None = None

    @classmethod
    def over(cls, attrs: Sequence[Attribute], values: Sequence[Any]) -> "Tuple":
        """Build a tuple by pairing attributes with positional values."""
        if len(attrs) != len(values):
            raise ValueError(
                f"{len(attrs)} attributes but {len(values)} values"
            )
        return cls({a.name: v for a, v in zip(attrs, values)})

    # -- mapping interface -------------------------------------------------

    def __getitem__(self, key: "str | Attribute") -> Any:
        name = key.name if isinstance(key, Attribute) else key
        return self._values[name]

    def get(self, key: "str | Attribute", default: Any = None) -> Any:
        """Value lookup with a default, mirroring ``dict.get``."""
        name = key.name if isinstance(key, Attribute) else key
        return self._values.get(name, default)

    def __contains__(self, key: "str | Attribute") -> bool:
        name = key.name if isinstance(key, Attribute) else key
        return name in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def keys(self):
        """The tuple's attribute names."""
        return self._values.keys()

    def items(self):
        """(attribute name, value) pairs."""
        return self._values.items()

    def as_dict(self) -> dict[str, Any]:
        """A plain-dict copy of the tuple's values."""
        return dict(self._values)

    @property
    def mapping(self) -> Mapping[str, Any]:
        """The underlying name -> value mapping, without copying.

        Read-only by convention: callers must not mutate it (the tuple
        is immutable and caches its hash).  Hot paths -- the engine's
        compiled access plans -- read values through this mapping
        instead of paying :meth:`__getitem__`'s per-access dispatch.
        """
        return self._values

    # -- equality / hashing ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tuple):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._values.items()))
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in sorted(self._values.items()))
        return f"Tuple({body})"

    # -- paper operations ----------------------------------------------------

    def subtuple(self, attrs: "Iterable[str | Attribute]") -> "Tuple":
        """The sub-tuple ``t[W]`` of this tuple on attribute set ``W``."""
        selected = {}
        for key in attrs:
            name = key.name if isinstance(key, Attribute) else key
            selected[name] = self._values[name]
        return Tuple(selected)

    def is_total(self) -> bool:
        """True iff the tuple has only non-null values."""
        return not any(is_null(v) for v in self._values.values())

    def is_total_on(self, attrs: "Iterable[str | Attribute]") -> bool:
        """True iff the sub-tuple on ``attrs`` has only non-null values."""
        for key in attrs:
            name = key.name if isinstance(key, Attribute) else key
            if is_null(self._values[name]):
                return False
        return True

    def is_all_null_on(self, attrs: "Iterable[str | Attribute]") -> bool:
        """True iff the sub-tuple on ``attrs`` consists entirely of nulls."""
        for key in attrs:
            name = key.name if isinstance(key, Attribute) else key
            if not is_null(self._values[name]):
                return False
        return True

    def renamed(self, name_map: Mapping[str, str]) -> "Tuple":
        """Rename attributes per ``name_map`` (names absent from the map are
        kept)."""
        return Tuple(
            {name_map.get(k, k): v for k, v in self._values.items()}
        )

    def combined(self, other: "Tuple") -> "Tuple":
        """The concatenation of two tuples over disjoint attribute sets."""
        overlap = self._values.keys() & other._values.keys()
        if overlap:
            raise ValueError(
                f"cannot combine tuples with shared attributes: {sorted(overlap)}"
            )
        merged = dict(self._values)
        merged.update(other._values)
        return Tuple(merged)

    def with_values(self, updates: Mapping[str, Any]) -> "Tuple":
        """A copy of this tuple with some attribute values replaced."""
        unknown = updates.keys() - self._values.keys()
        if unknown:
            raise KeyError(f"unknown attributes: {sorted(unknown)}")
        merged = dict(self._values)
        merged.update(updates)
        return Tuple(merged)

    def padded_with_nulls(self, attrs: Iterable[Attribute]) -> "Tuple":
        """Extend the tuple with ``NULL`` values on additional attributes."""
        extra = {a.name: NULL for a in attrs}
        overlap = extra.keys() & self._values.keys()
        if overlap:
            raise ValueError(
                f"cannot pad attributes already present: {sorted(overlap)}"
            )
        merged = dict(self._values)
        merged.update(extra)
        return Tuple(merged)


def null_tuple(attrs: Sequence[Attribute]) -> Tuple:
    """The tuple ``null_k`` consisting entirely of nulls on ``attrs``."""
    return Tuple({a.name: NULL for a in attrs})


#: Each tuple's backing mapping, read without the ``mapping`` property's
#: Python-level call: how a relation's tuples reach the column reads of
#: :func:`values_on`.
backing = attrgetter("_values")

#: ``has_null(value)``: does a value tuple contain ``NULL``?  A C-level
#: callable (``NULL`` compares equal only to itself), so ``map`` and
#: ``filterfalse`` run it without a Python frame per row.
has_null = methodcaller("__contains__", NULL)

#: ``is_null`` as a C-level callable, for the same column passes.
_is_null = partial(is_, NULL)


def null_probe(names: Sequence[str]) -> Callable[[Any], bool]:
    """The C-level "holds a ``NULL``" test for values on ``names`` as
    :func:`values_on` reads them: an identity test for one attribute
    (the value is bare), :data:`has_null` for more."""
    return _is_null if len(names) == 1 else has_null


def contains_null(value: Any) -> bool:
    """True iff the key or projected value ``value`` holds the ``NULL``
    marker: it is ``NULL`` (a one-attribute value), or a tuple with a
    ``NULL`` component."""
    return value is NULL or (isinstance(value, tuple) and NULL in value)


def any_null(values: Iterable[Any], width: int) -> bool:
    """Whether some value of ``values`` -- values on ``width``
    attributes, bare for one -- holds a ``NULL``: one C-level probe
    (a hash lookup when ``values`` is a set or a dict's keys)."""
    if width == 1:
        return NULL in values
    return NULL in chain.from_iterable(values)


def values_on(rows: Iterable[Mapping[str, Any]], names: Sequence[str]) -> list:
    """Each row mapping's value on ``names``, in iteration order -- the
    value-level counterpart of ``project``.

    A value follows the engine's one rule for keys and projections: it
    is ``itemgetter(*names)(row)``, the bare value for one attribute and
    a tuple for two or more.  ``rows`` are attribute mappings: a
    relation's ``mappings`` (its tuples' backing dicts) or the engine's
    stored row dicts.  The pass is a C loop that builds no
    :class:`Tuple`.  A missing attribute raises ``KeyError``.
    """
    names = tuple(names)
    if not names:
        return [() for _ in rows]
    return list(map(itemgetter(*names), rows))


def key_value(key: Any) -> Any:
    """A key given from outside in the engine's form: a 1-tuple is
    unwrapped to its bare value, and anything else is kept, so ``"x"``
    and ``("x",)`` name the same one-attribute key."""
    if isinstance(key, tuple) and len(key) == 1:
        return key[0]
    return key


def key_tuple(value: Any) -> tuple:
    """A key or reference value as a value tuple -- the form the log,
    the wire and error texts write -- whatever its number of
    attributes (a bare value becomes a 1-tuple)."""
    return value if isinstance(value, tuple) else (value,)
