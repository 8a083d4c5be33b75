"""Seeded inputs for the benchmark and the model that predicts every answer.

Everything here is pure: no sockets, no files, no engine.  A workload's
generator turns a seed into a preload state (per-scheme row lists over
the Figure 3 university schema) and one op stream per connection.  While
it generates, it keeps its own model of which rows exist, so every op
carries the answer the server must give -- the stored row, ``None``, or
the constraint kind that must reject it.  The engine is never asked.

Connections own disjoint key ranges (``c0-...`` vs ``c1-...``), and the
server handles one connection's frames in order, so each stream's
predictions hold however the server interleaves the two connections.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterator

SCHEMES = (
    "PERSON",
    "FACULTY",
    "STUDENT",
    "COURSE",
    "DEPARTMENT",
    "OFFER",
    "TEACH",
    "ASSIST",
)
#: The single key attribute of every university scheme.
KEY = {
    "PERSON": "P.SSN",
    "FACULTY": "F.SSN",
    "STUDENT": "S.SSN",
    "COURSE": "C.NR",
    "DEPARTMENT": "D.NAME",
    "OFFER": "O.C.NR",
    "TEACH": "T.C.NR",
    "ASSIST": "A.C.NR",
}
MERGE_MEMBERS = ("COURSE", "OFFER", "TEACH", "ASSIST")
DEPARTMENTS = tuple(f"d{i:02d}" for i in range(20))
#: Most courses one faculty member teaches: bounds ``find_referencing``
#: FACULTY<-TEACH fan-out.
TEACH_FAN = 3


@dataclass(slots=True)
class Op:
    """One request and the answer it must get.

    ``params`` are the wire parameters of ``verb``.  ``reject`` names the
    constraint kind that must refuse the op (``None``: it must succeed
    and return ``expect``).  ``rows`` is how many rows it commits when
    it succeeds.
    """

    verb: str
    params: dict[str, Any]
    write: bool
    expect: Any = None
    reject: str | None = None
    rows: int = 0


def answer_ok(op: Op, frame: dict[str, Any]) -> bool:
    """Whether a response frame is exactly the answer ``op`` predicts."""
    if op.reject is not None:
        error = frame.get("error") or {}
        return (
            frame.get("ok") is False
            and error.get("type") == "constraint-violation"
            and error.get("kind") == op.reject
        )
    if not frame.get("ok"):
        return False
    result = frame.get("result")
    if op.verb == "apply_merge":
        return sorted(result.get("members", ())) == sorted(op.params["members"])
    if op.verb == "find_referencing":
        key = lambda r: sorted(r.items())  # noqa: E731 - order-free compare
        return sorted(result or [], key=key) == sorted(op.expect, key=key)
    return result == op.expect


# -- the model -----------------------------------------------------------------


class Pool:
    """A set with O(1) add, remove and seeded random choice."""

    __slots__ = ("_items", "_index")

    def __init__(self):
        self._items: list[str] = []
        self._index: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: str) -> bool:
        return item in self._index

    def add(self, item: str) -> None:
        if item not in self._index:
            self._index[item] = len(self._items)
            self._items.append(item)

    def discard(self, item: str) -> None:
        i = self._index.pop(item, None)
        if i is None:
            return
        last = self._items.pop()
        if i < len(self._items):
            self._items[i] = last
            self._index[last] = i

    def choice(self, rng: random.Random) -> str:
        return self._items[rng.randrange(len(self._items))]


@dataclass
class Model:
    """The rows the generator expects to exist, ``{scheme: {pk: row}}``."""

    rows: dict[str, dict[str, dict[str, str]]] = field(
        default_factory=lambda: {s: {} for s in SCHEMES}
    )

    def put(self, scheme: str, row: dict[str, str]) -> None:
        self.rows[scheme][row[KEY[scheme]]] = row

    def drop(self, scheme: str, pk: str) -> None:
        del self.rows[scheme][pk]

    def get(self, scheme: str, pk: str) -> dict[str, str] | None:
        return self.rows[scheme].get(pk)


#: Every university scheme's attributes, key first.
ATTRS = {
    **{s: (k,) for s, k in KEY.items()},
    "OFFER": ("O.C.NR", "O.D.NAME"),
    "TEACH": ("T.C.NR", "T.F.SSN"),
    "ASSIST": ("A.C.NR", "A.S.SSN"),
}


def _row(scheme: str, *values: str) -> dict[str, str]:
    return dict(zip(ATTRS[scheme], values))


# -- preload -------------------------------------------------------------------


@dataclass
class Partition:
    """One connection's slice of the university: its own people and
    courses, plus the pools the generators draw from."""

    prefix: str
    faculty: list[str]
    students: list[str]
    courses: list[str]
    #: The connection's own generator: how the client interleaves the
    #: connections must not change what either one sends.
    rng: random.Random = field(default_factory=random.Random)
    missing: int = 0  # dangling keys handed out so far
    no_offer: Pool = field(default_factory=Pool)
    no_teach: Pool = field(default_factory=Pool)  # offered, not taught
    no_assist: Pool = field(default_factory=Pool)  # offered, not assisted
    teach: Pool = field(default_factory=Pool)
    assist: Pool = field(default_factory=Pool)
    bare: Pool = field(default_factory=Pool)  # offered, no TEACH/ASSIST
    offered: Pool = field(default_factory=Pool)
    teaches: dict[str, set[str]] = field(default_factory=dict)  # fac -> crs


def preload(
    rng: random.Random,
    model: Model,
    n_partitions: int,
    courses: int,
    people: int,
) -> list[Partition]:
    """Fill ``model`` with a consistent university state split into
    ``n_partitions`` key ranges; ``courses``/``people`` are per
    partition.  Faculty member ``j`` teaches the courses numbered
    ``TEACH_FAN*j .. TEACH_FAN*j + TEACH_FAN - 1`` that are taught, so
    ``find_referencing`` fan-out stays at most ``TEACH_FAN``."""
    for d in DEPARTMENTS:
        model.put("DEPARTMENT", _row("DEPARTMENT", d))
    parts = []
    for k in range(n_partitions):
        prefix = f"c{k}-"
        persons = [f"{prefix}p{i:06d}" for i in range(people)]
        half = people // 2
        part = Partition(
            prefix=prefix,
            faculty=persons[:half],
            students=persons[half:],
            courses=[f"{prefix}k{i:06d}" for i in range(courses)],
        )
        for p in persons:
            model.put("PERSON", _row("PERSON", p))
        for f in part.faculty:
            model.put("FACULTY", _row("FACULTY", f))
            part.teaches[f] = set()
        for s in part.students:
            model.put("STUDENT", _row("STUDENT", s))
        for i, c in enumerate(part.courses):
            model.put("COURSE", _row("COURSE", c))
            if rng.random() >= 0.8:
                part.no_offer.add(c)
                continue
            model.put("OFFER", _row("OFFER", c, rng.choice(DEPARTMENTS)))
            part.offered.add(c)
            taught = rng.random() < 0.6
            assisted = rng.random() < 0.5
            if taught:
                fac = part.faculty[(i // TEACH_FAN) % len(part.faculty)]
                model.put("TEACH", _row("TEACH", c, fac))
                part.teach.add(c)
                part.teaches[fac].add(c)
            else:
                part.no_teach.add(c)
            if assisted:
                model.put(
                    "ASSIST", _row("ASSIST", c, rng.choice(part.students))
                )
                part.assist.add(c)
            else:
                part.no_assist.add(c)
            if not taught and not assisted:
                part.bare.add(c)
        parts.append(part)
    return parts


# -- oltp_point ----------------------------------------------------------------


class OltpPoint:
    """Point reads and IND-checked point writes, two connections.

    About 60% reads (``get``, ``join_to`` TEACH->FACULTY,
    ``find_referencing`` FACULTY<-TEACH with fan-out at most 3), 35%
    accepted writes (OFFER/TEACH/ASSIST inserts, ``O.D.NAME`` and
    ``T.F.SSN`` updates, deletes of unreferenced rows) and 5% writes
    that must be rejected (dangling IND, duplicate key, restrict-delete).
    Inserts and deletes balance, so the state stays near its preload.
    """

    connections = 2

    def __init__(self, seed: int, courses: int = 6_000, people: int = 6_000):
        self.rng = random.Random(seed)
        self.model = Model()
        self.parts = preload(self.rng, self.model, 2, courses, people)
        for k, part in enumerate(self.parts):
            part.rng = random.Random(f"{seed}/{k}")
        self._mix = _cumulative(
            [
                (0.20, self._get_course),
                (0.10, self._get_person),
                (0.15, self._join_to),
                (0.15, self._find_referencing),
                (0.07, self._insert_offer),
                (0.06, self._insert_teach),
                (0.05, self._insert_assist),
                (0.04, self._update_offer),
                (0.04, self._update_teach),
                (0.04, self._delete_teach),
                (0.04, self._delete_assist),
                (0.01, self._delete_offer),
                (0.02, self._reject_dangling),
                (0.015, self._reject_duplicate),
                (0.015, self._reject_restrict),
            ]
        )

    def stream(self, conn: int) -> Iterator[Op]:
        part = self.parts[conn]
        rng = part.rng
        while True:
            op = _pick(self._mix, rng)(part)
            if op is not None:
                yield op

    # reads
    def _get_course(self, part: Partition) -> Op:
        c = part.courses[part.rng.randrange(len(part.courses))]
        scheme = "OFFER" if part.rng.random() < 0.5 else "COURSE"
        return Op("get", {"scheme": scheme, "pk": [c]}, False,
                  self.model.get(scheme, c))

    def _get_person(self, part: Partition) -> Op:
        p = part.rng.choice((part.faculty, part.students))
        p = p[part.rng.randrange(len(p))]
        return Op("get", {"scheme": "PERSON", "pk": [p]}, False,
                  self.model.get("PERSON", p))

    def _join_to(self, part: Partition) -> Op | None:
        if not part.teach:
            return None
        c = part.teach.choice(part.rng)
        fac = self.model.get("TEACH", c)["T.F.SSN"]
        return Op(
            "join_to",
            {"scheme": "TEACH", "pk": [c], "via": ["T.F.SSN"],
             "target_scheme": "FACULTY", "target_attrs": None},
            False,
            self.model.get("FACULTY", fac),
        )

    def _find_referencing(self, part: Partition) -> Op:
        fac = part.faculty[part.rng.randrange(len(part.faculty))]
        expect = [self.model.get("TEACH", c) for c in part.teaches[fac]]
        return Op(
            "find_referencing",
            {"scheme": "FACULTY", "pk": [fac], "source_scheme": "TEACH",
             "via": ["T.F.SSN"], "target_attrs": ["F.SSN"]},
            False,
            expect,
        )

    # accepted writes
    def _insert(self, scheme: str, row: dict[str, str]) -> Op:
        self.model.put(scheme, row)
        return Op("insert", {"scheme": scheme, "row": row}, True, row, rows=1)

    def _update(self, scheme: str, pk: str, updates: dict[str, str]) -> Op:
        row = dict(self.model.get(scheme, pk))
        row.update(updates)
        self.model.put(scheme, row)
        return Op("update", {"scheme": scheme, "pk": [pk], "updates": updates},
                  True, row, rows=1)

    def _delete(self, scheme: str, pk: str) -> Op:
        self.model.drop(scheme, pk)
        return Op("delete", {"scheme": scheme, "pk": [pk]}, True, None, rows=1)

    def _insert_offer(self, part: Partition) -> Op | None:
        if not part.no_offer:
            return None
        c = part.no_offer.choice(part.rng)
        for pool in (part.offered, part.no_teach, part.no_assist, part.bare):
            pool.add(c)
        part.no_offer.discard(c)
        return self._insert("OFFER", _row("OFFER", c, part.rng.choice(DEPARTMENTS)))

    def _insert_teach(self, part: Partition) -> Op | None:
        if not part.no_teach:
            return None
        c = part.no_teach.choice(part.rng)
        fac = self._light_faculty(part)
        part.no_teach.discard(c)
        part.teach.add(c)
        part.bare.discard(c)
        part.teaches[fac].add(c)
        return self._insert("TEACH", _row("TEACH", c, fac))

    def _light_faculty(self, part: Partition) -> str:
        """A faculty member teaching fewer than ``TEACH_FAN`` courses
        (keeps the ``find_referencing`` fan-out bounded)."""
        while True:
            fac = part.faculty[part.rng.randrange(len(part.faculty))]
            if len(part.teaches[fac]) < TEACH_FAN:
                return fac

    def _insert_assist(self, part: Partition) -> Op | None:
        if not part.no_assist:
            return None
        c = part.no_assist.choice(part.rng)
        part.no_assist.discard(c)
        part.assist.add(c)
        part.bare.discard(c)
        stu = part.students[part.rng.randrange(len(part.students))]
        return self._insert("ASSIST", _row("ASSIST", c, stu))

    def _update_offer(self, part: Partition) -> Op | None:
        if not part.offered:
            return None
        c = part.offered.choice(part.rng)
        return self._update("OFFER", c, {"O.D.NAME": part.rng.choice(DEPARTMENTS)})

    def _update_teach(self, part: Partition) -> Op | None:
        if not part.teach:
            return None
        c = part.teach.choice(part.rng)
        old = self.model.get("TEACH", c)["T.F.SSN"]
        fac = self._light_faculty(part)
        part.teaches[old].discard(c)
        part.teaches[fac].add(c)
        return self._update("TEACH", c, {"T.F.SSN": fac})

    def _delete_teach(self, part: Partition) -> Op | None:
        if not part.teach:
            return None
        c = part.teach.choice(part.rng)
        part.teaches[self.model.get("TEACH", c)["T.F.SSN"]].discard(c)
        part.teach.discard(c)
        part.no_teach.add(c)
        if c not in part.assist:
            part.bare.add(c)
        return self._delete("TEACH", c)

    def _delete_assist(self, part: Partition) -> Op | None:
        if not part.assist:
            return None
        c = part.assist.choice(part.rng)
        part.assist.discard(c)
        part.no_assist.add(c)
        if c not in part.teach:
            part.bare.add(c)
        return self._delete("ASSIST", c)

    def _delete_offer(self, part: Partition) -> Op | None:
        if not part.bare:
            return None
        c = part.bare.choice(part.rng)
        for pool in (part.offered, part.no_teach, part.no_assist, part.bare):
            pool.discard(c)
        part.no_offer.add(c)
        return self._delete("OFFER", c)

    # rejected writes
    def _reject_dangling(self, part: Partition) -> Op:
        part.missing += 1
        row = _row("OFFER", f"{part.prefix}missing{part.missing}",
                   part.rng.choice(DEPARTMENTS))
        return Op("insert", {"scheme": "OFFER", "row": row}, True,
                  reject="inclusion-dependency")

    def _reject_duplicate(self, part: Partition) -> Op:
        c = part.courses[part.rng.randrange(len(part.courses))]
        return Op("insert", {"scheme": "COURSE", "row": _row("COURSE", c)},
                  True, reject="primary-key")

    def _reject_restrict(self, part: Partition) -> Op | None:
        if not part.offered:
            return None
        c = part.offered.choice(part.rng)
        return Op("delete", {"scheme": "COURSE", "pk": [c]}, True,
                  reject="restrict-delete")


def _cumulative(weighted):
    total = sum(w for w, _ in weighted)
    acc, out = 0.0, []
    for w, fn in weighted:
        acc += w / total
        out.append((acc, fn))
    return out


def _pick(cumulative, rng: random.Random):
    x = rng.random()
    for edge, fn in cumulative:
        if x < edge:
            return fn
    return cumulative[-1][1]


# -- bulk_ingest ---------------------------------------------------------------


class BulkIngest:
    """Bulk batches of about 500 rows, two connections.

    Each connection cycles through groups of new people and courses:
    ``insert_many`` into every scheme in referential order (PERSON,
    FACULTY, STUDENT, COURSE, OFFER, TEACH, ASSIST), one ``apply_batch``
    of mixed updates and deletes, then -- once ``window`` groups are
    live -- ``apply_batch`` deletes retiring the oldest group, leaf
    schemes first, so the live state stays bounded.  About 2% of
    batches carry one violating row at a random position and must be
    rejected whole; only leaf batches (TEACH, ASSIST, the mixed batch)
    are spoiled, so a rejection never cascades.  After every accepted
    batch a ``get`` reads one of its rows back.
    """

    connections = 2

    def __init__(self, seed: int, batch: int = 500, window: int = 4,
                 courses: int = 5_000, people: int = 5_000):
        self.rng = random.Random(seed)
        self.model = Model()
        self.parts = preload(self.rng, self.model, 2, courses, people)
        self.seed = seed
        self.batch = batch
        self.window = window

    def stream(self, conn: int) -> Iterator[Op]:
        # The connection's own generator: how the client interleaves
        # the connections must not change what either one sends.
        rng = random.Random(f"{self.seed}/{conn}")
        model, n = self.model, self.batch
        prefix = f"c{conn}-"
        live: list[tuple[list[str], list[str]]] = []
        group = 0
        while True:
            g = f"{prefix}g{group:05d}-"
            persons = [f"{g}p{i:04d}" for i in range(n)]
            faculty, students = persons[: n // 2], persons[n // 2:]
            courses = [f"{g}k{i:04d}" for i in range(n)]
            batches = [
                ("PERSON", [_row("PERSON", p) for p in persons]),
                ("FACULTY", [_row("FACULTY", f) for f in faculty]),
                ("STUDENT", [_row("STUDENT", s) for s in students]),
                ("COURSE", [_row("COURSE", c) for c in courses]),
                ("OFFER", [_row("OFFER", c, rng.choice(DEPARTMENTS))
                           for c in courses]),
                ("TEACH", [_row("TEACH", c, rng.choice(faculty))
                           for c in courses]),
                ("ASSIST", [_row("ASSIST", c, rng.choice(students))
                            for c in courses]),
            ]
            for scheme, rows in batches:
                spoil = scheme in ("TEACH", "ASSIST") and rng.random() < 0.07
                yield from self._insert_many(scheme, rows, spoil, rng)
            yield from self._mixed(courses, faculty, rng)
            live.append((courses, persons))
            if len(live) > self.window:
                yield from self._retire(*live.pop(0))
            group += 1

    def _insert_many(self, scheme, rows, spoil, rng) -> Iterator[Op]:
        if spoil:
            rows = list(rows)
            bad = rng.randrange(len(rows))
            attr = "T.F.SSN" if scheme == "TEACH" else "A.S.SSN"
            rows[bad] = dict(rows[bad], **{attr: "nobody"})
            yield Op("insert_many", {"scheme": scheme, "rows": rows}, True,
                     reject="inclusion-dependency")
            return
        for row in rows:
            self.model.put(scheme, row)
        yield Op("insert_many", {"scheme": scheme, "rows": rows}, True, rows,
                 rows=len(rows))
        yield self._probe(scheme, rows[rng.randrange(len(rows))])

    def _probe(self, scheme: str, row: dict[str, str] | None) -> Op:
        pk = row[KEY[scheme]]
        return Op("get", {"scheme": scheme, "pk": [pk]}, False,
                  self.model.get(scheme, pk))

    def _mixed(self, courses: list[str], faculty: list[str], rng):
        """One ``apply_batch`` of OFFER/TEACH updates and ASSIST
        deletes over this group's rows; 2% carry one dangling OFFER
        update and must be rejected whole."""
        model = self.model
        spoil = rng.random() < 0.02
        ops = []
        for c in courses:
            x = rng.random()
            if x < 0.4 and model.get("OFFER", c):
                ops.append(["update", "OFFER", [c],
                            {"O.D.NAME": rng.choice(DEPARTMENTS)}])
            elif x < 0.8 and model.get("TEACH", c):
                ops.append(["update", "TEACH", [c],
                            {"T.F.SSN": rng.choice(faculty)}])
            elif model.get("ASSIST", c):
                ops.append(["delete", "ASSIST", [c]])
        offers = [i for i, op in enumerate(ops) if op[1] == "OFFER"]
        if spoil and offers:
            i = offers[rng.randrange(len(offers))]
            ops[i] = ["update", "OFFER", ops[i][2], {"O.D.NAME": "nowhere"}]
            yield Op("apply_batch", {"ops": ops}, True,
                     reject="inclusion-dependency")
            return
        expect = []
        for kind, scheme, (pk,), *rest in ops:
            if kind == "update":
                row = dict(model.get(scheme, pk), **rest[0])
                model.put(scheme, row)
                expect.append(row)
            else:
                model.drop(scheme, pk)
                expect.append(None)
        yield Op("apply_batch", {"ops": ops}, True, expect, rows=len(ops))
        yield self._probe("OFFER", model.get("OFFER", courses[0]))

    def _retire(self, courses: list[str], persons: list[str]) -> Iterator[Op]:
        """Delete one old group, leaf schemes first, in batches."""
        model, n = self.model, self.batch
        ops = [
            ["delete", scheme, [pk]]
            for scheme, keys in (
                ("ASSIST", courses), ("TEACH", courses), ("OFFER", courses),
                ("COURSE", courses), ("FACULTY", persons),
                ("STUDENT", persons), ("PERSON", persons),
            )
            for pk in keys
            if pk in model.rows[scheme]
        ]
        for start in range(0, len(ops), n):
            chunk = ops[start: start + n]
            for _, scheme, (pk,) in chunk:
                model.drop(scheme, pk)
            yield Op("apply_batch", {"ops": chunk}, True, [None] * len(chunk),
                     rows=len(chunk))


# -- online_merge --------------------------------------------------------------


class OnlineMerge:
    """Open-loop point traffic on the non-member schemes, plus one
    ``apply_merge(COURSE, OFFER, TEACH, ASSIST)``.

    Connection 0 carries PERSON/FACULTY/STUDENT gets, inserts of new
    people and their FACULTY/STUDENT rows, deletes of those rows again
    (newest role first, so no delete is ever restricted), and about 5%
    STUDENT inserts for people that do not exist, which must be
    rejected.  Connection 1 carries only the merge.
    """

    connections = 2

    def __init__(self, seed: int, courses: int = 5_000, people: int = 20_000):
        self.rng = random.Random(seed)
        self.model = Model()
        self.parts = preload(self.rng, self.model, 1, courses, people)
        self._fresh = 0
        self._new: list[tuple[str, str]] = []  # (person, role scheme)

    def merge_op(self) -> Op:
        return Op("apply_merge", {"members": list(MERGE_MEMBERS)}, True)

    def stream(self, conn: int = 0) -> Iterator[Op]:
        rng, model, part = self.rng, self.model, self.parts[0]
        people = part.faculty + part.students
        while True:
            x = rng.random()
            if x < 0.55:
                p = people[rng.randrange(len(people))]
                scheme = rng.choice(("PERSON", "FACULTY", "STUDENT"))
                yield Op("get", {"scheme": scheme, "pk": [p]}, False,
                         model.get(scheme, p))
            elif x < 0.75 or not self._new:
                # The model changes op by op, right before each op is
                # handed out: a run may end between the two.
                self._fresh += 1
                p = f"{part.prefix}n{self._fresh:07d}"
                role = rng.choice(("FACULTY", "STUDENT"))
                for scheme in ("PERSON", role):
                    model.put(scheme, _row(scheme, p))
                    yield Op("insert", {"scheme": scheme, "row": _row(scheme, p)},
                             True, _row(scheme, p), rows=1)
                self._new.append((p, role))
            elif x < 0.95:
                p, role = self._new.pop(rng.randrange(len(self._new)))
                for scheme in (role, "PERSON"):
                    model.drop(scheme, p)
                    yield Op("delete", {"scheme": scheme, "pk": [p]}, True,
                             None, rows=1)
            else:
                self._fresh += 1
                p = f"{part.prefix}ghost{self._fresh:07d}"
                yield Op("insert",
                         {"scheme": "STUDENT", "row": _row("STUDENT", p)},
                         True, reject="inclusion-dependency")


# -- cross_shard ---------------------------------------------------------------


class CrossShard:
    """Two-phase batches across a 2-worker fleet.

    Each ``apply_batch`` inserts a new COURSE with its OFFER and TEACH
    rows, where the TEACH row references a FACULTY member on the other
    shard than the TEACH row's own, plus a PERSON insert.  About 2% of
    batches reference a faculty member that does not exist and must
    abort on every shard.  After every accepted batch a ``get`` reads
    its TEACH row back.

    ``placement(scheme, key)`` names the shard owning a row.  The
    preload co-locates each person's PERSON/FACULTY/STUDENT rows and
    each course's COURSE/OFFER/TEACH rows with everything they
    reference, so every worker's share of it is consistent on its own
    (it has no ASSIST rows: with two shards an ASSIST row always hashes
    to the other shard than its OFFER row).
    """

    connections = 1

    def __init__(self, seed: int, placement, courses: int = 4_000,
                 people: int = 4_000):
        self.rng = rng = random.Random(seed)
        self.model = model = Model()
        self.place = placement
        depts = {0: [], 1: []}
        for d in DEPARTMENTS:
            model.put("DEPARTMENT", _row("DEPARTMENT", d))
            depts[placement("DEPARTMENT", d)].append(d)
        self.faculty_on = {0: [], 1: []}
        for i, p in enumerate(
            _colocated(placement, "p", ("PERSON", "FACULTY", "STUDENT"), people)
        ):
            home = placement("PERSON", p)
            role = "FACULTY" if i % 2 == 0 else "STUDENT"
            model.put("PERSON", _row("PERSON", p))
            model.put(role, _row(role, p))
            if role == "FACULTY":
                self.faculty_on[home].append(p)
        for c in _colocated(placement, "k", ("COURSE", "OFFER", "TEACH"), courses):
            home = placement("COURSE", c)
            model.put("COURSE", _row("COURSE", c))
            if rng.random() >= 0.8 or not depts[home]:
                continue
            model.put("OFFER", _row("OFFER", c, rng.choice(depts[home])))
            if rng.random() < 0.6:
                model.put("TEACH", _row("TEACH", c, rng.choice(self.faculty_on[home])))
        self._n = 0

    def stream(self, conn: int = 0) -> Iterator[Op]:
        rng, model = self.rng, self.model
        while True:
            self._n += 1
            c = f"x{self._n:07d}"
            pool = self.faculty_on[1 - self.place("TEACH", c)]
            fac = pool[rng.randrange(len(pool))]
            bad = rng.random() < 0.02
            rows = [
                ("COURSE", _row("COURSE", c)),
                ("OFFER", _row("OFFER", c, rng.choice(DEPARTMENTS))),
                ("TEACH", _row("TEACH", c, "nobody" if bad else fac)),
                ("PERSON", _row("PERSON", f"xp{self._n:07d}")),
            ]
            ops = [["insert", s, r] for s, r in rows]
            if bad:
                yield Op("apply_batch", {"ops": ops}, True,
                         reject="inclusion-dependency")
                continue
            for s, r in rows:
                model.put(s, r)
            yield Op("apply_batch", {"ops": ops}, True, [r for _, r in rows],
                     rows=len(rows))
            yield Op("get", {"scheme": "TEACH", "pk": [c]}, False,
                     model.get("TEACH", c))


def _colocated(placement, tag: str, schemes, n: int) -> Iterator[str]:
    """``n`` keys whose rows in every one of ``schemes`` share a shard."""
    i = 0
    made = 0
    while made < n:
        key = f"{tag}{i:07d}"
        i += 1
        if len({placement(s, key) for s in schemes}) == 1:
            made += 1
            yield key


def apply_effect(rows: dict[str, dict[str, dict]], op: Op) -> None:
    """Apply an accepted op's effect to ``{scheme: {pk: row}}`` -- an
    interpreter of the ops independent of the generator that made
    them, so a run's expected final state covers exactly the ops it
    sent."""
    if not op.write or op.reject is not None or op.verb == "apply_merge":
        return
    p = op.params
    if op.verb == "apply_batch":
        for kind, scheme, *rest in p["ops"]:
            if kind == "insert":
                _apply_one(rows, "insert", scheme, row=rest[0])
            else:
                _apply_one(rows, kind, scheme, pk=rest[0][0],
                           updates=rest[1] if kind == "update" else None)
    elif op.verb == "insert_many":
        for row in p["rows"]:
            _apply_one(rows, "insert", p["scheme"], row=row)
    else:
        _apply_one(rows, op.verb, p["scheme"], row=p.get("row"),
                   pk=p["pk"][0] if "pk" in p else None, updates=p.get("updates"))


def _apply_one(rows, kind, scheme, row=None, pk=None, updates=None) -> None:
    table = rows[scheme]
    if kind == "insert":
        table[row[KEY[scheme]]] = row
    elif kind == "update":
        table[pk] = dict(table[pk], **updates)
    else:
        del table[pk]


def preload_rows(model: Model) -> dict[str, list[dict[str, str]]]:
    """The model's rows as the per-scheme lists a state is built from."""
    return {s: list(rows.values()) for s, rows in model.rows.items()}
