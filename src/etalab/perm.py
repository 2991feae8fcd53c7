"""Finite permutation groups with full element enumeration.

Points are 0-based internally (the group file format is 1-based, see
groupfile).  Permutations compare lexicographically on their image tuples and
that order is the tie-break for every canonical choice downstream: class
ordering, chief series steps, transversal scans.

Products and inverses are valid by construction and skip validation (the
trusted `_from_images`); the public constructor validates its images.

A group has one stored form: its sorted elements as byte keys, one per image
row, which sort as the elements do.  It is enumerated by breadth-first
closure of the generators over image rows, capped at 2^21 elements (each
round is one gather per generator; np.unique and a binary search drop the
products already known), or cut from a larger group as a mask over that
group's keys.  Permutation objects are made for generators and class
representatives, and for the public views (elements, element_set, class
members) only when asked for.  Inside the package the product x y of image
rows, x applied first, is the gather y[x], and one key search finds a row's
position among a group's keys and so its class (`_locate_rows`,
`_classes_of_rows`): membership, normality, centers, chief series and class
actions all go through it.  Conjugacy classes are the orbits of the index
maps that conjugation by each generator makes, found by min-label
propagation.

Subgroups carry a reference to the ambient group they were cut from; they
share its degree and are otherwise ordinary groups.  A group keeps the
content keys of the groups it was found to lie in, or be normal in.  A
class set keeps its power map, built once on first use: the one place that
holds powers of elements, one row per class, as wide as the exponent.  The
exponent and the chief series' tests are class functions, read at the
representatives, never at all |G| elements.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import GroupError, PermutationError

DEFAULT_ORDER_CAP = 1 << 21

__all__ = [
    "DEFAULT_ORDER_CAP",
    "ConjugacyClassSet",
    "PGroupInfo",
    "PermGroup",
    "Permutation",
    "center",
    "centralizer",
    "chief_series",
    "conjugacy_classes",
    "group_from_generators",
    "is_p_group",
]


@dataclass(frozen=True, order=True)
class Permutation:
    """A permutation of {0, ..., n-1} stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        imgs = self.images
        if not isinstance(imgs, tuple):
            imgs = tuple(imgs)
            object.__setattr__(self, "images", imgs)
        n = len(imgs)
        seen = [False] * n
        for x in imgs:
            if not isinstance(x, int) or x < 0 or x >= n or seen[x]:
                raise PermutationError(f"invalid permutation: {imgs!r}")
            seen[x] = True

    @classmethod
    def _from_images(cls, images: tuple[int, ...]) -> "Permutation":
        """Trusted constructor: images must already be a valid image tuple."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        return perm

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[tuple[int, ...]]) -> "Permutation":
        """Build from disjoint 0-based cycles; repeated points are rejected."""
        images = list(range(degree))
        used = set()
        for cyc in cycles:
            for pt in cyc:
                if not 0 <= pt < degree:
                    raise PermutationError(f"invalid permutation: point {pt} out of range")
                if pt in used:
                    raise PermutationError(f"invalid permutation: point {pt} repeated")
                used.add(pt)
            for i, pt in enumerate(cyc):
                images[pt] = cyc[(i + 1) % len(cyc)]
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # apply self first, then other
        if len(self.images) != len(other.images):
            raise PermutationError("invalid permutation: degree mismatch in product")
        return Permutation._from_images(tuple(map(other.images.__getitem__, self.images)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation._from_images(tuple(inv))

    def __pow__(self, n: int) -> "Permutation":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        out = Permutation.identity(len(self.images))
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugated_by(self, g: "Permutation") -> "Permutation":
        """g^-1 * self * g."""
        return g.inverse() * self * g

    def order(self) -> int:
        out = 1
        for cyc in self.cycles(include_fixed=True):
            out = lcm(out, len(cyc))
        return out

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def __repr__(self):
        return f"Permutation({self.images!r})"


def _point_dtype(degree: int) -> np.dtype:
    """The smallest unsigned big-endian dtype that holds a point."""
    return np.dtype(">u1" if degree <= 1 << 8 else ">u2" if degree <= 1 << 16 else ">u4")


def _locate(keys: np.ndarray, found: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each of found's keys' position among the sorted keys, and whether it
    is there."""
    pos = np.minimum(np.searchsorted(keys, found), len(keys) - 1)
    return pos, keys[pos] == found


def _locate_rows(G: "PermGroup", rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each image row's (last axis) position among G's sorted element keys,
    as G holds them when called, and whether it is there; a row of another
    length is nowhere."""
    dtype, keys = G.element_keys()
    if rows.shape[-1] != G.degree:
        return np.zeros(rows.shape[:-1], dtype=np.intp), np.zeros(rows.shape[:-1], dtype=bool)
    return _locate(keys, _as_keys(rows.astype(dtype, copy=False)))


def _classes_of_rows(classes: "ConjugacyClassSet", rows: np.ndarray, missing=None) -> np.ndarray:
    """The class of each image row (last axis), found by its position among
    the group's sorted element keys; raises missing, by default
    GroupError("element not in group"), if one is no element."""
    pos, there = _locate_rows(classes.group, rows)
    if not there.all():
        raise missing or GroupError("element not in group")
    return classes.element_class[pos]


def _rows_of(perms: tuple[Permutation, ...], degree: int) -> np.ndarray:
    """The image rows of permutations of one degree, as intp."""
    return np.array([x.images for x in perms], dtype=np.intp).reshape(len(perms), degree)


def _checked(degree: int, perms: Iterable[Permutation]) -> tuple[Permutation, ...]:
    """perms as a tuple; PermutationError unless each is one of the degree."""
    perms = tuple(perms)
    for g in perms:
        if not isinstance(g, Permutation):
            raise PermutationError(f"invalid permutation: {g!r}")
        if g.degree != degree:
            raise PermutationError(
                f"invalid permutation: degree {g.degree} generator in degree {degree} group"
            )
    return perms


def _close_generators(
    degree: int, gens: tuple[Permutation, ...], cap: int
) -> tuple[np.dtype, np.ndarray]:
    """(dtype, keys) as PermGroup.element_keys gives them, for the group gens
    generate, by breadth-first closure over image rows: each round
    multiplies the rows found in the round before by every generator in one
    gather, (x g)[pt] = g[x[pt]], and keeps the distinct products not yet
    known; GroupError once the group has more than cap elements."""
    dtype = _point_dtype(degree)
    images = np.array([g.images for g in gens], dtype=dtype).reshape(len(gens), degree)
    frontier = np.arange(degree, dtype=dtype)[None]
    keys = _as_keys(frontier)
    while len(frontier):
        products = images[:, frontier].reshape(-1, degree)
        found, first = np.unique(_as_keys(products), return_index=True)
        fresh = ~_locate(keys, found)[1]
        if len(keys) + np.count_nonzero(fresh) > cap:
            raise GroupError("group too large")
        keys = np.insert(keys, np.searchsorted(keys, found[fresh]), found[fresh])
        frontier = products[first[fresh]]
    return dtype, keys


class PGroupInfo(NamedTuple):
    is_p_group: bool
    p: int
    exponent: int
    is_trivial: bool


@dataclass(frozen=True)
class ConjugacyClassSet:
    """Conjugacy classes in canonical order.

    Ordering: class size ascending, ties broken by the lexicographically
    smallest member; the representative of a class is that smallest member.
    Class 0 is always the class of the identity.  element_class holds the
    class of each of the group's sorted elements.
    """

    group: "PermGroup"
    representatives: tuple[Permutation, ...]
    sizes: tuple[int, ...]
    element_class: np.ndarray = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.sizes)

    @cached_property
    def members(self) -> tuple[tuple[Permutation, ...], ...]:
        """The members of each class, in sorted order."""
        elements = self.group.elements
        flat = [elements[i] for i in np.argsort(self.element_class, kind="stable").tolist()]
        ends = np.cumsum(self.sizes).tolist()
        return tuple(tuple(flat[end - size : end]) for size, end in zip(self.sizes, ends))

    @cached_property
    def power_map(self) -> np.ndarray:
        """(r, e) read-only array, e the group's exponent: the class of
        rep_j^s for each class j and each s < e, applying each representative
        once more per step, one gather for all, until each has come back to
        class 0, the identity's, and the step is a multiple of the lcm of
        their orders, which is the exponent, as conjugates share an order."""
        G = self.group
        reps = _rows_of(self.representatives, G.degree)
        power = np.broadcast_to(np.arange(G.degree), reps.shape)
        missing = GroupError("internal class failure: a power is not in the group")
        columns, order = [], np.zeros(len(reps), dtype=np.int64)
        while True:
            column = _classes_of_rows(self, power, missing)
            order[(column == 0) & (order == 0)] = len(columns)
            if order.all() and len(columns) % lcm(*order.tolist()) == 0:
                break
            columns.append(column)
            power = np.take_along_axis(reps, power, axis=1)
        out = np.stack(columns, axis=1)
        out.setflags(write=False)
        return out

    def class_of(self, x: Permutation) -> int:
        return int(_classes_of_rows(self, np.array([x.images]))[0])

    def centralizer_order(self, i: int) -> int:
        return self.group.order // self.sizes[i]


class PermGroup:
    """A finite permutation group, fully enumerated."""

    def __init__(
        self,
        degree: int,
        generators: Iterable[Permutation],
        *,
        parent: Optional["PermGroup"] = None,
        order_cap: int = DEFAULT_ORDER_CAP,
        _keys: Optional[np.ndarray] = None,
    ):
        if degree < 1:
            raise GroupError(f"degree must be positive, got {degree}")
        gens = _checked(degree, generators)
        self.degree = degree
        self.generators = gens
        self.parent = parent
        # the sorted element keys (see element_keys) are the group's one
        # stored form, closed from the generators or given as _keys by the
        # group it is cut from; elements are read off them on first use
        if _keys is None:
            self._element_keys = _close_generators(degree, gens, order_cap)
        else:
            self._element_keys = (_point_dtype(degree), _keys)
        self.order = len(self._element_keys[1])
        self._elements: Optional[tuple[Permutation, ...]] = None
        self._classes: Optional[ConjugacyClassSet] = None
        self._pinfo: Optional[PGroupInfo] = None
        self._series = None
        self._content_key: Optional[str] = None
        self._char_table = None
        self._class_actions: dict = {}
        self._subgroup_of: set[str] = set()  # content keys of known supergroups
        self._normal_in: set[str] = set()  # content keys of groups known to normalize it
        if parent is not None and not self.is_subgroup_of(parent):
            raise GroupError("not a subgroup")

    @property
    def elements(self) -> tuple[Permutation, ...]:
        """The elements in sorted order, the order of their image tuples."""
        if self._elements is None:
            rows = self._rows().tolist()
            self._elements = tuple(Permutation._from_images(tuple(row)) for row in rows)
        return self._elements

    @property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __contains__(self, x: Permutation) -> bool:
        return isinstance(x, Permutation) and bool(_locate_rows(self, np.array([x.images]))[1][0])

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return self.order

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"

    def subgroup_from_elements(
        self, elements: Iterable[Permutation], generators: Optional[Iterable[Permutation]] = None
    ) -> "PermGroup":
        elems = _checked(self.degree, elements)
        rows = np.array([x.images for x in elems], dtype=self.element_keys()[0])
        keys = np.unique(_as_keys(rows.reshape(len(elems), self.degree)))
        return self._subgroup_of_keys(keys, generators)

    def _subgroup_of_keys(self, keys: np.ndarray, generators=None) -> "PermGroup":
        """The subgroup whose sorted element keys are keys, generated by
        default by all its non-identity elements, in order."""
        if generators is None:
            dtype = self.element_keys()[0]
            rows = keys[keys != _as_keys(np.arange(self.degree, dtype=dtype))].view(dtype)
            rows = rows.reshape(-1, self.degree).tolist()
            generators = [Permutation._from_images(tuple(row)) for row in rows]
        return PermGroup(self.degree, generators, parent=self, _keys=keys)

    def subgroup(
        self, generators: Iterable[Permutation], order_cap: int = DEFAULT_ORDER_CAP
    ) -> "PermGroup":
        return PermGroup(self.degree, generators, parent=self, order_cap=order_cap)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        if other.content_key not in self._subgroup_of:
            if self.degree != other.degree:
                return False
            if not _locate(other.element_keys()[1], self.element_keys()[1])[1].all():
                return False
            self._subgroup_of.add(other.content_key)
        return True

    def is_normal_in(self, other: "PermGroup") -> bool:
        if other.content_key not in self._normal_in:
            if not self.is_subgroup_of(other):
                return False
            # (g^-1 s g)[pt] = g[s[g^-1[pt]]], g of other's generators on axis 1
            gens = _rows_of(other.generators, self.degree)
            at = np.arange(len(gens))[:, None]
            conj = gens[at, _rows_of(self.generators, self.degree)[:, np.argsort(gens, axis=1)]]
            if not _locate_rows(self, conj)[1].all():
                return False
            self._normal_in.add(other.content_key)
        return True

    def same_elements(self, other: "PermGroup") -> bool:
        return self is other or (
            self.degree == other.degree
            and self.order == other.order
            and bool((self.element_keys()[1] == other.element_keys()[1]).all())
        )

    @property
    def content_key(self) -> str:
        """sha256 of the degree, then of every image of every sorted element,
        each as 4 big-endian bytes."""
        if self._content_key is None:
            h = hashlib.sha256()
            h.update(self.degree.to_bytes(4, "big"))
            # a block of rows at a time, not two |G| x degree copies at once
            rows, step = self._rows(), max(1, (1 << 18) // self.degree)
            for start in range(0, len(rows), step):
                h.update(rows[start : start + step].astype(">u4").tobytes())
            self._content_key = h.hexdigest()
        return self._content_key

    def element_keys(self) -> tuple[np.dtype, np.ndarray]:
        """(dtype, keys): the smallest unsigned big-endian dtype that holds a
        point, and the sorted elements' image rows in it, one key each."""
        return self._element_keys

    def _rows(self) -> np.ndarray:
        """The sorted elements' image rows, in the dtype of their keys."""
        dtype, keys = self.element_keys()
        return keys.view(dtype).reshape(len(keys), self.degree)

    def conjugacy_classes(self) -> ConjugacyClassSet:
        if self._classes is None:
            self._classes = _compute_classes(self)
        return self._classes

    def _centralizing(self, perms: tuple[Permutation, ...]) -> "PermGroup":
        """The subgroup of the elements x that commute with each g of perms:
        x g = g x, that is g[x[pt]] = x[g[pt]] at every point."""
        rows, g = self._rows(), _rows_of(perms, self.degree)
        keep = (g[:, rows].swapaxes(0, 1) == rows[:, g]).all(axis=(1, 2))
        return self._subgroup_of_keys(self.element_keys()[1][keep])

    def center(self) -> "PermGroup":
        return self._centralizing(self.generators)

    def centralizer(self, g: Permutation) -> "PermGroup":
        if g not in self:
            raise GroupError("element not in group")
        return self._centralizing((g,))

    def exponent(self) -> int:
        """The lcm of the element orders: the width of the class set's power
        map, whose walk runs over class representatives only."""
        return self.conjugacy_classes().power_map.shape[1]

    def p_group_info(self) -> PGroupInfo:
        """(is_p_group, p, exponent, is_trivial).  Builds the conjugacy classes
        of a nontrivial group, since the exponent is read off their power map."""
        if self._pinfo is None:
            n = self.order
            if n == 1:
                self._pinfo = PGroupInfo(True, 1, 1, True)
            else:
                p = 2
                while n % p:
                    p += 1
                m = n
                while m % p == 0:
                    m //= p
                self._pinfo = PGroupInfo(m == 1, p if m == 1 else 0, self.exponent(), False)
        return self._pinfo

    def chief_series(self) -> list["PermGroup"]:
        if self._series is None:
            self._series = _chief_series(self)
        return self._series


def group_from_generators(
    degree: int, generators: Iterable[Permutation], order_cap: int = DEFAULT_ORDER_CAP
) -> PermGroup:
    """Enumerate the group generated by the given permutations."""
    return PermGroup(degree, generators, order_cap=order_cap)


def _as_keys(rows: np.ndarray) -> np.ndarray:
    """Rows (last axis) as one void key each.  Keys compare as their bytes:
    for image rows of an unsigned big-endian dtype, as the image tuples."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[-1] * rows.itemsize)))[..., 0]


def _compute_classes(G: PermGroup) -> ConjugacyClassSet:
    rows = G._rows()
    n = len(rows)
    # conjugation by each generator g as a map of element indices:
    # (g^-1 x g)[pt] = g[x[g^-1[pt]]], products applying the left factor first
    maps = []
    for g in G.generators:
        conj = np.array(g.images, dtype=rows.dtype)[rows[:, np.argsort(g.images)]]
        pos, there = _locate_rows(G, conj)
        if not there.all():
            raise GroupError("internal class failure: a conjugate is not in the group")
        maps.append(pos)
    # each label falls to a smaller index of its orbit, through the maps and
    # by jumping to its own label's label, until no map lowers one: then
    # labels are constant on orbits, each its orbit's smallest index
    label = np.arange(n)
    while True:
        new = label
        for pos in maps:
            new = np.minimum(new, new[pos])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    heads, orbit = np.unique(label, return_inverse=True)
    sizes = np.bincount(orbit)
    # classes by (size, smallest member): elements are sorted, so by index
    order = np.lexsort((heads, sizes))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    element_class = rank[orbit]
    element_class.setflags(write=False)
    reps = rows[heads[order]].tolist()
    return ConjugacyClassSet(
        group=G,
        representatives=tuple(Permutation._from_images(tuple(row)) for row in reps),
        sizes=tuple(sizes[order].tolist()),
        element_class=element_class,
    )


def conjugacy_classes(G: PermGroup) -> ConjugacyClassSet:
    return G.conjugacy_classes()


def center(G: PermGroup) -> PermGroup:
    return G.center()


def centralizer(G: PermGroup, g: Permutation) -> PermGroup:
    return G.centralizer(g)


def is_p_group(G: PermGroup) -> PGroupInfo:
    return G.p_group_info()


def _chief_series(G: PermGroup) -> list[PermGroup]:
    """Each member is the one below and the first element g outside it, in
    sorted order, that has g^p and every commutator g^-1 x^-1 g x with a
    generator x in it; members are masks over G's sorted elements.  Members
    are normal, so they are unions of classes, and whether g fits is a class
    function: it is tested once per class, at the representative."""
    info = G.p_group_info()
    if not info.is_p_group:
        raise GroupError("not a p-group")
    if G.order == 1:
        return [G]
    p = info.p
    classes = G.conjugacy_classes()
    keys = G.element_keys()[1]
    rows = G._rows()
    # each representative's p-th power, read off the power map, and its
    # commutators: (g^-1 x^-1 g x)[pt] = x[g[x^-1[g^-1[pt]]]]
    reps = _rows_of(classes.representatives, G.degree)
    inv = np.argsort(reps, axis=1)
    gens = _rows_of(G.generators, G.degree)
    comms = [x[np.take_along_axis(reps, np.argsort(x)[inv], axis=1)] for x in gens]
    power = classes.power_map[:, p % G.exponent()]
    needed = np.vstack([power, _classes_of_rows(classes, np.stack(comms))])
    cur = np.zeros(G.order, dtype=bool)
    cur[0] = True  # the identity, the smallest element
    held = np.zeros(len(classes), dtype=bool)
    held[0] = True  # the classes of cur
    member = G._subgroup_of_keys(keys[cur], generators=())
    series = [member]
    while not cur.all():
        fits = (~held & held[needed].all(axis=0))[classes.element_class]
        if not fits.any():
            raise GroupError("chief series construction failed")
        c = int(np.argmax(fits))
        # the cosets chosen^j N for 0 < j < p: (chosen^j n)[pt] = n[chosen^j[pt]]
        below, pw = rows[cur], rows[c]
        for _ in range(p - 1):
            cur[_locate_rows(G, below[:, pw])[0]] = True
            pw = rows[c][pw]
        held[classes.element_class[cur]] = True
        chosen = Permutation._from_images(tuple(rows[c].tolist()))
        member = G._subgroup_of_keys(keys[cur], generators=member.generators + (chosen,))
        series.append(member)
    series[-1] = G
    return series


def chief_series(G: PermGroup) -> list[PermGroup]:
    return G.chief_series()


def _class_action(N: PermGroup, g: Permutation) -> tuple[int, ...]:
    """Class k of N goes to the class of g x_k g^-1.  Kept on N, keyed by g."""
    act = N._class_actions.get(g.images)
    if act is None:
        ncls = N.conjugacy_classes()
        images = np.array(g.images)
        # (g x g^-1)[pt] = g^-1[x[g[pt]]]
        conj = np.argsort(images)[_rows_of(ncls.representatives, N.degree)[:, images]]
        act = tuple(_classes_of_rows(ncls, conj).tolist())
        N._class_actions[g.images] = act
    return act

