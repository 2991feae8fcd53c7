"""Class functions with exact cyclotomic values.

A Character stores one value per conjugacy class, in the group's canonical
class order.  Values are CycValues; the conductor in canonical use is the
group exponent, but pointwise operations align mixed conductors on the fly,
so intermediate results never need manual rebasing.

Instances of the same group interoperate directly.  Characters of a subgroup
and its parent only meet through restrict/induce (charops); there is no
implicit coercion between groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .cyclotomic import CycValue
from .errors import CharacterError, CyclotomicError
from .perm import PermGroup, Permutation

__all__ = ["Character"]


def _same_group(a: PermGroup, b: PermGroup) -> bool:
    return a is b or a.same_elements(b)


@dataclass(frozen=True, eq=False)
class Character:
    """A class function on a group, one exact value per conjugacy class."""

    group: PermGroup
    values: tuple[CycValue, ...]

    def __post_init__(self):
        vals = self.values
        if not isinstance(vals, tuple):
            vals = tuple(vals)
            object.__setattr__(self, "values", vals)
        ncls = len(self.group.conjugacy_classes())
        if len(vals) != ncls:
            raise CharacterError(f"expected {ncls} class values, got {len(vals)}")
        for v in vals:
            if not isinstance(v, CycValue):
                raise CharacterError(f"class value is not a CycValue: {v!r}")

    @classmethod
    def from_values(
        cls, group: PermGroup, values: Sequence[Union[int, CycValue]], e: int = 0
    ) -> "Character":
        """Build from a value list, coercing plain integers at conductor e."""
        if e <= 0:
            e = group.exponent()
        out = []
        for v in values:
            if isinstance(v, CycValue):
                out.append(v)
            else:
                out.append(CycValue.integer(e, v))
        return cls(group, tuple(out))

    @classmethod
    def principal(cls, group: PermGroup) -> "Character":
        e = group.exponent()
        one = CycValue.one(e)
        return cls(group, tuple(one for _ in range(len(group.conjugacy_classes()))))

    @property
    def degree(self) -> int:
        try:
            return self.values[0].as_int()
        except CyclotomicError:
            raise CharacterError("character degree is not a rational integer") from None

    def value_on_class(self, i: int) -> CycValue:
        return self.values[i]

    def value(self, g: Permutation) -> CycValue:
        return self.values[self.group.conjugacy_classes().class_of(g)]

    def conjugate(self) -> "Character":
        return Character(self.group, tuple(v.conjugate() for v in self.values))

    def is_linear(self) -> bool:
        return self.degree == 1

    def __mul__(self, other):
        if isinstance(other, Character):
            if not _same_group(self.group, other.group):
                raise CharacterError("characters on different groups")
            return Character(
                self.group, tuple(a * b for a, b in zip(self.values, other.values))
            )
        if isinstance(other, int):
            return Character(self.group, tuple(v * other for v in self.values))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        if not _same_group(self.group, other.group):
            raise CharacterError("characters on different groups")
        return Character(self.group, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        if not _same_group(self.group, other.group):
            raise CharacterError("characters on different groups")
        return Character(self.group, tuple(a - b for a, b in zip(self.values, other.values)))

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        if not _same_group(self.group, other.group):
            return False
        return all(a == b for a, b in zip(self.values, other.values))

    __hash__ = None  # mutable-free but equality is structural; use value_key for dict keys

    def value_key(self) -> tuple:
        """Hashable identity: class values rebased to the group exponent."""
        e = self.group.exponent()
        return tuple(v.rebase(e).coeffs for v in self.values)

    def __repr__(self):
        head = ", ".join(str(v) for v in self.values[:6])
        tail = ", ..." if len(self.values) > 6 else ""
        return f"Character([{head}{tail}])"
