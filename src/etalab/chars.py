"""Class functions with exact cyclotomic values.

A Character is its coefficient array: one row per conjugacy class, in the
group's canonical class order, holding the class value over the power basis
of Z[zeta_e] at the group exponent e.  The array is read-only, in a signed
integer dtype, or dtype=object holding Python integers when a coefficient
does not fit int64; a table's characters are views of its cube, int8 for
every table so far.  Products, conjugates, sums, differences and integer
multiples run on the whole array, widened to int64 unless a bound calls
for Python integers.  The public constructor takes each value to the group
exponent with `CycValue.rebase` (the `down` kernel); `values` reads the
array back as CycValues.

Instances of the same group interoperate directly.  Characters of a subgroup
and its parent only meet through restrict/induce (charops); there is no
implicit coercion between groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from .cyclotomic import CycValue, _exact, _magnitude, as_coeffs, conjugate, multiply
from .errors import CharacterError, CyclotomicError
from .perm import PermGroup, Permutation

__all__ = ["Character"]


@dataclass(frozen=True, eq=False, init=False)
class Character:
    """A class function on a group, one exact value per conjugacy class."""

    group: PermGroup
    coeffs: np.ndarray

    def __init__(self, group: PermGroup, values: Iterable[CycValue]):
        values = tuple(values)
        ncls = len(group.conjugacy_classes())
        if len(values) != ncls:
            raise CharacterError(f"expected {ncls} class values, got {len(values)}")
        e = group.exponent()
        rows = []
        for v in values:
            if not isinstance(v, CycValue):
                raise CharacterError(f"class value is not a CycValue: {v!r}")
            try:
                rows.append(v.rebase(e).coeffs)
            except CyclotomicError:
                raise CharacterError(f"class value {v} does not lie in Z[zeta_{e}]") from None
        self._set(group, as_coeffs(rows))

    def _set(self, group: PermGroup, coeffs: np.ndarray) -> None:
        coeffs.setflags(write=False)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _of(cls, group: PermGroup, coeffs: np.ndarray) -> "Character":
        """Trusted constructor: coeffs is a (classes, phi(e)) coefficient
        array at the group exponent e, which no caller writes to again."""
        chi = object.__new__(cls)
        chi._set(group, coeffs)
        return chi

    @classmethod
    def from_values(
        cls, group: PermGroup, values: Sequence[Union[int, CycValue]], e: int = 0
    ) -> "Character":
        """Build from a value list, coercing plain integers at conductor e."""
        if e <= 0:
            e = group.exponent()
        coerced = [v if isinstance(v, CycValue) else CycValue.integer(e, v) for v in values]
        return cls(group, coerced)

    @classmethod
    def principal(cls, group: PermGroup) -> "Character":
        return cls.from_values(group, [1] * len(group.conjugacy_classes()))

    @cached_property
    def values(self) -> tuple[CycValue, ...]:
        e = self.group.exponent()
        return tuple(CycValue(e, row) for row in self.coeffs.tolist())

    @property
    def degree(self) -> int:
        if self.coeffs[0, 1:].any():
            raise CharacterError("character degree is not a rational integer")
        return int(self.coeffs[0, 0])

    def value(self, g: Permutation) -> CycValue:
        return self.values[self.group.conjugacy_classes().class_of(g)]

    def conjugate(self) -> "Character":
        return Character._of(self.group, conjugate(self.coeffs, self.group.exponent()))

    def is_linear(self) -> bool:
        return self.degree == 1

    def __mul__(self, other):
        if isinstance(other, Character):
            if not self.group.same_elements(other.group):
                raise CharacterError("characters on different groups")
            return Character._of(
                self.group, multiply(self.coeffs, other.coeffs, self.group.exponent())
            )
        if isinstance(other, int):
            (x,) = _exact(_magnitude(self.coeffs) * max(1, abs(other)), self.coeffs)
            return Character._of(self.group, x * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def _array_op(self, op, other):
        """op on the two coefficient arrays, in int64 when a sum or difference fits."""
        if not isinstance(other, Character):
            return NotImplemented
        if not self.group.same_elements(other.group):
            raise CharacterError("characters on different groups")
        x, y = _exact(_magnitude(self.coeffs) + _magnitude(other.coeffs), self.coeffs, other.coeffs)
        return Character._of(self.group, op(x, y))

    def __add__(self, other):
        return self._array_op(np.add, other)

    def __sub__(self, other):
        return self._array_op(np.subtract, other)

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        if not self.group.same_elements(other.group):
            return False
        return bool(np.array_equal(self.coeffs, other.coeffs))

    __hash__ = None  # mutable-free but equality is structural; use value_key for dict keys

    def value_key(self) -> tuple:
        """Hashable identity: the rows of coefficients at the group exponent."""
        return tuple(map(tuple, self.coeffs.tolist()))

    def __repr__(self):
        head = ", ".join(str(v) for v in self.values[:6])
        tail = ", ..." if len(self.values) > 6 else ""
        return f"Character([{head}{tail}])"
