"""Read and write the plain-text group file format.

Layout::

    # optional comments
    degree 8
    gen (1,2,3,4)(5,6)
    gen ()

The first non-comment line declares the degree; every following `gen` line
gives one generator in 1-based cycle notation (points are 0-based in memory).
`gen ()` is the identity.  Blank lines and lines starting with `#` are
skipped anywhere in the file.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Union

from .errors import GroupFileError, PermutationError
from .perm import DEFAULT_ORDER_CAP, PermGroup, Permutation, group_from_generators

__all__ = ["load_group", "parse_group", "format_group", "save_group", "format_permutation"]

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_cycles(degree: int, text: str, lineno: int) -> Permutation:
    body = text.strip()
    if not body:
        raise GroupFileError(f"line {lineno}: gen line has no cycles")
    stripped = _CYCLE_RE.sub("", body)
    if stripped.strip():
        raise GroupFileError(f"line {lineno}: malformed cycle notation {body!r}")
    cycles = []
    for m in _CYCLE_RE.finditer(body):
        inner = m.group(1).strip()
        if not inner:
            continue
        try:
            pts = [int(tok) for tok in re.split(r"[,\s]+", inner)]
        except ValueError:
            raise GroupFileError(f"line {lineno}: malformed cycle {m.group(0)!r}") from None
        for pt in pts:
            if not 1 <= pt <= degree:
                raise GroupFileError(f"line {lineno}: point {pt} outside 1..{degree}")
        cycles.append(tuple(pt - 1 for pt in pts))
    try:
        return Permutation.from_cycles(degree, cycles)
    except PermutationError as exc:
        raise GroupFileError(f"line {lineno}: {exc}") from None


def parse_group(text: str, order_cap: int = DEFAULT_ORDER_CAP) -> PermGroup:
    """Parse group file text and enumerate the group it generates."""
    degree = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        keyword = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if keyword == "degree":
            if degree is not None:
                raise GroupFileError(f"line {lineno}: duplicate degree line")
            try:
                degree = int(rest.strip())
            except ValueError:
                raise GroupFileError(f"line {lineno}: bad degree {rest!r}") from None
            if not 1 <= degree <= DEFAULT_ORDER_CAP:
                raise GroupFileError(f"line {lineno}: degree must lie in 1..{DEFAULT_ORDER_CAP}")
        elif keyword == "gen":
            if degree is None:
                raise GroupFileError(f"line {lineno}: gen before degree line")
            gens.append(_parse_cycles(degree, rest, lineno))
        else:
            raise GroupFileError(f"line {lineno}: unknown keyword {keyword!r}")
    if degree is None:
        raise GroupFileError("missing degree line")
    return group_from_generators(degree, gens, order_cap=order_cap)


def load_group(path: Union[str, Path], order_cap: int = DEFAULT_ORDER_CAP) -> PermGroup:
    """Load a group from a file on disk."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GroupFileError(f"cannot read {path}: {exc}") from None
    return parse_group(text, order_cap=order_cap)


def format_permutation(perm: Permutation) -> str:
    """1-based cycle notation; the identity renders as ``()``."""
    cycles = perm.cycles()
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(pt + 1) for pt in cyc) + ")" for cyc in cycles)


def format_group(G: PermGroup, comment: str = "") -> str:
    lines = []
    if comment:
        for row in comment.splitlines():
            lines.append(f"# {row}" if row else "#")
    lines.append(f"degree {G.degree}")
    for g in G.generators:
        lines.append(f"gen {format_permutation(g)}")
    return "\n".join(lines) + "\n"


def save_group(G: PermGroup, path: Union[str, Path], comment: str = "") -> None:
    Path(path).write_text(format_group(G, comment), encoding="utf-8")
