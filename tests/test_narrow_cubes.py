"""Coefficient cubes at the narrowest exact dtype: which dtype a table takes,
lookups that cannot wrap, readers that widen before they multiply, and a
group whose degree squares pass int8."""

import numpy as np
import pytest

import etalab.cyclotomic as cyclotomic
from etalab.catalog import catalog_ids, load_catalog_group
from etalab.chars import Character
from etalab.charops import decompose
from etalab.constructions import dihedral, direct_product
from etalab.cyclotomic import pairing
from etalab.errors import TableError
from etalab.table import CharTable, character_table
from etalab.verify import verify_ledger, verify_theorem_a, verify_theorem_b


@pytest.mark.parametrize("gid", catalog_ids())
def test_every_catalog_and_chief_series_table_is_int8_and_read_only(gid):
    for N in load_catalog_group(gid).chief_series():
        cube = character_table(N).cube
        assert cube.dtype == np.int8, (gid, N.order)
        assert not cube.flags.writeable, (gid, N.order)
        # never int8's minimum, so negation and np.abs stay exact
        assert cube.min() > -128, (gid, N.order)


@pytest.mark.parametrize(
    "scale, dtype", [(1, np.int8), (64, np.int16), (2**14, np.int32), (2**30, np.int64)]
)
def test_a_cube_takes_the_smallest_dtype_that_holds_it(d8_table, scale, dtype):
    # d8's largest |coefficient| is 2: scaled past 127, 32767 and 2^31 - 1
    wide = d8_table.cube.astype(np.int64) * scale
    table = CharTable(
        group=d8_table.group, classes=d8_table.classes, cube=wide, e=d8_table.e, q=d8_table.q
    )
    assert table.cube.dtype == dtype
    assert not table.cube.flags.writeable
    assert table.cube.tolist() == wide.tolist()
    assert table[4].coeffs.tolist() == wide[4].tolist()
    assert table._rows_index(wide[[4, 0]]) == [4, 0]


@pytest.mark.parametrize("gid", ["d8", "c25", "es27", "w22"])
def test_the_json_form_is_that_of_the_int64_cube(gid):
    table = character_table(load_catalog_group(gid))
    wide = CharTable(
        group=table.group, classes=table.classes, cube=table.cube.astype(np.int64),
        e=table.e, q=table.q,
    )
    assert wide.cube.dtype == np.int8
    assert wide.to_json_dict() == table.to_json_dict()


@pytest.mark.parametrize(
    "dtype, shift", [(np.int64, 256), (object, 256), (object, 2**64), (np.int64, -256)]
)
def test_a_lookup_outside_the_dtype_never_wraps(d8_table, dtype, shift):
    # a cast to int8 would take each row back to row 3 itself
    row = d8_table.cube[3].astype(dtype)
    row[2, 0] += shift
    assert dtype is object or row.astype(np.int8).tolist() == d8_table.cube[3].tolist()
    with pytest.raises(TableError, match="^character not in table$"):
        d8_table._rows_index(row[None])
    with pytest.raises(TableError, match="^character not in table$"):
        d8_table.index_of(Character._of(d8_table.group, row))


@pytest.mark.parametrize("gid", ["c25", "c3wrc3", "w22"])
def test_pairing_in_small_blocks_matches_the_wide_cube(gid, monkeypatch):
    table = character_table(load_catalog_group(gid))
    cube, e, sizes = table.cube, table.e, table.classes.sizes
    wide = cube.astype(np.int64)
    # chi * conj(chi) by row index, and the row gram on coefficient stacks
    rows = np.arange(len(table))
    norms = np.stack([rows, ~rows])
    blocks = [(norms, sizes, wide), (wide, sizes, wide)]
    want = [pairing(x, weights, y, e) for x, weights, y in blocks]
    # every stack widened a few coefficients at a time
    monkeypatch.setattr(cyclotomic, "_VALUE_ENTRIES", 7)
    got = [pairing(norms, sizes, cube, e), pairing(cube, sizes, cube, e)]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert np.array_equal(g, w), gid


@pytest.fixture(scope="module")
def d8_to_the_fourth():
    """D8^4, order 4096 with 625 classes: a degree-16 character, whose square
    256 does not fit int8."""
    D = dihedral(4)
    G = direct_product(direct_product(D, D), direct_product(D, D))
    return G, character_table(G)


def test_degree_squares_past_int8_keep_an_int8_table(d8_to_the_fourth):
    G, table = d8_to_the_fourth
    assert (G.order, len(table)) == (4096, 625)
    assert max(table.degrees) == 16
    assert table.cube.dtype == np.int8


@pytest.mark.parametrize("sweep", [verify_theorem_a, verify_theorem_b, verify_ledger])
def test_degree_squares_past_int8_pass_every_sweep(d8_to_the_fourth, sweep):
    G, _ = d8_to_the_fourth
    report = sweep(groups=[("d8^4", G)])
    records = report.results[0]["records"]
    assert report.passed, [rec for rec in records if not rec["pass"]][:1]
    assert records


def test_degree_products_past_int8_decompose_as_decompose_does(d8_to_the_fourth):
    # chi * psi for the first degree-16 chi and every psi, as corollary A pairs them
    _, table = d8_to_the_fourth
    top = table.degrees.index(16)
    rows = np.arange(len(table))
    mults = table._multiplicity_rows(np.stack([np.full_like(rows, top), rows]))
    degrees = np.array(table.degrees)
    assert (mults @ degrees == 16 * degrees).all()
    last = decompose(table[top] * table[-1]).constituents
    assert [(table.index_of(xi), m) for xi, m in last] == [
        (j, m) for j, m in enumerate(mults[-1].tolist()) if m
    ]
