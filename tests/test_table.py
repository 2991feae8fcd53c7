"""Character tables: frozen small tables, orthogonality, class algebra
identities, caching, and prime-choice independence."""

import json
from pathlib import Path

import pytest

from etalab.catalog import default_catalog, load_catalog_group
from etalab.chars import Character
from etalab.charops import inner_product
from etalab.cyclotomic import CycValue
from etalab.errors import CharacterError, TableError
from etalab.perm import Permutation, power_map
from etalab.table import CharTable, character_table, class_matrix, class_mult_coefficients

# order-2 table is pinned exactly: principal row first, then the sign row
C2_TABLE = [[1, 1], [1, -1]]

# dihedral group of order 8 as built by the catalog: classes are
# identity, central rotation, the two reflection classes, the 4-cycles
D8_CLASS_REPS = [
    (0, 1, 2, 3),
    (2, 3, 0, 1),
    (0, 3, 2, 1),
    (1, 0, 3, 2),
    (1, 2, 3, 0),
]
D8_TABLE = [
    [1, 1, 1, 1, 1],
    [1, 1, 1, -1, -1],
    [1, 1, -1, 1, -1],
    [1, 1, -1, -1, 1],
    [2, -2, 0, 0, 0],
]


def _int_matrix(table):
    return [[v.as_int() for v in chi.values] for chi in table]


def test_c2_table_is_pinned(tmp_path):
    G = load_catalog_group("c2")
    table = character_table(G)
    assert _int_matrix(table) == C2_TABLE


def test_d8_table_frozen(d8, d8_table):
    reps = [p.images for p in d8_table.classes.representatives]
    assert reps == D8_CLASS_REPS
    assert list(d8_table.classes.sizes) == [1, 1, 2, 2, 2]
    assert _int_matrix(d8_table) == D8_TABLE
    assert d8_table.e == 4


def test_cyclic_tables_are_the_power_characters():
    for m in (2, 3, 4, 5, 8, 9):
        G = load_catalog_group(f"c{m}") if f"c{m}" in dict(default_catalog()) else None
        if G is None:
            from etalab.constructions import cyclic

            G = cyclic(m)
        table = character_table(G)
        e = table.e
        assert e == m or m == 1
        # classes are the generator powers in order
        g = G.generators[0]
        expect = set()
        for j in range(m):
            row = tuple(
                CycValue.root_of_unity(m, (j * k) % m).coeffs for k in range(m)
            )
            expect.add(row)
        got = {tuple(v.rebase(m).coeffs for v in chi.values) for chi in table}
        assert got == expect


def test_degree_vectors_frozen():
    expected = {
        "c2": [1, 1],
        "c4": [1, 1, 1, 1],
        "q8": [1, 1, 1, 1, 2],
        "d8": [1, 1, 1, 1, 2],
        "m16": [1, 1, 1, 1, 1, 1, 1, 1, 2, 2],
        "d16": [1, 1, 1, 1, 2, 2, 2],
        "q16": [1, 1, 1, 1, 2, 2, 2],
        "es27": [1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 3],
        "c3wrc3": [1] * 9 + [3] * 8,
        "c4wrc2": [1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2],
    }
    for gid, degs in expected.items():
        table = character_table(load_catalog_group(gid))
        assert list(table.degrees) == degs, gid


def test_degree_squares_sum_to_group_order():
    for gid, G in default_catalog(max_order=128):
        table = character_table(G)
        assert sum(d * d for d in table.degrees) == G.order, gid


def test_canonical_character_order():
    for gid in ("d8", "q8", "es27", "c9"):
        table = character_table(load_catalog_group(gid))
        keys = []
        for chi in table:
            flat = []
            for v in chi.values:
                flat.extend(v.rebase(table.e).coeffs)
            keys.append((chi.degree, tuple(-c for c in flat)))
        assert keys == sorted(keys), gid
        assert table.principal_index == 0


def test_orthogonality_small_groups():
    for gid in ("c2", "c8", "d8", "q8", "m16", "es27", "c3wrc3", "c25"):
        table = character_table(load_catalog_group(gid))
        table.verify_orthogonality()


def _corrupted(table, irreducibles):
    return CharTable(
        group=table.group,
        classes=table.classes,
        irreducibles=tuple(irreducibles),
        e=table.e,
        q=table.q,
    )


@pytest.mark.parametrize("gid", ["d8", "es27"])
def test_orthogonality_detects_corrupted_tables(gid):
    table = character_table(load_catalog_group(gid))
    chars = list(table)
    values = list(chars[1].values)
    values[3] = -values[3]
    chars[1] = Character(table.group, tuple(values))
    with pytest.raises(TableError, match="^row orthogonality violated$"):
        _corrupted(table, chars).verify_orthogonality()
    with pytest.raises(TableError, match="^column orthogonality violated$"):
        _corrupted(table, list(table)[:-1]).verify_orthogonality()


@pytest.mark.parametrize("gid", ["es27", "c3wrc3", "c25"])
def test_multiplicities_beyond_int64(gid):
    # 2**62 fits int64 but trips the overflow bound; 3**50 does not fit at all
    table = character_table(load_catalog_group(gid))
    for chi in table:
        theta = chi * chi.conjugate()
        base = table.multiplicities(theta)
        for k in (2**62, 3**50):
            assert table.multiplicities(k * theta) == [k * m for m in base], (gid, k)


def test_huge_non_virtual_class_function_still_rejected(es27, es27_table):
    vals = [2**70 if k == 0 else 0 for k in range(len(es27_table))]
    with pytest.raises(CharacterError):
        es27_table.multiplicities(Character.from_values(es27, vals))


def test_inner_product_beyond_int64(es27_table):
    k = 2**62
    for chi in es27_table:
        assert inner_product(k * chi, chi) == k


def test_first_column_is_degree_and_principal_row_is_ones(es27_table):
    for chi in es27_table:
        assert chi.values[0].as_int() == chi.degree
    principal = es27_table[es27_table.principal_index]
    assert all(v == CycValue.one(v.e) for v in principal.values)


def test_regular_character_decomposition(d8_table):
    # sum of deg * chi is |G| at the identity class and 0 elsewhere
    e = d8_table.e
    for k in range(len(d8_table)):
        acc = CycValue.zero(e)
        for chi in d8_table:
            acc = acc + CycValue.integer(e, chi.degree) * chi.values[k].rebase(e)
        want = d8_table.group.order if k == 0 else 0
        assert acc == CycValue.integer(e, want)


def test_class_matrix_identities(d8):
    classes = d8.conjugacy_classes()
    r = len(classes.sizes)
    m0 = class_matrix(classes, 0)
    assert all(m0[j][k] == (1 if j == k else 0) for j in range(r) for k in range(r))
    inv = power_map(d8, classes, -1)
    for i in range(r):
        mi = class_matrix(classes, i)
        for j in range(r):
            # row sums weighted by class size count all products
            assert sum(mi[j][k] * classes.sizes[k] for k in range(r)) == (
                classes.sizes[i] * classes.sizes[j]
            )
            # products landing on the identity pair a class with its inverse
            assert mi[j][0] == (classes.sizes[i] if j == inv[i] else 0)


def test_class_mult_coefficients_symmetry(es27):
    # xy and yx are conjugate, so a_ijk = a_jik
    classes = es27.conjugacy_classes()
    r = len(classes.sizes)
    for i in range(r):
        for j in range(i, r):
            assert class_mult_coefficients(classes, i, j) == class_mult_coefficients(
                classes, j, i
            )


def test_next_prime_gives_identical_table():
    for gid in ("d8", "c9", "es27"):
        G = load_catalog_group(gid)
        base = character_table(G)
        shifted = character_table(G, prime_offset=1)
        assert shifted.q != base.q
        assert _values_equal(base, shifted), gid


def _values_equal(a, b):
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if not all(u == v for u, v in zip(x.values, y.values)):
            return False
    return True


def _fresh_memo(monkeypatch):
    # cache tests must dodge the in-process memo or the file is never touched
    import etalab.table as table_mod

    monkeypatch.setattr(table_mod, "_TABLE_MEMO", {})


def test_cache_round_trip(tmp_path, monkeypatch):
    import etalab.table as table_mod
    from etalab.constructions import dihedral

    cache = tmp_path / "cache"
    _fresh_memo(monkeypatch)
    first = character_table(dihedral(4), cache_dir=cache)
    files = list(Path(cache).glob("*.json"))
    assert len(files) == 1
    # the write goes through a temporary file that is renamed into place
    assert [f.name for f in cache.iterdir()] == [files[0].name]
    data = json.loads(files[0].read_text())
    assert data["schema"] == 1
    assert data["order"] == 8

    # prove the second call really read the file: computing again fails
    def no_recompute(*args, **kwargs):
        raise AssertionError("table recomputed although the cache entry is valid")

    monkeypatch.setattr(table_mod, "_compute_table", no_recompute)
    _fresh_memo(monkeypatch)
    second = character_table(dihedral(4), cache_dir=cache)
    assert _values_equal(first, second)


def test_corrupted_cache_is_recomputed(tmp_path, monkeypatch):
    from etalab.constructions import dihedral, quaternion

    cache = tmp_path / "cache"
    _fresh_memo(monkeypatch)
    base = character_table(quaternion(), cache_dir=cache)
    path = next(Path(cache).glob("*.json"))
    blob = json.loads(path.read_text())
    blob["order"] = 12
    path.write_text(json.dumps(blob))
    _fresh_memo(monkeypatch)
    again = character_table(quaternion(), cache_dir=cache)
    assert _values_equal(base, again)
    path.write_text("{not json")
    _fresh_memo(monkeypatch)
    again = character_table(quaternion(), cache_dir=cache)
    assert _values_equal(base, again)

    # one flipped sign keeps the degrees summing to |G| but breaks
    # orthogonality, so the entry must be recomputed, not served
    cache = tmp_path / "cache-d8"
    _fresh_memo(monkeypatch)
    first = character_table(dihedral(4), cache_dir=cache)
    path = next(Path(cache).glob("*.json"))
    blob = json.loads(path.read_text())
    assert blob["irreducibles"][1][1][0] == 1
    blob["irreducibles"][1][1][0] = -1
    path.write_text(json.dumps(blob))
    _fresh_memo(monkeypatch)
    again = character_table(dihedral(4), cache_dir=cache)
    assert _values_equal(first, again)
    assert json.loads(path.read_text())["irreducibles"][1][1][0] == 1


def test_index_of_unknown_character_raises(d8_table):
    stranger = Character.principal(load_catalog_group("c2"))
    with pytest.raises(TableError):
        d8_table.index_of(stranger)


def test_multiplicities_reject_non_virtual_class_function(d8, d8_table):
    # indicator of the identity class scaled by 1 is not a character combo
    vals = [1 if k == 0 else 0 for k in range(len(d8_table))]
    fake = Character.from_values(d8, vals)
    with pytest.raises(CharacterError):
        d8_table.multiplicities(fake)


def test_table_json_shape(d8_table):
    blob = d8_table.to_json_dict()
    assert blob["schema"] == 1
    assert blob["order"] == 8
    assert blob["exponent"] == 4
    assert len(blob["irreducibles"]) == 5
    assert blob["classes"]["sizes"] == [1, 1, 2, 2, 2]
    assert len(blob["classes"]["reps"]) == 5
