"""Character tables: frozen small tables, orthogonality, class algebra
identities, caching, and prime-choice independence."""

import gc
import hashlib
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

import etalab.table as table_mod
from etalab.catalog import catalog_ids, default_catalog, load_catalog_group
from etalab.chars import Character
from etalab.charops import _norm_decompositions, inner_product
from etalab.constructions import cyclic, dihedral, extraspecial_exp_p
from etalab.cyclotomic import CycValue, conjugate, multiply, pairing
from etalab.errors import CharacterError, TableError
from etalab.groupfile import format_group, parse_group
from etalab.perm import Permutation
from etalab.table import CharTable, character_table, class_matrix

from oracles import class_matrix_elementwise, power_map, rref_dense

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


def _fresh_copy(G):
    # the same group with no chief series computed yet
    return parse_group(format_group(G))


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
    for gid, G in default_catalog():
        table = character_table(G)
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
        cube=np.stack([chi.coeffs for chi in irreducibles]),
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


def test_class_matrices_match_elementwise_oracle():
    w22_series = {N.order: N for N in load_catalog_group("w22").chief_series()}
    groups = [G for _, G in default_catalog(max_order=64)]
    groups += [w22_series[128], w22_series[512]]
    for G in groups:
        classes = G.conjugacy_classes()
        for i in range(len(classes)):
            assert class_matrix(classes, i).tolist() == class_matrix_elementwise(classes, i), (
                G.order,
                i,
            )


def test_class_matrix_rejects_a_product_outside_the_group(d8):
    # drop the last of the sorted elements, which keeps the others where
    # they were: the central x of class 1 has x^-1 z_3 = (3 2 1 0), the last
    classes = _fresh_copy(d8).conjugacy_classes()
    G = classes.group
    dtype, keys = G.element_keys()
    G._element_keys = (dtype, keys[:-1])
    with pytest.raises(TableError, match=r"^internal class lookup failure: .*\(group order 8\)$"):
        class_matrix(classes, 1)


def test_class_mult_coefficients_symmetry(es27):
    # xy and yx are conjugate, so a_ijk = a_jik
    classes = es27.conjugacy_classes()
    r = len(classes.sizes)
    matrices = [class_matrix(classes, i) for i in range(r)]
    for i in range(r):
        for j in range(i, r):
            assert matrices[i][j].tolist() == matrices[j][i].tolist()


def test_next_prime_gives_identical_table():
    # dihedral(6) has classes of size 2 and 3; w22's chief-series members of
    # order 64 and 128 are abelian (permutation class matrices only), and the
    # one of order 512 has 152 classes
    w22_series = {N.order: N for N in load_catalog_group("w22").chief_series()}
    groups = [(gid, load_catalog_group(gid)) for gid in ("d8", "c9", "es27")]
    groups.append(("dihedral(6)", dihedral(6)))
    groups += [(f"w22 series {n}", w22_series[n]) for n in (64, 128, 512)]
    for name, G in groups:
        base = character_table(G)
        shifted = character_table(G, prime_offset=1)
        assert shifted.q != base.q
        assert _values_equal(base, shifted), name
        assert shifted.to_json_dict()["irreducibles"] == base.to_json_dict()["irreducibles"], name


def test_eigensplit_skips_scalar_actions(monkeypatch):
    # on a space where a class matrix acts as a scalar there is nothing to
    # split, so no annihilator may be computed there
    original = table_mod._vector_annihilator

    def guarded(mat, v, q):
        if np.array_equal(mat % q, mat[0, 0] % q * np.eye(mat.shape[0], dtype=np.int64)):
            raise AssertionError("minimal polynomial of a scalar action")
        return original(mat, v, q)

    monkeypatch.setattr(table_mod, "_vector_annihilator", guarded)
    for _, G in default_catalog(max_order=64):
        table_mod._compute_table(G)


def test_eigensplit_splits_basis_rows_with_different_eigenvalues():
    # each basis row is an eigenvector, but of its own eigenvalue: the action
    # is diagonal, not scalar, so the space must split into its two lines
    spaces = table_mod._split_spaces([np.eye(2, dtype=np.int64)], np.diag([1, 2]), 7)
    assert [space.tolist() for space in spaces] == [[[1, 0]], [[0, 1]]]


def test_eigensplit_takes_later_seeds_until_the_space_is_filled(monkeypatch):
    # the first two coordinate seeds see only the eigenvalue 1, whose
    # eigenspace is a plane; the third brings the eigenvalue 2
    seeds = []
    annihilator = table_mod._vector_annihilator

    def counted(mat, v, q):
        seeds.append(v.tolist())
        return annihilator(mat, v, q)

    monkeypatch.setattr(table_mod, "_vector_annihilator", counted)
    spaces = table_mod._split_spaces([np.eye(3, dtype=np.int64)], np.diag([1, 1, 2]), 7)
    assert [space.tolist() for space in spaces] == [[[1, 0, 0], [0, 1, 0]], [[0, 0, 1]]]
    assert seeds == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_eigensplit_rejects_a_non_diagonalizable_action():
    # a Jordan block has the one eigenvalue 1, whose eigenspace is a line
    jordan = np.array([[1, 1], [0, 1]], dtype=np.int64)
    with pytest.raises(
        TableError, match="^internal eigensplit failure: eigenspaces do not fill the space$"
    ):
        table_mod._split_spaces([np.eye(2, dtype=np.int64)], jordan, 7)


def test_eigensplit_failure_names_group_and_prime(d8, monkeypatch):
    # a copy of d8 with no chief series computed has no predecessor table to
    # seed from, so the eigensplit runs on every line
    fresh = _fresh_copy(d8)
    monkeypatch.setattr(table_mod, "_poly_roots", lambda poly, q: [])
    with pytest.raises(TableError) as info:
        table_mod._compute_table(fresh)
    message = str(info.value)
    assert message.startswith("internal eigensplit failure")
    assert "group order 8" in message and "q 13" in message
    assert "class matrix 1" in message


def test_seeded_tables_equal_plain_dixon(monkeypatch):
    # a fresh memo and fresh copies, so that every chief-series table is
    # computed here, bottom-up, each seeded from the table below it
    _fresh_memo(monkeypatch)
    seeded_runs, splits = [], []
    compute, split = table_mod._compute_table, table_mod._split_spaces

    def counted_compute(G, prime_offset=0):
        if not prime_offset:
            seeded_runs.append(G)
        return compute(G, prime_offset)

    def counted_split(spaces, mat, q):
        splits.append(mat.shape)
        return split(spaces, mat, q)

    monkeypatch.setattr(table_mod, "_compute_table", counted_compute)
    monkeypatch.setattr(table_mod, "_split_spaces", counted_split)
    for gid, G in default_catalog():
        for N in _fresh_copy(G).chief_series():
            seeded_runs.clear()
            splits.clear()
            seeded = character_table(N).to_json_dict()["irreducibles"]
            if gid == "w22" and 32 <= N.order <= 512:
                assert seeded_runs == [N] and not splits, N.order
            plain = table_mod._compute_table(N, prime_offset=1)
            assert seeded == plain.to_json_dict()["irreducibles"], (gid, N.order)
            _assert_one_embedding_is_the_full_path(plain, (gid, N.order, "prime_offset=1"))


def _central_translate_classes(classes):
    """Classes z C_j, z central, whose central class and class j are both
    earlier, by one product per central element and class."""
    out = set()
    for c, z in enumerate(classes.representatives[: classes.sizes.count(1)]):
        for j, x in enumerate(classes.representatives):
            i = classes.class_of(z * x)
            if c < i and j < i:
                out.add(i)
    return out


def test_eigensplit_builds_no_central_translate(monkeypatch):
    # K_(z C_j) = K_z K_j for z central: such a class splits nothing the
    # classes before it have not, so its matrix is never built
    _fresh_memo(monkeypatch)
    w22 = load_catalog_group("w22")
    plain = _fresh_copy(w22)  # no chief series, so no seeding
    seeded = _fresh_copy(w22).chief_series()
    member = next(N for N in seeded if N.order == 1024)
    for N in seeded[: seeded.index(member)]:
        character_table(N)
    requested = []
    build = table_mod.class_matrix

    def tracked(classes, i):
        requested.append(i)
        return build(classes, i)

    monkeypatch.setattr(table_mod, "class_matrix", tracked)
    for G in (plain, member):
        requested.clear()
        character_table(G)
        skipped = _central_translate_classes(G.conjugacy_classes())
        assert requested and min(skipped) < max(requested), G.order
        assert not skipped & set(requested), G.order


def test_class_matrices_do_not_outlive_the_table(monkeypatch):
    _fresh_memo(monkeypatch)
    refs = []
    build = table_mod.class_matrix

    def tracked(classes, i):
        mat = build(classes, i)
        refs.append(weakref.ref(mat))
        return mat

    monkeypatch.setattr(table_mod, "class_matrix", tracked)
    table = character_table(_fresh_copy(load_catalog_group("w22")))
    gc.collect()
    assert len(table) and refs
    assert all(ref() is None for ref in refs)


def test_negative_prime_offset_is_refused():
    with pytest.raises(TableError, match="^prime_offset must be non-negative$"):
        character_table(cyclic(4), prime_offset=-1)


def test_table_without_predecessor_computes_only_itself(monkeypatch):
    _fresh_memo(monkeypatch)
    G = _fresh_copy(load_catalog_group("c3wrc3"))
    G.chief_series()  # links every member to the one below; no table is held
    computed = []
    compute = table_mod._compute_table

    def counted_compute(H, prime_offset=0):
        computed.append(H)
        return compute(H, prime_offset)

    monkeypatch.setattr(table_mod, "_compute_table", counted_compute)
    table = character_table(G)
    assert computed == [G]
    assert table.to_json_dict() == character_table(load_catalog_group("c3wrc3")).to_json_dict()


@pytest.mark.parametrize(
    "action",
    [
        pytest.param(lambda N, g: (0,) * len(N.conjugacy_classes()), id="not-a-permutation"),
        pytest.param(lambda N, g: tuple(range(len(N.conjugacy_classes()))), id="every-nu-invariant"),
    ],
)
def test_seeding_failure_names_group_and_prime(d8, monkeypatch, action):
    _fresh_memo(monkeypatch)
    fresh = _fresh_copy(d8)
    for N in fresh.chief_series()[:-1]:
        character_table(N)
    monkeypatch.setattr(table_mod, "_class_action", action)
    with pytest.raises(TableError, match=r"^internal seeding failure: .*\(group order 8, q 13\)$"):
        table_mod._compute_table(fresh)


def _values_equal(a, b):
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if not all(u == v for u, v in zip(x.values, y.values)):
            return False
    return True


def _fresh_memo(monkeypatch):
    # cache tests must dodge the in-process memo or the file is never touched

    monkeypatch.setattr(table_mod, "_TABLE_MEMO", {})


def test_cache_round_trip(tmp_path, monkeypatch):
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

    # malformed entries are cache misses as well, never errors
    def identity_value_off_the_integers(blob):
        blob["irreducibles"][1][0] = [1, 1]

    def negated_row(blob):
        blob["irreducibles"][1] = [[-c for c in v] for v in blob["irreducibles"][1]]

    def rows_out_of_order(blob):
        irr = blob["irreducibles"]
        irr[1], irr[2] = irr[2], irr[1]

    def coefficient_past_int64(blob):
        blob["irreducibles"][1][1][0] = 2**70

    def coefficient_missing(blob):
        del blob["irreducibles"][1][1][-1]

    def row_times_unit(blob):
        # (a + b z3)(1 + z3) = (a - b) + a z3; 1 + z3 = -z3^2 is a unit, so
        # row 9 (degree 3) keeps canonical order, a degree >= 1 and both
        # orthogonality relations, but 3 + 3 z3 is not a rational integer
        blob["irreducibles"][9] = [[a - b, a] for a, b in blob["irreducibles"][9]]

    es27_cache = tmp_path / "cache-es27"
    _fresh_memo(monkeypatch)
    es27_first = character_table(extraspecial_exp_p(3), cache_dir=es27_cache)
    d8_entry = (lambda: dihedral(4), cache, first)
    es27_entry = (lambda: extraspecial_exp_p(3), es27_cache, es27_first)
    d8_corruptions = (
        identity_value_off_the_integers,
        lambda blob: blob.update(modulus="x"),
        lambda blob: blob.update(modulus=5),
        lambda blob: blob.update(modulus=-3),
        lambda blob: blob.update(classes=[]),
        negated_row,
        rows_out_of_order,
        coefficient_past_int64,
        coefficient_missing,
    )
    cases = [(d8_entry, c) for c in d8_corruptions] + [(es27_entry, row_times_unit)]
    for (make_group, entry_cache, expected), corrupt in cases:
        path = next(Path(entry_cache).glob("*.json"))
        blob = json.loads(path.read_text())
        corrupt(blob)
        path.write_text(json.dumps(blob))
        _fresh_memo(monkeypatch)
        again = character_table(make_group(), cache_dir=entry_cache)
        assert _values_equal(expected, again)
        assert again.q == expected.q


def test_table_memo_lasts_while_an_equal_group_is_alive():
    # dihedral(5) is not in the catalog, so no other test keeps it alive
    first, second = dihedral(5), dihedral(5)
    key = first.content_key
    table = character_table(first)
    assert character_table(second) is table
    del first, second, table
    gc.collect()
    assert key not in table_mod._TABLE_MEMO


def test_catalog_tables_match_benchmark_reference():
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    expected = json.loads(reference.read_text(encoding="utf-8"))["tables"]
    got = {}
    for gid, G in default_catalog():
        text = json.dumps(character_table(G).to_json_dict(), sort_keys=True, separators=(",", ":"))
        got[gid] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert got == expected


def test_index_of_unknown_character_raises(d8_table):
    # q8 has d8's class count and exponent, so only the group tells them
    # apart; a coefficient past int64 is in no row
    strangers = [Character.principal(load_catalog_group(gid)) for gid in ("c2", "q8")]
    for stranger in (*strangers, 2**70 * d8_table[0]):
        with pytest.raises(TableError, match="^character not in table$"):
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


@pytest.mark.parametrize("gid", catalog_ids())
def test_power_classes_match_the_power_map_oracle(gid):
    G = load_catalog_group(gid)
    classes = G.conjugacy_classes()
    e = G.exponent()
    got = table_mod._power_classes(classes, e + 1)
    for j in range(e + 1):
        assert got[:, j].tolist() == power_map(G, classes, j), (gid, j)


def test_rref_matches_the_dense_oracle():
    # rank-deficient products of random factors, zero rows and columns
    # included, over a small prime and one near the table moduli
    rng = np.random.default_rng(17)
    for q in (7, 1_048_573):
        for rows, cols, rank in [(1, 1, 0), (5, 5, 5), (6, 9, 3), (9, 4, 2), (8, 8, 1), (12, 30, 7)]:
            for _ in range(6):
                a = rng.integers(0, q, (rows, rank)) @ rng.integers(0, q, (rank, cols)) % q
                a[:, rng.integers(0, cols, 2)] = 0
                got, pivots = table_mod._rref(a.copy(), q)
                want, want_pivots = rref_dense(a, q)
                assert pivots == want_pivots and got.tolist() == want.tolist(), (q, rows, cols)


EXTRASPECIAL = {"es5-1": (5, 1), "es7-1": (7, 1), "es3-2": (3, 2)}


def _one_embedding_blocks(table):
    """The pairings the one-embedding mode serves, as (x, weights, y): the
    norms block, one corollary-A block and both orthogonality grams."""
    cube, e, sizes = table.cube, table.e, table.classes.sizes
    by_class = cube.transpose(1, 0, 2)
    return [
        ((cube, conjugate(cube, e)), sizes, cube),
        ((cube[-1:], cube), sizes, cube),
        (cube, sizes, cube),
        (by_class, [1] * len(cube), by_class),
    ]


def _assert_one_embedding_is_the_full_path(table, label):
    assert table._rational_pairings, label
    blocks = _one_embedding_blocks(table)
    full = [pairing(x, weights, y, table.e) for x, weights, y in blocks]
    for (x, weights, y), want in zip(blocks, full):
        got = pairing(x, weights, y, table.e, True)
        assert got.dtype == want.dtype and np.array_equal(got, want), label
    # the corollary-A block broadcasts its one row as the repeated row did
    r = len(table)
    rows = (table.cube[[r - 1] * r], table.cube)
    assert np.array_equal(pairing(rows, table.classes.sizes, table.cube, table.e), full[1]), label


@pytest.mark.parametrize("gid", catalog_ids() + list(EXTRASPECIAL))
def test_one_embedding_pairings_equal_the_full_path(gid):
    # every seeded chief-series member; test_seeded_tables_equal_plain_dixon
    # checks the same at prime_offset=1
    G = extraspecial_exp_p(*EXTRASPECIAL[gid]) if gid in EXTRASPECIAL else load_catalog_group(gid)
    for N in G.chief_series():
        _assert_one_embedding_is_the_full_path(character_table(N), (gid, N.order))


@pytest.mark.parametrize("gid", ["d8", "es27", "c25"])
def test_a_row_times_a_root_of_unity_keeps_the_full_path(gid, monkeypatch):
    table = character_table(load_catalog_group(gid))
    e, one = table.e, table.principal_index
    t = len(table) - 1
    assert t != one
    cube = table.cube.copy()
    cube[t] = multiply(cube[t], np.array(CycValue.root_of_unity(e).coeffs), e)
    twisted = CharTable(group=table.group, classes=table.classes, cube=cube, e=e, q=table.q)
    modes = []
    real = table_mod.pairing

    def spy(x, weights, y, e, rational=False):
        modes.append(rational)
        return real(x, weights, y, e, rational)

    monkeypatch.setattr(table_mod, "pairing", spy)
    table.verify_orthogonality()
    assert table._rational_pairings and modes == [True, True]
    modes.clear()
    assert not twisted._rational_pairings
    # a row times a root of unity keeps both orthogonality relations
    twisted.verify_orthogonality()
    try:
        _norm_decompositions(twisted)
    except CharacterError:
        pass  # chi * conj(chi) may pair with the twisted row to a non-integer
    assert twisted.multiplicities(twisted[one]) == [int(i == one) for i in range(len(twisted))]
    assert len(modes) == 4 and not any(modes)


# eigenvector rows lambda * (class sizes) mod q that fail one lifting check
# each: the degree comes out as 0 for lambda = 0, and as 2 for lambda = +-1/2,
# with every character value -1 (multiplicity q - 1 > 2) or 1 (sum 1 != 2)
LIFTING_FAULTS = {
    "bad degree": lambda q: 0,
    "multiplicity out of range": lambda q: q - pow(2, q - 2, q),
    "multiplicities do not sum to degree": lambda q: pow(2, q - 2, q),
}


# lifting blocks of the default size (all 14 eigenvectors), of 2 and of 1
BLOCKS, BLOCK_IDS = [None, 224, 1], ["one-block", "two-per-block", "one-per-block"]


def _lift_with_faults(monkeypatch, faults, block_entries):
    """The TableError of a plain c4wrc2 build (r = 14, e = 8, q = 17) with
    eigenvector n replaced by the row of faults[n], lifted in blocks of
    block_entries entries."""
    G = _fresh_copy(load_catalog_group("c4wrc2"))
    real = table_mod._common_eigenbasis

    def faulty(classes, spaces, q):
        out = real(classes, spaces, q).copy()
        for n, message in faults.items():
            out[n] = LIFTING_FAULTS[message](q) * np.array(classes.sizes) % q
        return out

    with monkeypatch.context() as patch:
        patch.setattr(table_mod, "_common_eigenbasis", faulty)
        if block_entries is not None:
            patch.setattr(table_mod, "_LIFT_ENTRIES", block_entries)
        with pytest.raises(TableError) as info:
            table_mod._compute_table(G)
    return str(info.value)


@pytest.mark.parametrize("block_entries", BLOCKS, ids=BLOCK_IDS)
@pytest.mark.parametrize("message", list(LIFTING_FAULTS))
def test_lifting_failures_name_the_check_and_the_eigenvector(monkeypatch, message, block_entries):
    for n in (0, 5, 13):
        got = _lift_with_faults(monkeypatch, {n: message}, block_entries)
        assert got == f"internal lifting failure: {message} (group order 32, q 17, eigenvector {n})"


@pytest.mark.parametrize("block_entries", BLOCKS, ids=BLOCK_IDS)
def test_lifting_reports_the_first_failing_eigenvector(monkeypatch, block_entries):
    # a later eigenvector's degree failure does not mask an earlier one's
    # multiplicities, in one block or across blocks
    bad_degree, over, short = LIFTING_FAULTS
    cases = [
        ({4: bad_degree, 5: over}, 4, bad_degree),
        ({5: bad_degree, 4: short}, 4, short),
        ({9: over, 3: bad_degree}, 3, bad_degree),
        ({8: short, 7: over}, 7, over),
    ]
    for faults, n, message in cases:
        got = _lift_with_faults(monkeypatch, faults, block_entries)
        assert got == f"internal lifting failure: {message} (group order 32, q 17, eigenvector {n})"


def test_a_corrupted_known_line_fails_the_coset_grouped_check(d8, monkeypatch):
    # d8 over its Klein four subgroup N: g swaps N's classes 1 and 2, so the
    # last linear character of N stays g-invariant with its sign flipped on
    # class 3, and its two extensions are known lines that are no characters
    _fresh_memo(monkeypatch)
    fresh = _fresh_copy(d8)
    for N in fresh.chief_series()[:-1]:
        character_table(N)
    N, g = fresh._series_link
    below = character_table(N)
    assert table_mod._class_action(N, g) == (0, 2, 1, 3)
    cube = below.cube.copy()
    assert cube[3, :, 0].tolist() == [1, -1, -1, 1]
    cube[3, 3] = -cube[3, 3]
    corrupted = CharTable(group=N, classes=below.classes, cube=cube, e=below.e, q=below.q)
    held = table_mod._held_table
    monkeypatch.setattr(table_mod, "_held_table", lambda H: corrupted if H is N else held(H))
    message = (
        r"^internal seeding failure: known characters are not orthogonal \(group order 8, q 13\)$"
    )
    with pytest.raises(TableError, match=message):
        table_mod._compute_table(fresh)
    # the same link with N's own table seeds the right table
    monkeypatch.setattr(table_mod, "_held_table", held)
    assert table_mod._compute_table(fresh).to_json_dict() == character_table(d8).to_json_dict()
