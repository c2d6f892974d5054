import numpy as np
import pytest

from anyondeg.lattice import (
    _STEPS, ORIGIN, Lattice, Vertex, build_lattice, check_vertex,
    class_offsets, in_vertex_set, walk_table,
)

from oracles import adjacency, canonical_positions, class_positions, \
    graded_predecessors, rotate, successors


def named_edges(classes, pred):
    """The edges (u, v) a per-class position table names, pads left out."""
    return [(classes[g - 1][u], v) for g, rows in enumerate(pred)
            for v, us in zip(classes[g], rows)
            for u in us if u < len(classes[g - 1])]


def forward(k):
    """Successor sets read off the production table, ``walk_table``."""
    classes = class_positions(build_lattice(k))[0]
    edges = named_edges(classes, walk_table(k))
    return {u: {w for v, w in edges if v == u} for cls in classes for u in cls}


def test_build_lattice_k1_is_three_cycle():
    lat = build_lattice(1)
    assert set(lat.vertices) == {Vertex(0, 0), Vertex(0, 1), Vertex(1, 0)}
    assert forward(1) == {
        Vertex(0, 0): {Vertex(0, 1)},
        Vertex(0, 1): {Vertex(1, 0)},
        Vertex(1, 0): {Vertex(0, 0)},
    }


@pytest.mark.parametrize("k,count", [(1, 3), (2, 6), (3, 10), (8, 45)])
def test_vertex_count(k, count):
    assert build_lattice(k).dim == count


def test_lattice_fields_cannot_be_assigned():
    lat = build_lattice(3)
    for name in ("k", "vertices"):
        with pytest.raises(AttributeError):
            setattr(lat, name, None)


@pytest.mark.parametrize("k", range(1, 9))
def test_lattice_record_repr_eq_and_hash(k):
    # repr names every field in order; == and hash are the fields' tuple
    lat = build_lattice(k)
    assert repr(lat) == f"Lattice(k={k}, vertices={lat.vertices!r})"
    assert lat == Lattice(k, lat.vertices) == build_lattice(k)
    assert lat != build_lattice(k + 1)
    assert hash(lat) == hash((k, lat.vertices))


def test_lattice_repr_at_level_one():
    assert repr(build_lattice(1)) == (
        "Lattice(k=1, vertices=(Vertex(i=0, j=0), Vertex(i=0, j=1), "
        "Vertex(i=1, j=0)))")


@pytest.mark.parametrize("k", [0, -3])
def test_build_lattice_rejects_bad_level(k):
    with pytest.raises(ValueError):
        build_lattice(k)


@pytest.mark.parametrize("k", [*range(1, 9), 64])
def test_canonical_order_and_index_formula(k):
    # the vertices are made by tuple.__new__, and are Vertex records still
    lat = build_lattice(k)
    expected = [Vertex(i, j) for i in range(k + 1) for j in range(k + 1 - i)]
    assert list(lat.vertices) == expected
    assert lat == Lattice(k, tuple(expected))
    assert all(type(v) is Vertex for v in lat.vertices)
    for pos, v in enumerate(lat.vertices):
        # 1-based published index: i(2k - i + 3)/2 + j + 1
        assert v.i * (2 * k - v.i + 3) // 2 + v.j + 1 == pos + 1


@pytest.mark.parametrize("k", range(1, 9))
def test_out_degree_rules(k):
    for v, succ in forward(k).items():
        assert len(succ) <= 3
        assert (Vertex(v.i, v.j + 1) in succ) == (v.i + v.j + 1 <= k)
        assert (Vertex(v.i - 1, v.j) in succ) == (v.i >= 1)
        assert (Vertex(v.i + 1, v.j - 1) in succ) == \
            (v.j >= 1 and v.i + v.j <= k)
        assert succ <= {Vertex(v.i, v.j + 1), Vertex(v.i - 1, v.j),
                        Vertex(v.i + 1, v.j - 1)}


@pytest.mark.parametrize("k", range(1, 13))
def test_strongly_connected(k):
    lat = build_lattice(k)
    fwd = forward(k)
    rev = {v: [u for u in fwd if v in fwd[u]] for v in fwd}

    def reach(adjacency_lists):
        seen = {ORIGIN}
        stack = [ORIGIN]
        while stack:
            for w in adjacency_lists[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    assert reach(fwd) == set(lat.vertices)
    assert reach(rev) == set(lat.vertices)


@pytest.mark.parametrize("k", range(1, 9))
def test_step_grading_mod_3(k):
    for a, succ in forward(k).items():
        for b in succ:
            assert (2 * b.i + b.j - 2 * a.i - a.j) % 3 == 1


@pytest.mark.parametrize("k", range(1, 13))
def test_box_addition_oracle_reverses_predecessors(k):
    # the oracle's forward rule comes from shapes, not from the library's
    # step table; the two must give the same edge set
    fwd = forward(k)
    for v in build_lattice(k).vertices:
        succ = successors(v, k)
        assert len(succ) == len(set(succ)) and set(succ) == fwd[v]


@pytest.mark.parametrize("k", range(1, 13))
def test_grade_classes(k):
    lat = build_lattice(k)
    classes, pos = class_positions(lat)
    assert classes[0][0] == ORIGIN
    assert sorted(v for c in classes for v in c) == list(lat.vertices)
    assert len(pos) == lat.dim
    for g, cls in enumerate(classes):
        assert list(cls) == sorted(cls, key=canonical_positions(lat).get)
        for r, v in enumerate(cls):
            assert (2 * v.i + v.j) % 3 == g and pos[v] == r
            assert all(w in classes[(g + 1) % 3] for w in successors(v, k))


@pytest.mark.parametrize("k", range(1, 13))
def test_graded_predecessor_positions(k):
    # pred[g][r] points at the predecessors of the r-th class-g vertex;
    # the graded Bareiss oracle sums numerators over these positions
    check_class_positions(build_lattice(k), graded_predecessors)


@pytest.mark.parametrize("k", range(1, 65))
def test_class_predecessor_positions(k):
    # what the arithmetic construction rests on, with no edge oracle:
    # off[g][i] + j // 3 is (i, j)'s position in a plain enumeration of
    # its class, and slot s of v's row is the position of v - _STEPS[s],
    # or the pad off the lattice
    lat = build_lattice(k)
    classes, pos = class_positions(lat)
    off = class_offsets(k)
    assert [row[-1] for row in off] == [len(c) for c in classes]
    assert all(off[(2 * v.i + v.j) % 3][v.i] + v.j // 3 == pos[v]
               for v in lat.vertices)
    for g, rows in enumerate(walk_table(k)):
        for v, row in zip(classes[g], rows):
            assert row == [pos[w] if in_vertex_set(w, k) else
                           len(classes[g - 1]) for w in
                           (Vertex(v.i - di, v.j - dj) for di, dj in _STEPS)]


@pytest.mark.parametrize("k", range(1, 65))
def test_class_predecessor_rows_are_padded(k):
    # slot s of row r of class g: the class-(g - 1) position of
    # v - _STEPS[s] when box addition leads from that point to v, else
    # the pad len(class g - 1), the zero slot of the sweep's previous list
    classes = class_positions(build_lattice(k))[0]
    pred = walk_table(k)
    assert len(pred) == 3
    for g, (cls, rows) in enumerate(zip(classes, pred)):
        prev, pad = classes[g - 1], len(classes[g - 1])
        assert len(rows) == len(cls)
        for v, us in zip(cls, rows):
            assert len(us) == len(_STEPS) == 3
            for (di, dj), u in zip(_STEPS, us):
                w = Vertex(v.i - di, v.j - dj)
                edge = w in prev and v in successors(w, k)
                assert u == (prev.index(w) if edge else pad)


@pytest.mark.parametrize("k", range(1, 65))
def test_rows_of_given_points_are_the_whole_tables(k):
    # every vertex, or every 2nd or 5th of each class, in class order:
    # their rows of the whole table, whole-class positions and pads kept
    full = walk_table(k)
    classes = class_positions(build_lattice(k))[0]
    for stride in (1, 2, 5):
        points = [[(v.i, v.j) for v in cls[::stride]] for cls in classes]
        assert walk_table(k, points) == [rows[::stride] for rows in full]


def check_class_positions(lat, table):
    # every edge by box addition named once, at its head
    classes, pred = class_positions(lat)[0], table(lat)
    assert [len(p) for p in pred] == [len(c) for c in classes]
    assert sorted(named_edges(classes, pred)) == sorted(
        (v, w) for v in lat.vertices for w in successors(v, lat.k))


@pytest.mark.parametrize("k", range(1, 31))
def test_rotation_maps_the_edges_onto_themselves(k):
    # J, the simple current, permutes the vertices and the box-addition
    # edges: an automorphism of the walk graph
    vertices = build_lattice(k).vertices
    edges = {(v, w) for v in vertices for w in successors(v, k)}
    assert sorted(rotate(v, k) for v in vertices) == list(vertices)
    assert {(rotate(v, k), rotate(w, k)) for v, w in edges} == edges


@pytest.mark.parametrize("k", range(1, 31))
def test_rotation_keeps_the_classes_iff_3_divides_k(k):
    # then its only fixed point is (k/3, k/3)
    vertices = build_lattice(k).vertices

    def grade(v):
        return (2 * v.i + v.j) % 3

    keeps = all(grade(rotate(v, k)) == grade(v) for v in vertices)
    assert keeps == (k % 3 == 0)
    fixed = [v for v in vertices if rotate(v, k) == v]
    assert fixed == ([Vertex(k // 3, k // 3)] if keeps else [])


def test_adjacency_k1():
    mat = adjacency(build_lattice(1))
    assert mat.tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert np.array_equal(np.linalg.matrix_power(mat, 3), np.eye(3, dtype=int))


@pytest.mark.parametrize("k", range(1, 13))
def test_adjacency_is_normal(k):
    # A commutes with its transpose (A is the fusion matrix of the
    # fundamental representation), exactly, in int64
    mat = adjacency(build_lattice(k))
    assert mat.dtype == np.int64
    assert np.array_equal(mat @ mat.T, mat.T @ mat)


@pytest.mark.parametrize("k", range(1, 9))
def test_adjacency_row_sums(k):
    mat = adjacency(build_lattice(k))
    assert set(np.unique(mat)) <= {0, 1}
    assert mat.sum(axis=1).max() <= 3


def test_in_vertex_set():
    assert in_vertex_set(Vertex(1, 2), 3)
    assert not in_vertex_set(Vertex(1, 3), 3)
    assert not in_vertex_set(Vertex(-1, 0), 3)


def test_check_vertex():
    check_vertex(Vertex(1, 2), 3)
    for v in [Vertex(1, 3), Vertex(-1, 0), Vertex(0, -1)]:
        with pytest.raises(ValueError, match=r"not in the level-3 lattice"):
            check_vertex(v, 3)
