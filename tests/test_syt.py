import pytest

from anyondeg.lattice import Vertex
from anyondeg.pathcount import degeneracy
from anyondeg.records import count_paths
from anyondeg.syt import (
    Shape3, audit_published_formula, brute_force_count, hook_count,
    published_formula_count, shape_for_vertex, shapes, unrestricted_count,
)


def all_shapes(n_max):
    for r1 in range(n_max + 1):
        for r2 in range(r1 + 1):
            for r3 in range(r2 + 1):
                if r1 + r2 + r3 <= n_max:
                    yield Shape3(r1, r2, r3)


@pytest.mark.parametrize("n_max", range(15))
def test_shapes_in_row_order(n_max):
    # the library's enumeration against the plain triple loop here
    assert list(shapes(n_max)) == list(all_shapes(n_max))


class TestHookCount:
    @pytest.mark.parametrize("shape,count", [
        ((1, 1, 1), 1),
        ((2, 2, 2), 5),
        ((3, 3, 3), 42),
        ((2, 1, 0), 2),
        ((1, 0, 0), 1),
        ((0, 0, 0), 1),
    ])
    def test_known_shapes(self, shape, count):
        assert hook_count(Shape3(*shape)) == count

    def test_rejects_invalid_shape(self):
        with pytest.raises(ValueError):
            hook_count(Shape3(1, 2, 0))
        with pytest.raises(ValueError):
            hook_count(Shape3(2, 1, -1))


class TestBruteForce:
    def test_small_cases(self):
        assert brute_force_count(Shape3(2, 2, 2)) == 5
        assert brute_force_count(Shape3(6, 0, 0)) == 1
        assert brute_force_count(Shape3(1, 1, 1)) == 1

    def test_cap(self):
        with pytest.raises(ValueError):
            brute_force_count(Shape3(8, 8, 8))

    def test_oracle_agreement_to_twelve_boxes(self):
        for shape in all_shapes(12):
            assert hook_count(shape) == brute_force_count(shape)


class TestShapeForVertex:
    def test_one_box(self):
        assert shape_for_vertex(1, Vertex(0, 1)) == Shape3(1, 0, 0)

    def test_column(self):
        assert shape_for_vertex(3, Vertex(0, 0)) == Shape3(1, 1, 1)

    def test_congruence_failure(self):
        assert shape_for_vertex(2, Vertex(0, 0)) is None

    def test_negative_bottom_row(self):
        assert shape_for_vertex(1, Vertex(2, 0)) is None

    def test_round_trip(self):
        for shape in all_shapes(9):
            assert shape_for_vertex(shape.n, shape.vertex) == shape


class TestUnrestrictedCount:
    def test_known_values(self):
        assert unrestricted_count(12, Vertex(0, 0)) == 462
        assert unrestricted_count(2, Vertex(1, 0)) == 1
        assert unrestricted_count(2, Vertex(0, 0)) == 0

    @pytest.mark.parametrize("v", [Vertex(-1, 0), Vertex(0, -2)])
    def test_rejects_negative_overhang(self, v):
        with pytest.raises(ValueError, match="lies in no lattice"):
            unrestricted_count(9, v)

    def test_accepts_any_vertex_with_nonnegative_overhangs(self):
        assert unrestricted_count(9, Vertex(9, 9)) == 0
        assert unrestricted_count(27, Vertex(9, 9)) == hook_count(
            Shape3(18, 9, 0))

    @pytest.mark.parametrize("n", range(0, 13))
    def test_matches_saturated_walk_counts(self, n):
        k = max(n, 1)
        for extra in (0, 1, 2):
            counts = count_paths(k + extra, n).counts
            for v, c in counts.items():
                assert unrestricted_count(n, v) == c

    @pytest.mark.parametrize("n", range(0, 13))
    def test_total_dimension_identity(self, n):
        k = max(n, 1)
        counts = count_paths(k, n).counts
        lattice_total = sum(counts.values())
        shape_total = sum(unrestricted_count(n, v) for v in counts)
        assert shape_total == lattice_total


class TestPublishedFormulaAudit:
    def test_origin_agreement(self):
        for n in range(0, 28, 3):
            assert published_formula_count(n, 0, 0) \
                == unrestricted_count(n, Vertex(0, 0))

    def test_single_column_disagreement(self):
        # shape (1,1,0) has exactly one tableau; the printed expression
        # has no valid factorial arguments there
        assert hook_count(Shape3(1, 1, 0)) == 1
        assert published_formula_count(2, 1, 0) != 1

    def test_audit_report_is_generated(self):
        report = audit_published_formula(n_max=27)
        assert report["origin_all_agree"]
        assert len(report["origin"]) == 10
        assert report["shapes_checked"] > 0
        assert any(d["shape"] == [1, 1, 0] for d in report["disagreements"])
        for row in report["disagreements"]:
            assert row["printed"] != row["hook"]
