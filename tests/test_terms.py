"""Unit tests for the μ-RA term language: schema inference, structural
helpers, substitution, and the binary-relation constructors."""
import pytest

from repro.core.terms import (
    AntiJoin,
    AntiProject,
    EqCol,
    EqConst,
    Filter,
    Fix,
    Join,
    Rel,
    Rename,
    SchemaError,
    Union_,
    Var,
    compose,
    free_rels,
    free_vars,
    fresh_mid,
    inverse,
    is_constant_in,
    map_children,
    pinned,
    schema,
    subst,
    walk,
)

SD = frozenset({"src", "dst"})
ENV = {"R": SD, "S": SD, "G": frozenset({"src", "label", "dst"})}


class TestSchema:
    def test_rel(self):
        assert schema(Rel("R"), ENV) == SD

    def test_unknown_rel(self):
        with pytest.raises(SchemaError):
            schema(Rel("nope"), ENV)

    def test_unbound_var(self):
        with pytest.raises(SchemaError):
            schema(Var("X"), ENV)

    def test_bound_var(self):
        assert schema(Var("X"), ENV, {"X": SD}) == SD

    def test_union_ok(self):
        assert schema(Union_(Rel("R"), Rel("S")), ENV) == SD

    def test_union_mismatch(self):
        with pytest.raises(SchemaError):
            schema(Union_(Rel("R"), Rel("G")), ENV)

    def test_join_widens(self):
        assert schema(Join(Rel("R"), Rel("G")), ENV) == frozenset({"src", "label", "dst"})

    def test_antijoin_keeps_left(self):
        assert schema(AntiJoin(Rel("G"), Rel("R")), ENV) == frozenset({"src", "label", "dst"})

    def test_filter_ok(self):
        assert schema(Filter(EqConst("src", 1), Rel("R")), ENV) == SD

    def test_filter_missing_col(self):
        with pytest.raises(SchemaError):
            schema(Filter(EqConst("nope", 1), Rel("R")), ENV)

    def test_filter_eqcol(self):
        assert schema(Filter(EqCol("src", "dst"), Rel("R")), ENV) == SD

    def test_antiproject(self):
        assert schema(AntiProject(("src",), Rel("R")), ENV) == frozenset({"dst"})

    def test_antiproject_missing(self):
        with pytest.raises(SchemaError):
            schema(AntiProject(("nope",), Rel("R")), ENV)

    def test_rename(self):
        assert schema(Rename("src", "x", Rel("R")), ENV) == frozenset({"x", "dst"})

    def test_rename_missing(self):
        with pytest.raises(SchemaError):
            schema(Rename("nope", "x", Rel("R")), ENV)

    def test_rename_collision(self):
        with pytest.raises(SchemaError):
            schema(Rename("src", "dst", Rel("R")), ENV)

    def test_compose_schema(self):
        assert schema(compose(Rel("R"), Rel("S")), ENV) == SD

    def test_fixpoint_schema(self):
        fix = Fix("X", Union_(Rel("S"), compose(Var("X"), Rel("R"))))
        assert schema(fix, ENV) == SD

    def test_fixpoint_schema_mismatch(self):
        # Variable branch produces a different schema than the seeds.
        bad = Fix("X", Union_(Rel("S"), Rename("dst", "other", compose(Var("X"), Rel("R")))))
        with pytest.raises(SchemaError):
            schema(bad, ENV)

    def test_inverse_schema(self):
        assert schema(inverse(Rel("R")), ENV) == SD


class TestStructure:
    def test_free_vars_basic(self):
        assert free_vars(compose(Var("X"), Rel("R"))) == {"X"}

    def test_free_vars_shadowed(self):
        fix = Fix("X", Union_(Rel("S"), compose(Var("X"), Rel("R"))))
        assert free_vars(fix) == frozenset()

    def test_free_vars_inner_other(self):
        fix = Fix("X", Union_(Rel("S"), compose(Var("Y"), Rel("R"))))
        assert free_vars(fix) == {"Y"}

    def test_free_rels(self):
        fix = Fix("X", Union_(Rel("S"), compose(Var("X"), Rel("R"))))
        assert free_rels(fix) == {"S", "R"}

    def test_is_constant_in(self):
        assert is_constant_in(Rel("R"), "X")
        assert not is_constant_in(compose(Var("X"), Rel("R")), "X")

    def test_walk_counts(self):
        t = compose(Rel("R"), Rel("S"))
        kinds = [type(s).__name__ for s in walk(t)]
        assert kinds.count("Rel") == 2
        assert kinds.count("Rename") == 2
        assert kinds.count("Join") == 1

    def test_subst_replaces(self):
        t = compose(Var("X"), Rel("R"))
        t2 = subst(t, "X", Rel("S"))
        assert free_vars(t2) == frozenset()
        assert "S" in free_rels(t2)

    def test_subst_shadowing(self):
        inner = Fix("X", Union_(Rel("S"), compose(Var("X"), Rel("R"))))
        t = Join(Var("X"), inner)
        t2 = subst(t, "X", Rel("Q"))
        # Outer occurrence replaced, inner binder untouched.
        assert isinstance(t2, Join)
        assert t2.left == Rel("Q")
        assert t2.right == inner

    def test_fresh_mid_avoids_used(self):
        t = compose(Rel("R"), Rel("S"), "m0")
        assert fresh_mid(t) != "m0"

    def test_fresh_mid_nested(self):
        t1 = compose(Rel("R"), Rel("S"), "m0")
        t2 = compose(t1, Rel("R"), "m1")
        m = fresh_mid(t2)
        assert m not in ("m0", "m1")

    def test_union_operator_sugar(self):
        assert Rel("R").union(Rel("S")) == Union_(Rel("R"), Rel("S"))
        assert Rel("R").join(Rel("S")) == Join(Rel("R"), Rel("S"))

    def test_map_children_rebuilds_each_operator(self):
        def mark(c):
            return Rel("Y") if c == Rel("R") else c

        cond = EqConst("src", 1)
        cases = [
            (Union_(Rel("R"), Rel("S")), Union_(Rel("Y"), Rel("S"))),
            (Join(Rel("S"), Rel("R")), Join(Rel("S"), Rel("Y"))),
            (AntiJoin(Rel("R"), Rel("R")), AntiJoin(Rel("Y"), Rel("Y"))),
            (Filter(cond, Rel("R")), Filter(cond, Rel("Y"))),
            (AntiProject(("src",), Rel("R")), AntiProject(("src",), Rel("Y"))),
            (Rename("src", "a", Rel("R")), Rename("src", "a", Rel("Y"))),
            (Fix("X", Rel("R")), Fix("X", Rel("Y"))),
            (Rel("R"), Rel("R")),
            (Var("X"), Var("X")),
        ]
        for t, want in cases:
            assert map_children(t, mark) == want


G = Rel("G")
LABEL_A = Filter(EqConst("label", "a"), G)


class TestPinned:
    def test_leaves_and_fixpoints_pin_nothing(self):
        assert pinned(G) == {}
        assert pinned(Var("X")) == {}
        assert pinned(Fix("X", Union_(LABEL_A, Join(Var("X"), LABEL_A)))) == {}

    def test_eq_const_pins_its_column(self):
        assert pinned(LABEL_A) == {"label": "a"}
        assert pinned(Filter(EqConst("src", 7), LABEL_A)) == {"label": "a", "src": 7}

    def test_eq_col_passes_a_pin_either_way(self):
        to_dst = Filter(EqCol("src", "dst"), Filter(EqConst("src", 7), G))
        assert pinned(to_dst) == {"src": 7, "dst": 7}
        to_src = Filter(EqCol("src", "dst"), Filter(EqConst("dst", 7), G))
        assert pinned(to_src) == {"src": 7, "dst": 7}
        assert pinned(Filter(EqCol("src", "dst"), G)) == {}

    def test_rename_renames_pins(self):
        assert pinned(Rename("label", "l", LABEL_A)) == {"l": "a"}
        assert pinned(Rename("src", "s", LABEL_A)) == {"label": "a"}

    def test_join_merges_antijoin_keeps_left(self):
        b = Rename("label", "l2", Filter(EqConst("label", "b"), G))
        assert pinned(Join(LABEL_A, b)) == {"label": "a", "l2": "b"}
        assert pinned(AntiJoin(LABEL_A, b)) == {"label": "a"}
        assert pinned(AntiJoin(G, LABEL_A)) == {}

    def test_antiproject_drops_removed_pins(self):
        t = Filter(EqConst("src", 7), LABEL_A)
        assert pinned(AntiProject(("label",), t)) == {"src": 7}

    def test_union_keeps_agreed_pins(self):
        same = Union_(Filter(EqConst("src", 7), LABEL_A), LABEL_A)
        assert pinned(same) == {"label": "a"}
        other = Union_(LABEL_A, Filter(EqConst("label", "b"), G))
        assert pinned(other) == {}
