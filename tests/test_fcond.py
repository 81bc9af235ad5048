"""F_cond admissibility checks and the R ∪ φ decomposition (paper §II-B,
Propositions 1–2)."""
import pandas as pd
import pytest

from repro.baselines.pregel import eval_crpq_pregel
from repro.core import fcond
from repro.core.compiler_pandas import eval_pandas
from repro.core.compiler_spark import FixConfig, eval_spark
from repro.core.fcond import (
    CapacityError,
    FCondError,
    check_fcond,
    constant_variable_split,
    union_branches,
    union_of,
)
from repro.core.terms import (
    AntiJoin,
    Fix,
    Join,
    Rel,
    Union_,
    Var,
    compose,
)


def tc_fix():
    return Fix("X", Union_(Rel("S"), compose(Var("X"), Rel("E"))))


class TestCheckFcond:
    def test_valid_tc(self):
        check_fcond(tc_fix())  # no raise

    def test_not_positive(self):
        # μ(X = S ∪ (E ▷ X)): X on the right of an antijoin.
        bad = Fix("X", Union_(Rel("S"), AntiJoin(Rel("E"), Var("X"))))
        with pytest.raises(FCondError, match="positive"):
            check_fcond(bad)

    def test_not_linear_join(self):
        bad = Fix("X", Union_(Rel("S"), Join(Var("X"), Var("X"))))
        with pytest.raises(FCondError, match="linear"):
            check_fcond(bad)

    def test_not_linear_compose_of_x_x(self):
        bad = Fix("X", Union_(Rel("S"), compose(Var("X"), Var("X"))))
        with pytest.raises(FCondError, match="linear"):
            check_fcond(bad)

    def test_mutually_recursive(self):
        inner = Fix("Y", Union_(Rel("S"), compose(Var("X"), Var("Y") if False else Rel("E"))))
        # inner references X while binding Y → mutual recursion
        inner = Fix("Y", Union_(Rel("S"), compose(Var("Y"), Var("X"))))
        bad = Fix("X", Union_(Rel("S"), inner))
        with pytest.raises(FCondError, match="mutually recursive"):
            check_fcond(bad)

    def test_inner_fix_constant_in_x_ok(self):
        # μ(X = R ∪ X ⋈ μ(Y = S ∪ Y∘E)) satisfies F_cond (paper example).
        inner = Fix("Y", Union_(Rel("S"), compose(Var("Y"), Rel("E"))))
        ok = Fix("X", Union_(Rel("R"), compose(Var("X"), inner)))
        check_fcond(ok)

    def test_positive_antijoin_left_ok(self):
        ok = Fix("X", Union_(Rel("S"), AntiJoin(compose(Var("X"), Rel("E")), Rel("R"))))
        check_fcond(ok)


class TestSplit:
    def test_basic_split(self):
        const, phi = constant_variable_split(tc_fix())
        assert const == Rel("S")
        assert "X" in str(phi)

    def test_multi_constant_branches(self):
        fix = Fix(
            "X",
            Union_(Union_(Rel("S"), Rel("R")), compose(Var("X"), Rel("E"))),
        )
        const, phi = constant_variable_split(fix)
        assert set(union_branches(const)) == {Rel("S"), Rel("R")}

    def test_multi_variable_branches(self):
        fix = Fix(
            "X",
            Union_(
                Rel("S"),
                Union_(compose(Var("X"), Rel("E")), compose(Rel("E"), Var("X"), "m1")),
            ),
        )
        const, phi = constant_variable_split(fix)
        assert len(union_branches(phi)) == 2

    def test_no_recursive_branch(self):
        with pytest.raises(FCondError, match="no recursive branch"):
            constant_variable_split(Fix("X", Union_(Rel("S"), Rel("E"))))

    def test_no_constant_branch(self):
        with pytest.raises(FCondError, match="no constant branch"):
            constant_variable_split(Fix("X", compose(Var("X"), Rel("E"))))

    def test_variable_branch_with_constant_union_side(self):
        # φ = (X∘E) ∪ S does not vanish at ∅ → rejected.
        bad = Fix(
            "X",
            Union_(Rel("S"), Join(Var("X"), Union_(compose(Var("X"), Rel("E")), Rel("S")))),
        )
        with pytest.raises(FCondError):
            constant_variable_split(bad)

    def test_constant_union_below_join_ok(self):
        # X ⋈ (E1 ∪ E2): the union is constant in X — allowed.
        fix = Fix(
            "X",
            Union_(Rel("S"), compose(Var("X"), Union_(Rel("E"), Rel("R")))),
        )
        const, phi = constant_variable_split(fix)
        assert const == Rel("S")

    def test_union_branches_flatten(self):
        t = Union_(Union_(Rel("A"), Rel("B")), Rel("C"))
        assert union_branches(t) == [Rel("A"), Rel("B"), Rel("C")]

    def test_union_of_roundtrip(self):
        branches = [Rel("A"), Rel("B"), Rel("C")]
        assert union_branches(union_of(branches)) == branches

    def test_union_of_empty_raises(self):
        with pytest.raises(ValueError):
            union_of([])


@pytest.mark.parametrize("engine", ["pandas", "gld", "pregel"])
def test_iteration_cap_is_not_a_capacity_error(request, monkeypatch, engine):
    """Every loop that semi_naive drives reads fcond.MAX_ITERATIONS at call
    time and reports a fixpoint that needs more steps as RuntimeError."""
    monkeypatch.setattr(fcond, "MAX_ITERATIONS", 2)
    chain = pd.DataFrame({"src": range(10), "dst": range(1, 11)})  # 10 edges
    tc = Fix("X", Union_(Rel("E"), compose(Var("X"), Rel("E"))))
    if engine == "pandas":
        run = lambda: eval_pandas(tc, {"E": chain})
    else:
        spark = request.getfixturevalue("spark")
        if engine == "gld":
            env = {"E": spark.createDataFrame(chain)}
            run = lambda: eval_spark(tc, env, spark, FixConfig(strategy="gld"))
        else:
            graph = spark.createDataFrame(chain.assign(label="a"))
            run = lambda: eval_crpq_pregel(spark, graph, "?x, ?y <- ?x a+ ?y")
    with pytest.raises(RuntimeError, match="did not converge") as exc:
        run()
    assert not isinstance(exc.value, CapacityError)
