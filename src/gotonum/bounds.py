"""Closed-form bounds and formulas for Goto numbers of monomial ideals, and
``build_report``: each bound next to engine truth and its slack, as the JSON
payload ``gotonum bounds`` prints."""

from __future__ import annotations

from .colon import goto_monomial
from .errors import BoundViolation, CrossCheckMismatch, NotTwoGenerated
from .fields import quote_int, quote_ints
from .semigroup import NumericalSemigroup


def bound_global(S: NumericalSemigroup) -> int:
    """Upper bound floor(f/a_1) + 1 valid for every parameter ideal."""
    return S.frobenius // S.multiplicity + 1


def bound_monomial_generator(S: NumericalSemigroup, j: int) -> int:
    """Upper bound floor((a_j - b_j + f)/a_1) for g(x^(a_j)), j >= 2,
    where b_j is the largest semigroup element below a_j."""
    if not 2 <= j <= S.embedding_dim:
        raise ValueError(
            f"generator index {quote_int(j)} outside [2, {S.embedding_dim}]"
        )
    aj = S.generators[j - 1]
    bj = S.largest_below(aj)
    return (aj - bj + S.frobenius) // S.multiplicity


def bound_first_generator(S: NumericalSemigroup) -> int:
    """Upper bound ceil((f + a_1 + 1)/a_2) - 1, that is floor((f + a_1)/a_2),
    for g(x^(a_1))."""
    if S.embedding_dim < 2:
        raise NotTwoGenerated("bound needs at least two generators")
    a1, a2 = S.generators[0], S.generators[1]
    return (S.frobenius + a1) // a2


def closed_form_two_generated(S: NumericalSemigroup):
    """Exact pair (g(x^(a_1)), g(x^(a_2))) = (a_1 - 1, a_2 - 1 - floor((a_2-1)/a_1))
    for a two-generated semigroup; the first component never exceeds the second."""
    if S.embedding_dim != 2:
        raise NotTwoGenerated(
            f"semigroup {quote_ints(S.generators)} is not two-generated"
        )
    a1, a2 = S.generators
    return (a1 - 1, a2 - 1 - (a2 - 1) // a1)


def stable_goto(S: NumericalSemigroup) -> int:
    """The common Goto number g(x^e) for all e >= f + a_1 + 1.

    One route: g(x^(f+a_1+1)), the least escape order over alpha in
    [1, a_1] (``S.stable_goto_via_t_prime``).  Its agreement with
    ``S.stable_goto_via_t`` and, for two generators, with a_1 - 1 is
    checked in the tests.
    """
    return S.stable_goto_via_t_prime()


def rho(S: NumericalSemigroup) -> int:
    """Largest Goto number among monomial parameter ideals: the maximum of
    g(x^(a_j)) over the generators."""
    return max(goto_monomial(S, a) for a in S.generators)


def bound_display_max(S: NumericalSemigroup) -> int:
    """Combined bound max(first-generator bound, per-generator bounds).

    Dominates rho and never exceeds 1 + f/a_1, for an integer the global
    bound floor(f/a_1) + 1 (checked)."""
    value = max(
        bound_first_generator(S),
        max(bound_monomial_generator(S, j) for j in range(2, S.embedding_dim + 1)),
    )
    if value < rho(S):
        raise CrossCheckMismatch(
            f"combined bound {value} undercuts the monomial supremum on {quote_ints(S.generators)}"
        )
    if value > bound_global(S):
        raise BoundViolation(
            f"combined bound {value} exceeds 1 + f/a_1 on {quote_ints(S.generators)}"
        )
    return value


def build_report(S: NumericalSemigroup) -> dict:
    """Every bound and formula for S next to engine truth, as the JSON
    payload ``gotonum bounds`` prints (integer keys as strings).

    All slacks are non-negative; a negative slack would mean a bound
    failed and is raised as an internal error.
    """
    monomial_gotos = {a: goto_monomial(S, a) for a in S.generators}
    generator_bounds = {
        S.generators[j - 1]: bound_monomial_generator(S, j)
        for j in range(2, S.embedding_dim + 1)
    }
    pair = closed_form_two_generated(S) if S.embedding_dim == 2 else None
    if pair is not None and pair != (
        monomial_gotos[S.generators[0]],
        monomial_gotos[S.generators[1]],
    ):
        raise CrossCheckMismatch(
            f"two-generated closed form {pair} disagrees with engine "
            f"{tuple(monomial_gotos.values())} on {quote_ints(S.generators)}"
        )
    report = {
        "schema": 1,
        "generators": list(S.generators),
        "frobenius": S.frobenius,
        "global_bound": bound_global(S),
        "generator_bounds": {str(a): v for a, v in generator_bounds.items()},
        "first_generator_bound": bound_first_generator(S),
        "two_generated_pair": list(pair) if pair else None,
        "display_max": bound_display_max(S),
        "stable_goto": stable_goto(S),
        "rho": rho(S),
        "conductor_order": S.conductor_order(),
        "monomial_gotos": {str(a): g for a, g in monomial_gotos.items()},
    }
    slacks = {
        "global_vs_rho": report["global_bound"] - report["rho"],
        "first_generator": report["first_generator_bound"]
        - monomial_gotos[S.generators[0]],
        "display_vs_rho": report["display_max"] - report["rho"],
        "stable_vs_conductor_order": report["stable_goto"] - report["conductor_order"],
    }
    for a, bound in generator_bounds.items():
        slacks[f"generator_{a}"] = bound - monomial_gotos[a]
    for name, slack in slacks.items():
        if slack < 0:
            raise CrossCheckMismatch(
                f"bound {name} violated on {quote_ints(S.generators)}: slack {slack}"
            )
    report["slacks"] = slacks
    return report
