"""Core model: l1 metric against a brute-force matching oracle, bundle
sequence validation."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predlift.model import (
    DELETE,
    END_OF_HORIZON,
    INSERT,
    BundleViolation,
    Event,
    Prediction,
    PredictionBundle,
    l1_error,
    validate_bundle_sequence,
)
from predlift.streamgen import ErrorModel


def preds(key_days):
    return [Prediction(Event(el, kind), d) for (el, kind), days in key_days.items() for d in days]


def reals(key_days):
    return [(Event(el, kind), d) for (el, kind), days in key_days.items() for d in days]


def brute_min_matching(ps, rs, T):
    """Minimum-cost matching of two day multisets with unmatched charge T,
    by exhaustive enumeration (both sides <= 6)."""
    if len(ps) > len(rs):
        ps, rs = rs, ps
    best = None
    for perm in itertools.permutations(range(len(rs)), len(ps)):
        cost = sum(abs(p - rs[j]) for p, j in zip(ps, perm))
        cost += T * (len(rs) - len(ps))
        best = cost if best is None else min(best, cost)
    if best is None:
        best = T * len(rs)
    return best


def test_zero_error_when_equal():
    kd = {("a", INSERT): [3], ("a", DELETE): [9], ("b", INSERT): [5]}
    assert l1_error(preds(kd), reals(kd), 100) == 0


def test_never_realized_prediction_charges_horizon():
    assert l1_error([Prediction(Event("e", INSERT), 40)], [], 100) == 100


def test_never_predicted_event_charges_horizon():
    assert l1_error([], [(Event("e", INSERT), 40)], 100) == 100


def test_duplicate_events_match_sorted():
    ps = [Prediction(Event("e", DELETE), 5), Prediction(Event("e", DELETE), 5)]
    rs = [(Event("e", DELETE), 3), (Event("e", DELETE), 9)]
    assert l1_error(ps, rs, 100) == 6
    assert brute_min_matching([5, 5], [3, 9], 100) == 6


def test_sentinel_padding_excluded():
    ps = [Prediction(Event("e", INSERT), 4), Prediction(Event("~pad0", INSERT), END_OF_HORIZON)]
    assert l1_error(ps, [(Event("e", INSERT), 4)], 50) == 0


def test_symmetry():
    a = {("x", INSERT): [1, 7], ("y", DELETE): [3]}
    b = {("x", INSERT): [2], ("y", DELETE): [9], ("z", INSERT): [4]}
    assert l1_error(preds(a), reals(b), 64) == l1_error(preds(b), reals(a), 64)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 30), max_size=5),
    st.lists(st.integers(1, 30), max_size=5),
)
def test_sorted_pairing_is_optimal_matching(pdays, rdays):
    T = 30
    ps = [Prediction(Event("e", INSERT), d) for d in pdays]
    rs = [(Event("e", INSERT), d) for d in rdays]
    assert l1_error(ps, rs, T) == brute_min_matching(sorted(pdays), sorted(rdays), T)


def test_l1_zero_iff_identical_multisets():
    ps = preds({("e", INSERT): [2, 5]})
    assert l1_error(ps, reals({("e", INSERT): [5, 2]}), 10) == 0
    assert l1_error(ps, reals({("e", INSERT): [2, 6]}), 10) > 0


def test_event_kind_checked():
    with pytest.raises(ValueError):
        Event("e", "X")


def test_error_model_parameters_checked():
    for kwargs, word in (
        ({"sigma": -1}, "sigma"),
        ({"rho": 1.5}, "rho"),
        ({"rho": -0.1}, "rho"),
    ):
        with pytest.raises(ValueError, match=word):
            ErrorModel("drop", **kwargs)
    assert ErrorModel("drop", sigma=0, rho=1.0).rho == 1.0
    assert ErrorModel("uniform", sigma=0, rho=0.0).sigma == 0


def _bundle(index, delivery, entries):
    return PredictionBundle(
        index, delivery, tuple(Prediction(Event(el, k), d) for el, k, d in entries)
    )


def test_bundles_valid_chain():
    b1 = _bundle(1, 1, [("a", INSERT, 5), ("b", INSERT, 9)])
    b2 = _bundle(
        2, 2, [("a", INSERT, 5), ("b", INSERT, 9), ("c", DELETE, 7), ("d", INSERT, 20)]
    )
    assert validate_bundle_sequence([b1, b2])


def test_bundles_subset_violation():
    b1 = _bundle(1, 1, [("a", INSERT, 5), ("b", INSERT, 9)])
    b2 = _bundle(2, 1, [("a", INSERT, 5), ("c", INSERT, 9), ("d", INSERT, 9), ("e", INSERT, 9)])
    with pytest.raises(BundleViolation) as err:
        validate_bundle_sequence([b1, b2])
    assert err.value.index == 2
    assert "contain" in err.value.reason


def test_bundles_doubling_violation():
    b1 = _bundle(1, 1, [("a", INSERT, 5), ("b", INSERT, 9)])
    b2 = _bundle(2, 1, [("a", INSERT, 5), ("b", INSERT, 9), ("c", INSERT, 9)])
    with pytest.raises(BundleViolation):
        validate_bundle_sequence([b1, b2])


def test_bundles_backdated_prediction():
    b1 = _bundle(1, 1, [("a", INSERT, 5), ("b", INSERT, 9)])
    b2 = _bundle(
        2, 10, [("a", INSERT, 5), ("b", INSERT, 9), ("c", DELETE, 7), ("d", INSERT, 30)]
    )
    with pytest.raises(BundleViolation) as err:
        validate_bundle_sequence([b1, b2])
    assert "backdated" in err.value.reason
