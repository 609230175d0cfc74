"""Every error type survives pickling, as it must to leave an oracle worker."""

import pickle

import pytest

from pgw import errors

SUBCLASSES = [
    c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.PgwError)
]

# constructor arguments of the classes that take more than a message
ARGS = {
    errors.ConsistencyViolation: ("associativity", (3, 2, 1), (0, 1, 0), (1, 0, 0)),
    errors.InnerWitnessFound: ((0, 1, 0), "u=(0, 0, 1)"),
    errors.PresentationSyntaxError: ("group.pg", 4, "bad word token 'x'"),
}


@pytest.mark.parametrize("cls", SUBCLASSES, ids=lambda c: c.__name__)
def test_error_round_trips_through_pickle(cls):
    e = cls(*ARGS.get(cls, ("something failed",)))
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is cls
    assert str(back) == str(e)
    assert vars(back) == vars(e)
