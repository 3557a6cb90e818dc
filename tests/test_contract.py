"""The input contract: nothing but a ``MinCodesError`` escapes a public call.

Every callable in ``mincodes.__all__`` is called with junk in each scalar,
sequence, text or path position: small ints, floats, integral floats,
strings, None, bools, numpy integers and ragged or nested lists.  Object
positions (a field from ``build_field``, a ``GFMatrix``, ``LinearCode``,
``SssScheme`` or sweep registry) get valid objects, since passing another
type there is outside the contract (see the README).  A path is either a
file name under ``tmp_path`` or junk that is not a path; never an int, a
bool or a numpy integer, which ``open()`` would take as a file descriptor.
Ints stay in -3..6 and every budget is junk too, so no call builds or
walks a large code.
"""

import inspect

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mincodes
from mincodes import (GFMatrix, LinearCode, MinCodesError, SssScheme,
                      build_field, extended, first)

SMALL = st.integers(-3, 6)
NESTED = st.recursive(SMALL, lambda inner: st.lists(inner, max_size=4),
                      max_leaves=8)
JUNK = st.one_of(
    SMALL,
    st.floats(),
    SMALL.map(float),
    st.text(max_size=6),
    st.none(),
    st.booleans(),
    SMALL.map(np.int64),
    NESTED,
)
NOT_A_PATH = st.one_of(st.floats(), st.none(), st.lists(NESTED, max_size=3))

FIELDS = st.sampled_from([2, 3, 4]).map(build_field)
MATRICES = st.sampled_from([(2, [[1, 0, 1], [0, 1, 1]]), (3, [[1, 2]]),
                            (4, [[1, 2, 3]])]).map(
    lambda qm: GFMatrix(build_field(qm[0]), qm[1]))
CODES = st.sampled_from([lambda: first(2, 2), lambda: first(3, 3),
                         lambda: extended(3, 4)]).map(lambda build: build())
# parameter name -> strategy of the valid objects that position takes
OBJECTS = {
    "field": FIELDS,
    "matrix": MATRICES,
    "a": MATRICES,
    "b": MATRICES,
    "gen": MATRICES,
    "code": CODES,
    "c1": CODES,
    "c2": CODES,
    "scheme": CODES.map(SssScheme),
    "registry": st.builds(dict),
}
PATHS = {"path"}

CALLABLES = [name for name in mincodes.__all__
             if callable(getattr(mincodes, name))
             and not (isinstance(getattr(mincodes, name), type)
                      and issubclass(getattr(mincodes, name), Exception))]


def test_every_exported_error_is_a_package_error():
    errors = [getattr(mincodes, name) for name in mincodes.__all__
              if isinstance(getattr(mincodes, name), type)
              and issubclass(getattr(mincodes, name), Exception)]
    assert errors and all(issubclass(e, MinCodesError) for e in errors)


def test_object_positions_are_trusted():
    # outside the contract, as the README states: no check, a bare error
    with pytest.raises(AttributeError):
        mincodes.rank([[1]])
    with pytest.raises(AttributeError):
        LinearCode([[1]])


def _position(name: str, tmp_path):
    if name in OBJECTS:
        return OBJECTS[name]
    if name in PATHS:
        return st.one_of(
            st.sampled_from(["m.txt", "other.txt"]).map(
                lambda file: str(tmp_path / file)),
            NOT_A_PATH)
    return JUNK


@pytest.mark.parametrize("name", CALLABLES)
@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_only_package_errors_escape(name, data, tmp_path):
    func = getattr(mincodes, name)
    kwargs = {}
    for param in inspect.signature(func).parameters.values():
        if param.default is not param.empty and data.draw(st.booleans()):
            continue  # leave an optional argument at its default
        kwargs[param.name] = data.draw(_position(param.name, tmp_path),
                                       label=param.name)
    try:
        func(**kwargs)
    except MinCodesError:
        pass
