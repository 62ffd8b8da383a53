"""The frozen value types built on every scalar call write their fields in an
explicit __init__; they must keep the contract of a generated one."""

import dataclasses
import inspect
import pickle

import pytest

from qplasma.dielectric import DielectricResult, DimensionlessPointB, Model
from qplasma.errors import DegenerateQ, InconsistentParameters, ZeroWavenumber
from qplasma.kohn import KohnRoot, KohnRootSet, kohn_roots_dimless
from qplasma.units import HBAR, M_E, PhysicalParams

_VF = 1e6
_KF = _VF / (HBAR / M_E)

# (a factory of one value, a field change that stays valid, field changes
# that the class's validation rejects, with the error each raises)
CASES = {
    "KohnRoot": (lambda: KohnRoot(2 + 0j, 0j, (-1, -1), False, True, True, 0.0), {"residual": 1.0}, []),
    "KohnRootSet": (lambda: kohn_roots_dimless(0.3), {"x": 0.4}, []),
    "DielectricResult": (lambda: DielectricResult(1 + 2j, None, Model.Mermin), {"sigma": 3j}, []),
    "DimensionlessPointB": (
        lambda: DimensionlessPointB(0.3, 0.1, 1.0, 2.0), {"y": 0.2},
        [({"q": 0.0}, DegenerateQ), ({"y": -1.0}, ValueError)],
    ),
    "PhysicalParams": (
        lambda: PhysicalParams(1e15, 1e13, 1e10, _VF, _KF, 1e16), {"nu": 2e13},
        [({"k": 0.0}, ZeroWavenumber), ({"kF": 2 * _KF}, InconsistentParameters)],
    ),
}


@pytest.fixture(params=list(CASES))
def case(request):
    return CASES[request.param]


def test_is_a_frozen_dataclass_whose_init_takes_its_fields(case):
    value = case[0]()
    cls = type(value)
    assert dataclasses.is_dataclass(value) and cls.__dataclass_params__.frozen
    params = inspect.signature(cls).parameters
    fields = dataclasses.fields(cls)
    assert list(params) == [f.name for f in fields]
    assert [p.default for p in params.values()] == [
        inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default for f in fields]
    assert set(vars(value)) == {f.name for f in fields}


def test_assignment_and_deletion_raise(case):
    value = case[0]()
    for f in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, f.name)


def test_eq_and_hash_follow_the_fields(case):
    make, change, _ = case
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    other = dataclasses.replace(a, **change)
    assert other != a and {**vars(other)} == {**vars(a), **change}


def test_repr_lists_every_field(case):
    value = case[0]()
    fields = ", ".join(f"{f.name}={getattr(value, f.name)!r}" for f in dataclasses.fields(value))
    assert repr(value) == f"{type(value).__name__}({fields})"


def test_pickle_round_trip(case):
    value = case[0]()
    back = pickle.loads(pickle.dumps(value))
    assert back == value and type(back) is type(value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(back, dataclasses.fields(back)[0].name, None)


def test_replace_runs_the_validation_again(case):
    make, _, rejected = case
    value = make()
    assert dataclasses.replace(value) == value
    for change, error in rejected:
        with pytest.raises(error):
            dataclasses.replace(value, **change)
