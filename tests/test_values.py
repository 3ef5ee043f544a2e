"""Value types: frozen dataclasses that copy, pickle and ``asdict`` through their constructors."""

import copy
import dataclasses
import enum
import inspect
import math
import pickle

import numpy as np
import pytest

from ccbound import attack, correlations, infotheory, localset, regions
from ccbound.correlations import Correlation
from ccbound.infotheory import JointDistribution, StochasticMap

PI4 = math.pi / 4


def test_every_public_class_is_a_frozen_dataclass():
    found = []
    for module in (correlations, localset, infotheory, attack, regions):
        for name, cls in vars(module).items():
            if name.startswith("_") or not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            if issubclass(cls, (BaseException, enum.Enum)):
                continue
            found.append(name)
            assert dataclasses.is_dataclass(cls), name
            assert cls.__dataclass_params__.frozen, name
    assert {"Correlation", "JointDistribution", "StochasticMap", "MinimizerRecord", "IntrinsicResult"} <= set(found)


def _values():
    corr = correlations.chsh_protocol_correlation(PI4, 0.9)
    decomposition = attack.cc_chsh(PI4, 0.9)
    joint = attack.tripartite(decomposition, 0, 2)
    return {
        "Correlation": corr,
        "JointDistribution": joint,
        "StochasticMap": attack.eve_map(0.9, 0.5),
        "MeasurementArrangement": correlations.chsh_arrangement(0.3),
        "CCDecomposition": decomposition,
        "AttackModel": attack.chsh_attack(PI4, 0.9),
        "NSLocalWeight": localset.max_local_weight_ns(corr),
        "LocalityResult": localset.is_local_lp(correlations.chsh_protocol_correlation(PI4, 0.6)),
        "LocalityResult(nonlocal)": localset.is_local_lp(corr),
        "SegmentLocalWeight": localset.max_local_weight_along(corr, correlations.chsh_protocol_correlation(PI4, 1.0)),
        "IntrinsicResult": infotheory.minimize_intrinsic(joint, restarts=0),
    }


VALUES = _values()


def _arrays(value):
    """Every array a value holds, through dataclass fields, tuples and dict values, in order."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _arrays(getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif isinstance(value, np.ndarray):
        yield value


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", sorted(VALUES))
def test_copies_hold_equal_arrays_frozen_as_before(name, how):
    original = VALUES[name]
    duplicate = COPIES[how](original)
    assert type(duplicate) is type(original)
    before, after = list(_arrays(original)), list(_arrays(duplicate))
    assert before and len(before) == len(after)
    for old, new in zip(before, after):
        assert old.dtype == new.dtype and np.array_equal(old, new)
        assert old.flags.writeable or not new.flags.writeable


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equality_and_hash_do_not_raise(name):
    # a dataclass's generated == compares its array fields as a tuple, whose
    # truth value raises for arrays, and its hash hashes them
    value = VALUES[name]
    assert isinstance(value == copy.copy(value), bool) and value == value
    assert isinstance(hash(value), int)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_asdict_and_frozen_fields(name):
    value = VALUES[name]
    fields = [field.name for field in dataclasses.fields(value)]
    assert list(dataclasses.asdict(value)) == fields
    with pytest.raises(AttributeError):
        setattr(value, fields[0], None)


@pytest.mark.parametrize("how", sorted(COPIES))
def test_arrangement_builds_its_scenario_once_and_copies_only_its_fields(how):
    arrangement = correlations.chsh_arrangement(0.3)
    scenario = arrangement.scenario
    assert arrangement.scenario is scenario == correlations.Scenario(2, 3, 2, 2)
    duplicate = COPIES[how](arrangement)
    assert duplicate.scenario == scenario and duplicate.scenario is not scenario
    assert list(dataclasses.asdict(arrangement)) == ["alice", "bob"]


def test_copies_are_rebuilt_by_the_constructor(monkeypatch):
    corr = VALUES["Correlation"]
    built = []
    post_init = Correlation.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Correlation, "__post_init__", counted)
    copies = [duplicate(corr) for duplicate in COPIES.values()]
    assert built == copies


def test_table_types_keep_positional_forms_and_identity_equality():
    corr = VALUES["Correlation"]
    joint = VALUES["JointDistribution"]
    rows = VALUES["StochasticMap"].rows
    twins = (Correlation(corr.scenario, corr.table), JointDistribution(joint.p), StochasticMap(rows))
    for value, twin in zip((corr, joint, VALUES["StochasticMap"]), twins):
        assert value == value and value != twin and len({value, twin}) == 2
    assert dataclasses.asdict(corr)["scenario"] == {"n_a": 2, "n_b": 3, "k_a": 2, "k_b": 2}
    assert np.array_equal(dataclasses.asdict(joint)["p"], joint.p)


MUTATIONS = {
    "setitem": lambda mapping: mapping.__setitem__((0, 2), 5.0),
    "delitem": lambda mapping: mapping.__delitem__((0, 2)),
    "ior": lambda mapping: mapping.__ior__({(0, 2): 5.0}),
    "clear": lambda mapping: mapping.clear(),
    "pop": lambda mapping: mapping.pop((0, 2)),
    "popitem": lambda mapping: mapping.popitem(),
    "setdefault": lambda mapping: mapping.setdefault((1, 2), 5.0),
    "update": lambda mapping: mapping.update({(0, 2): 5.0}),
}


@pytest.mark.parametrize("how", sorted(COPIES))
def test_attack_model_mappings_are_read_only_in_every_copy(how):
    model = VALUES["AttackModel"]
    observed = correlations.chsh_protocol_correlation(PI4, 0.9)
    bound = attack.keyrate_bound(observed, model)
    for value in (model, COPIES[how](model)):
        for name in ("maps", "setting_weights", "unknown_fractions"):
            mapping = getattr(value, name)
            before = dict(mapping)
            for mutate in MUTATIONS.values():
                with pytest.raises(TypeError):
                    mutate(mapping)
            assert mapping.keys() == before.keys() == {(0, 2)}
        assert attack.keyrate_bound(observed, value) == bound <= 1.0
    assert dataclasses.asdict(model)["setting_weights"] == {(0, 2): 1.0}


def test_attack_model_keeps_its_own_copies_of_the_callers_dicts():
    model = VALUES["AttackModel"]
    weights, fractions = {(0, 2): 1.0}, {(0, 2): 1.0}
    maps = dict(model.maps)
    rebuilt = attack.AttackModel(model.decomposition, maps, weights, fractions)
    weights[(0, 2)], fractions[(0, 2)], maps[(1, 2)] = 5.0, 0.5, maps[(0, 2)]
    assert (rebuilt.setting_weights, rebuilt.unknown_fractions) == ({(0, 2): 1.0}, {(0, 2): 1.0})
    assert list(rebuilt.maps) == [(0, 2)]


@pytest.mark.parametrize("name", ["LocalityResult", "NSLocalWeight"])
def test_vertex_weights_are_read_only_copies(name):
    result = VALUES[name]
    assert not result.weights.flags.writeable
    with pytest.raises(ValueError):
        result.weights[0] = 1.0
    caller = np.array(result.weights)
    rebuilt = type(result)(*(caller if field.name == "weights" else getattr(result, field.name)
                             for field in dataclasses.fields(result)))
    assert caller.flags.writeable and rebuilt.weights is not caller
    assert np.array_equal(rebuilt.weights, result.weights) and not rebuilt.weights.flags.writeable
