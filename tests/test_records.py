"""treealg's records against the dataclasses they replaced.

Every record of treealg is a slotted subclass of treealg.records.Record.
reference_kernel keeps the same 24 records as they were declared before,
as dataclasses; here each record is built beside its twin from the same
seeded random field values, and repr, equality, hash, order, defaults,
construction errors, immutability and validation messages must agree.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
import random

import pytest

import reference_kernel as ref
from treealg import algebra, ampliation, classify, correspondence, tower
from treealg.errors import MismatchedLevels, NotATree
from treealg.graphs import DirectedGraph, OutForest
from treealg.records import Record

from catalog import triple_copy_tower
from conftest import random_out_tree

MODULES = (algebra, ampliation, classify, correspondence, tower)
LIVE = {
    name: cls
    for module in MODULES
    for name, cls in vars(module).items()
    if isinstance(cls, type) and issubclass(cls, Record) and cls.__module__ == module.__name__
}
# Records whose constructor checks its arguments; they get valid values.
CHECKED = {"Tower", "TreeRefinementSpec"}


def twin(name: str) -> type:
    return getattr(ref, name)


def random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(7 if depth < 2 else 5)
    if kind == 0:
        return rng.randrange(-3, 4)
    if kind == 1:
        return rng.choice(["", "a", "b", "note", "x'y"])
    if kind == 2:
        return rng.random() * 4
    if kind == 3:
        return rng.choice([None, True, False])
    if kind == 4:
        return frozenset(rng.sample(range(5), rng.randrange(3)))
    return tuple(random_value(rng, depth + 1) for _ in range(rng.randrange(3)))


def random_fields(rng: random.Random, name: str) -> tuple:
    """Field values of one record; mostly small, so that equal values recur."""
    if name == "SupernaturalNumber":
        finite = tuple((p, rng.randrange(1, 3)) for p in sorted(rng.sample([2, 3, 5, 7], rng.randrange(3))))
        return finite, frozenset(rng.sample([2, 3, 5], rng.randrange(3)))
    if name == "Tower":
        t = triple_copy_tower(rng.randrange(1, 4))
        return t.levels, t.maps, rng.choice([None, tower.NestRule(), tower.StandardRule(2)])
    if name == "TreeRefinementSpec":
        base = random_out_tree(rng, rng.randrange(1, 5))
        stationary = rng.choice([None, 1, 2, 6])
        return base, tuple(rng.randrange(1, 7) for _ in range(rng.randrange(3))), stationary
    return tuple(random_value(rng) for _ in LIVE[name].__slots__)


def pairs(seed: int, rounds: int = 40):
    """(name, live record, its twin, the field values) over every record."""
    rng = random.Random(seed)
    for _ in range(rounds):
        for name in sorted(LIVE):
            values = random_fields(rng, name)
            yield name, LIVE[name](*values), twin(name)(*values), values


def identity_eq(name: str) -> bool:
    return not twin(name).__dataclass_params__.eq


def test_the_records_are_the_twenty_four_dataclasses():
    assert len(LIVE) == 24
    for name, cls in LIVE.items():
        assert dataclasses.is_dataclass(twin(name))
        assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(twin(name)))
        assert cls.__doc__ == twin(name).__doc__ or twin(name).__doc__.startswith(f"{name}(")
        assert "__dict__" not in dir(cls)
        # Each record with fields writes its own __init__, where spans can wrap it.
        assert "__init__" in vars(cls) or not cls.__slots__


@pytest.mark.parametrize("seed", range(3))
def test_repr_eq_and_hash_match_the_dataclasses(seed):
    built: dict[str, list] = {}
    for name, live, old, values in pairs(seed):
        assert repr(live) == repr(old)
        assert (live == live) and not (live != live)
        if identity_eq(name):
            assert live != LIVE[name](*values) and old != twin(name)(*values)
            assert hash(live) == object.__hash__(live)
            continue
        assert live == LIVE[name](*values)
        try:
            expected = hash(old)
        except TypeError:
            with pytest.raises(TypeError):
                hash(live)
        else:
            assert hash(live) == expected == hash(tuple(values))
        built.setdefault(name, []).append((live, old))
    # Equality between records of one class follows the dataclass.
    for records in built.values():
        for (a, old_a), (b, old_b) in itertools.combinations(records[:12], 2):
            assert (a == b) == (old_a == old_b)
            assert (a != b) == (old_a != old_b)


def test_records_of_different_classes_with_equal_fields_are_unequal():
    rng = random.Random(7)
    plain = [n for n in sorted(LIVE) if n not in CHECKED and not identity_eq(n)]
    for a, b in itertools.permutations(plain, 2):
        if len(LIVE[a].__slots__) != len(LIVE[b].__slots__):
            continue
        values = random_fields(rng, a)
        assert LIVE[a](*values) != LIVE[b](*values)
        assert not LIVE[a](*values) == LIVE[b](*values)
        assert twin(a)(*values) != twin(b)(*values)
    assert tower.StandardRule(2) != tower.RefinementRule(2)
    assert tower.StandardRule(2) != (2,) and tower.NestRule() != ()
    assert LIVE["StandardRule"](2) != twin("StandardRule")(2)


def random_code(rng: random.Random, depth: int = 0) -> tuple:
    children = rng.randrange(3) if depth < 3 else 0
    return (rng.randrange(3), tuple(sorted(random_code(rng, depth + 1) for _ in range(children))))


def test_canonical_codes_order_as_the_dataclass_does():
    rng = random.Random(11)
    data = [random_code(rng) for _ in range(30)] * 2
    live = [classify.CanonicalCode(d) for d in data]
    old = [ref.CanonicalCode(d) for d in data]
    for (a, x), (b, y) in itertools.product(zip(live, old), repeat=2):
        assert (a < b, a <= b, a > b, a >= b, a == b, a != b) == (x < y, x <= y, x > y, x >= y, x == y, x != y)
        assert hash(a) == hash(x)
    assert [c.data for c in sorted(live)] == [c.data for c in sorted(old)]
    for a, x in ((live[0], old[0]), (old[0], live[0])):
        assert a != x
        with pytest.raises(TypeError):
            a < x
    with pytest.raises(TypeError):
        live[0] <= data[0]


def test_defaults():
    for cls in (correspondence.RelationCheck, ref.RelationCheck):
        assert cls(3, False).note == ""
    for cls in (tower.InconclusiveReport, ref.InconclusiveReport):
        assert cls("why").unsettled == ()
    assert repr(tower.NestRuleWitness()) == repr(ref.NestRuleWitness())
    assert tower.NestRuleWitness() == tower.NestRuleWitness(ref.NestRuleWitness().note)
    t = triple_copy_tower(2)
    assert tower.Tower(t.levels, t.maps).rule is None is ref.Tower(t.levels, t.maps).rule
    base = random_out_tree(random.Random(3), 4)
    live, old = ampliation.TreeRefinementSpec(base), ref.TreeRefinementSpec(base)
    assert (live.multiplicities, live.stationary) == (old.multiplicities, old.stationary) == ((), None)
    assert repr(live) == repr(old)


@pytest.mark.parametrize("seed", range(2))
def test_keyword_construction(seed):
    for name, live, old, values in pairs(seed, rounds=5):
        names = LIVE[name].__slots__
        kw = dict(zip(names, values))
        assert repr(LIVE[name](**kw)) == repr(twin(name)(**kw)) == repr(live)
        if not identity_eq(name):
            assert LIVE[name](**kw) == live
            assert LIVE[name](*values[:1], **dict(zip(names[1:], values[1:]))) == live


def test_missing_or_extra_arguments_raise_type_error():
    rng = random.Random(5)
    for name, cls in LIVE.items():
        values = random_fields(rng, name)
        required = [f for f in dataclasses.fields(twin(name)) if f.default is dataclasses.MISSING]
        calls = [values + (0,)]
        if required:
            calls.append(values[: len(required) - 1])
        for args in calls:
            for k in (cls, twin(name)):
                with pytest.raises(TypeError):
                    k(*args)
        for k in (cls, twin(name)):
            with pytest.raises(TypeError):
                k(*values, bogus=1)
            if values:
                with pytest.raises(TypeError):
                    k(*values, **{cls.__slots__[0]: values[0]})


def test_fields_cannot_be_assigned_or_deleted():
    for name, live, old, values in pairs(13, rounds=1):
        for field in LIVE[name].__slots__ + ("extra",):
            with pytest.raises(AttributeError) as assigned:
                setattr(live, field, 1)
            with pytest.raises(AttributeError) as deleted:
                delattr(live, field)
            with pytest.raises(AttributeError) as old_assigned:
                setattr(old, field, 1)
            with pytest.raises(AttributeError) as old_deleted:
                delattr(old, field)
            assert str(assigned.value) == str(old_assigned.value)
            assert str(deleted.value) == str(old_deleted.value)
        assert repr(live) == repr(old)


def test_records_survive_pickle_and_copy():
    for name, live, old, values in pairs(17, rounds=2):
        for clone in (pickle.loads(pickle.dumps(live)), copy.copy(live), copy.deepcopy(live)):
            assert type(clone) is LIVE[name] and repr(clone) == repr(live)
            assert (clone == live) != identity_eq(name)


def error_of(call) -> tuple[type, str]:
    with pytest.raises(ValueError) as caught:
        call()
    return type(caught.value), str(caught.value)


def test_validation_messages_are_unchanged():
    t = triple_copy_tower(3)
    (a, b, c), (e, f) = t.levels, t.maps
    towers = [([], []), ([a, b], []), ([a, b, c], [e]), ([b, b], [e]), ([a, c], [e]), ((a, b, c), (f, e))]
    for levels, maps in towers:
        got = error_of(lambda: tower.Tower(levels, maps))
        assert got == error_of(lambda: ref.Tower(levels, maps))
        assert got[0] is MismatchedLevels
    tree = random_out_tree(random.Random(1), 3)
    forest = OutForest(DirectedGraph(["r", "s"], []))
    specs = [(forest, (), None), (tree, (2, 0), None), (tree, (), 0), (tree, (2,), -1),
             (tree, (2, ampliation.MAX_MULTIPLICITY + 1), None), (tree, (), ampliation.MAX_MULTIPLICITY + 1)]
    kinds = set()
    for args in specs:
        got = error_of(lambda: ampliation.TreeRefinementSpec(*args))
        assert got == error_of(lambda: ref.TreeRefinementSpec(*args))
        kinds.add(got[0])
    assert kinds == {NotATree, ValueError}
