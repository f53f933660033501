"""The library's records keep the value semantics of the frozen dataclasses they replaced.

The references here are dataclasses built in this file; the library itself
never imports ``dataclasses`` (see test_cli.py for that guard).
"""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cobweb.chains import chain_count_report, check_k1_degeneracy
from cobweb.crosscheck import CrosscheckConfig
from cobweb.fib_core import FIBONACCI, PsiSequence, fib
from cobweb.konvalina import WeightVector
from cobweb.paths_fences import FencePoset
from cobweb.poset import CobwebCopy, Vertex, level_size, truncate

RefVertex = dataclasses.make_dataclass("Vertex", ["level", "pos"], frozen=True, order=True)

vertex_args = st.integers(0, 12).flatmap(lambda s: st.tuples(st.just(s), st.integers(1, level_size(s))))


@given(st.lists(vertex_args, min_size=1, max_size=10))
def test_vertex_compares_sorts_and_hashes_as_the_dataclass_did(args):
    vs = [Vertex(*a) for a in args]
    refs = [RefVertex(*a) for a in args]
    assert [repr(v) for v in vs] == [repr(r) for r in refs]
    assert [hash(v) for v in vs] == [hash(r) for r in refs] == [hash(a) for a in args]
    for u, ru in zip(vs, refs):
        for v, rv in zip(vs, refs):
            got = (u == v, u != v, u < v, u <= v, u > v, u >= v)
            assert got == (ru == rv, ru != rv, ru < rv, ru <= rv, ru > rv, ru >= rv)

    def key(v):
        return v.level, v.pos

    assert [key(v) for v in sorted(vs)] == [key(r) for r in sorted(refs)]
    assert [key(v) for v in set(vs)] == [key(r) for r in set(refs)]


def test_vertex_is_not_a_tuple():
    assert Vertex(1, 1) != (1, 1)
    assert (1, 1) != Vertex(1, 1)
    assert Vertex(1, 1) != RefVertex(1, 1)
    with pytest.raises(TypeError):
        Vertex(1, 1) < (1, 2)


RECORDS = {
    "PsiSequence": lambda: PsiSequence("fibonacci", fib),
    "Vertex": lambda: Vertex(3, 2),
    "CobwebTruncation": lambda: truncate(2),
    "CobwebCopy": lambda: CobwebCopy(Vertex(2, 1), ((Vertex(3, 2),), (Vertex(4, 1),))),
    "ChainCountReport": lambda: chain_count_report(2, 5),
    "K1DegeneracyReport": lambda: check_k1_degeneracy(4),
    "WeightVector": lambda: WeightVector((1, 2, 2)),
    "FencePoset": lambda: FencePoset(4, up_first=False),
}


def reference(record):
    """The frozen dataclass the record was, holding the same values."""
    names = type(record).__slots__
    ref = dataclasses.make_dataclass(type(record).__name__, names, frozen=True)
    return ref(*(getattr(record, name) for name in names))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_read_and_freeze_as_frozen_dataclasses(name):
    record = RECORDS[name]()
    ref = reference(record)
    assert type(record).__name__ == name
    assert repr(record) == repr(ref)
    assert hash(record) == hash(ref) == hash(tuple(getattr(record, f) for f in type(record).__slots__))
    assert record == RECORDS[name]() == copy.copy(record) == copy.deepcopy(record)
    assert record == pickle.loads(pickle.dumps(record))
    assert record != ref
    for field in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


def test_record_defaults_and_the_mutable_config():
    assert FencePoset(4) == FencePoset(4, True) != FencePoset(4, False)
    assert repr(FencePoset(3)) == "FencePoset(n=3, up_first=True)"
    cfg = CrosscheckConfig()
    assert repr(cfg) == "CrosscheckConfig(max_n=10, oracle_max_n=7)"
    assert cfg == CrosscheckConfig(10, 7) == CrosscheckConfig(oracle_max_n=7)
    cfg.oracle_max_n = 3  # the config stays mutable and, like a mutable dataclass, unhashable
    assert cfg == CrosscheckConfig(10, 3)
    with pytest.raises(TypeError):
        hash(cfg)
    assert FIBONACCI(10) == 55 and FIBONACCI.name == "fibonacci"


@pytest.mark.parametrize("build, message", [
    (lambda: Vertex(-1, 1), "level must be >= 0, got -1"),
    (lambda: Vertex(2, 2), "pos must be in 1..1 at level 2, got 2"),
    (lambda: Vertex(3, 0), "pos must be in 1..2 at level 3, got 0"),
    (lambda: CobwebCopy(Vertex(2, 1), ((Vertex(4, 1),),)), "subset 1 must live on level 3"),
    (lambda: CobwebCopy(Vertex(2, 1), ((Vertex(3, 1), Vertex(3, 2)),)), "subset 1 must hold 1 distinct vertices"),
    (lambda: CobwebCopy(Vertex(2, 1), ((Vertex(3, 1),), (Vertex(4, 1),) * 2)), "subset 2 must hold 1 distinct vertices"),
    (lambda: WeightVector((2, 1)), "weights must be nondecreasing, got (2, 1)"),
    (lambda: WeightVector((0, 1)), "weights must be >= 1, got (0, 1)"),
    (lambda: WeightVector([1, "3", 2]), "weights must be nondecreasing, got (1, 3, 2)"),
    (lambda: FencePoset(0), "fence needs n >= 1, got 0"),
    (lambda: CrosscheckConfig(0), "bounds must be >= 1"),
    (lambda: CrosscheckConfig(5, 6), "oracle_max_n (6) must not exceed max_n (5)"),
    (lambda: CrosscheckConfig(101), "max_n is bounded by 100, got 101"),
    (lambda: CrosscheckConfig(9, 9), "oracle_max_n (9) exceeds the DFS oracle bound (8)"),
], ids=lambda x: None if callable(x) else x)
def test_invalid_records_raise_the_same_errors(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_weight_vector_normalizes_its_entries():
    w = WeightVector(["1", 2, 2.0])
    assert w.weights == (1, 2, 2) and list(w) == [1, 2, 2] and len(w) == 3 and w[0] == 1
    assert repr(w) == "WeightVector(weights=(1, 2, 2))"
