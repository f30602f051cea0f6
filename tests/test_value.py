"""The value classes: equality, hashing, repr, immutability and replace.

Every prekem.value.Value subclass in the package gets one example below;
each test runs over all of them.  The reprs pinned literally are the ones
the classes printed before they moved onto the shared base.
"""

import inspect
from fractions import Fraction

import pytest

from prekem import combiner, dem, games, gf2, hybrid, ikem, source, uhash
from prekem.errors import MalformedError
from prekem.value import Value

NOISY8 = source.bsc_source(Fraction(1, 4), Fraction(1, 2), 8)
KEM8 = ikem.IkemParams(ikem.Mode.CEA, NOISY8, 8, 2, 8, 2.5, 0, 8, 0.5, 0, 0)
CT = ikem.IkemCiphertext(3, 7, None)

EXAMPLES = {
    gf2.FieldCtx: (8,),
    uhash.ExtractorSeed: (5, 8, 4),
    uhash.ReconSeed: (5, 8, 3),
    uhash.PaddedSeedVector: ((1, 2), 4, 8),
    source.SourceSpec: (1, 1, 1, 3, (Fraction(1),)),
    source.SampleTriple: ((0, 1), (1, 1), (0, 0)),
    source.ReconSet: ((0, 1), 2.5, ((0, 1), (1, 1))),
    ikem.IkemParams: (ikem.Mode.CEA, NOISY8, 8, 2, 8, 2.5, 0, 8, 0.5, 0, 0),
    ikem.IkemKey: (5, 8),
    ikem.IkemCiphertext: (3, 7, None),
    ikem.IkemInstance: ((0, 1), (0, 1), (1, 1), 9),
    dem.DemProfile: (8, 8),
    dem.DemCiphertext: (b"ab", 5),
    hybrid.HybridScheme: (KEM8, dem.DemProfile(8, 8)),
    hybrid.HybridCiphertext: (CT, dem.DemCiphertext(b"ab", None)),
    combiner.ItPrfKey: ((1, 2), 8),
    combiner.CompPrfKey: (bytes(range(32)),),
    combiner.CombinedCiphertext: (b"c1", b"c2"),
    games.GameConfig: ("cea", 10, 1, 0, 3, KEM8),
    games.AdvantageReport: ("pkind", "cea", 0.1, 0.05, 0.2, 100, 0.5, 0.4),
    games.EveView: ((0, 1), 9, (1, 1)),
    games.ForgeryResult: (CT, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4),
                          "guess-x", (0, 1)),
    games.PrfFamily: ("prf-it", 8, len, max),
}
CLASSES = list(EXAMPLES)
# arguments for the classes whose examples pass one object to two fields,
# where a swap of those two would not show
DISTINCT = {
    source.SourceSpec: (1, 2, 3, 4, (Fraction(1, 6),) * 6,
                        (Fraction(1, 4), Fraction(1, 2))),
    ikem.IkemParams: (ikem.Mode.BASELINE, NOISY8, 8, 2, 4, 2.5, 0, 12, 0.5,
                      1, 5, 0.25, 0.125),
    ikem.IkemInstance: ((0, 1), (1, 0), (1, 1), 9),
    dem.DemProfile: (16, 8),
    games.GameConfig: ("cea", 10, 1, 2, 3, KEM8, dem.DemProfile(8, 8),
                       (0,) * 8, True),
}


def build(cls):
    return cls(*EXAMPLES[cls])


def fields(obj):
    return tuple(getattr(obj, name) for name in obj._fields)


def test_every_value_class_has_an_example():
    found = {cls for cls in Value.__subclasses__()
             if cls.__module__.startswith("prekem.")}
    assert found == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestValueClass:
    def test_equal_fields_equal_objects(self, cls):
        a, b = build(cls), build(cls)
        assert a is not b
        assert a == b and not a != b
        # the hash the generated dataclass method gave: the field tuple's
        assert hash(a) == hash(b) == hash(fields(a))
        assert {a: 1}[b] == 1

    def test_other_class_same_fields_unequal(self, cls):
        twin = type("Twin", (cls,), {})(*EXAMPLES[cls])
        a = build(cls)
        assert fields(twin) == fields(a)
        assert a != twin and twin != a
        assert a != fields(a)

    def test_repr_lists_every_field(self, cls):
        a = build(cls)
        shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in a._fields)
        assert repr(a) == f"{cls.__name__}({shown})"

    def test_fields_cannot_be_set_or_deleted(self, cls):
        a = build(cls)
        for name in a._fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(a, name))
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert fields(a) == fields(build(cls))

    def test_replace_nothing_is_an_equal_copy(self, cls):
        a = build(cls)
        assert a.replace() == a and a.replace() is not a


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_read_back_their_arguments(cls):
    bound = inspect.signature(cls).bind(*DISTINCT.get(cls, EXAMPLES[cls]))
    bound.apply_defaults()
    given = {name: value for name, value in bound.arguments.items()
             if name in cls._fields}
    # one object per field, so that a swapped argument reads back wrong
    assert len({id(value) for value in given.values()}) == len(given)
    obj = cls(*bound.args)
    for name, value in given.items():
        assert getattr(obj, name) is value, name


def test_replace_runs_the_checks_again():
    assert ikem.IkemKey(5, 8).replace(bits=255) == ikem.IkemKey(255, 8)
    with pytest.raises(MalformedError, match="key outside"):
        ikem.IkemKey(5, 8).replace(bits=256)
    with pytest.raises(MalformedError, match="mac_bits"):
        dem.DemProfile().replace(mac_bits=12)
    with pytest.raises(MalformedError, match="CCA mode needs w"):
        KEM8.replace(mode=ikem.Mode.CCA, w=9)


def test_replace_recomputes_derived_fields():
    scheme = build(hybrid.HybridScheme)
    assert scheme.otcca is False
    with pytest.raises(TypeError):
        scheme.replace(otcca=True)
    assert scheme.replace(dem=dem.DemProfile(8, 16)).dem.mac_bits == 16


def test_defaults():
    assert dem.DemProfile() == dem.DemProfile(256, 128)
    assert games.EveView((0, 1), None).x is None
    assert source.SourceSpec(1, 1, 1, 3, (Fraction(1),)).bsc is None
    config = games.GameConfig("ot", 5)
    assert (config.q_e, config.q_d, config.seed, config.params, config.dem,
            config.target, config.leak) == (0, 0, 0, None, None, None, False)
    assert ikem.IkemParams(*EXAMPLES[ikem.IkemParams]).eps is None


def test_pinned_reprs():
    assert repr(ikem.IkemKey(5, 8)) == "IkemKey(bits=5, ell=8)"
    assert repr(dem.DemProfile()) == "DemProfile(enc_len=256, mac_bits=128)"
    assert repr(build(hybrid.HybridScheme)) == (
        "HybridScheme(kem=IkemParams(mode=<Mode.CEA: 1>, source=SourceSpec("
        "nx=2, ny=2, nz=2, n=8, table=(Fraction(3, 16), Fraction(3, 16), "
        "Fraction(1, 16), Fraction(1, 16), Fraction(1, 16), Fraction(1, 16), "
        "Fraction(3, 16), Fraction(3, 16)), bsc=(Fraction(1, 4), "
        "Fraction(1, 2))), n=8, t=2, ell=8, nu=2.5, r=0, w=8, sigma=0.5, "
        "q_e=0, q_d=0, eps=None, delta=None), dem=DemProfile(enc_len=8, "
        "mac_bits=8), otcca=False)")


def test_field_ctx_methods_can_be_patched(monkeypatch):
    # bench/spans.py wraps FieldCtx.mul and FieldCtx.pow on the class
    calls = []
    mul = gf2.FieldCtx.mul

    def counted(self, a, b):
        calls.append((a, b))
        return mul(self, a, b)

    monkeypatch.setattr(gf2.FieldCtx, "mul", counted)
    assert gf2.field(8).mul(3, 7) == 9
    assert calls == [(3, 7)]
