"""The contract of the package's eleven frozen value classes: what
`dataclasses` reads off them, their text, equality, hash and pickles, and
that no attribute of a built value can be set or deleted."""

import dataclasses
import pickle
from typing import Any, NamedTuple

import pytest

from fieldflower.codes import LinearCode
from fieldflower.flowergeom import ConstellationPoint, FlowerShape
from fieldflower.gfield import FieldElement, Word
from fieldflower.modlinalg import MatrixOverGfp, RrefResult, rref
from fieldflower.ntt import EigenSpace, Transform
from fieldflower.render import RenderSpec
from fieldflower.verify import CheckResult

MISSING = dataclasses.MISSING


class Case(NamedTuple):
    value: Any
    fields: list  # (name, default) in field order
    text: str  # repr, as the dataclass-built classes wrote it
    as_dict: dict
    as_tuple: tuple
    good: tuple  # a change that builds again, and the value it builds
    bad: tuple | None  # a change the class refuses, and its message

    @property
    def names(self):
        return tuple(name for name, _ in self.fields)


def required(*names):
    return [(name, MISSING) for name in names]


POINT = ConstellationPoint(0, 1, 0.0, 1.0, 0.0)
POINT_DICT = {"index": 0, "radius": 1, "angle": 0.0, "x": 1.0, "y": 0.0}
SPEC_FIELDS = [("canvas", 240.0), ("radius_scale", 40.0), ("stroke_width", 1.5),
               ("light_color", "9ECAE1"), ("dark_color", "2171B5"),
               ("marker_radius", 5.0), ("grid", True), ("label", False)]

CASES = [
    Case(FieldElement(4, 7), required("value", "modulus"), "FieldElement(4 mod 7)",
         {"value": 4, "modulus": 7}, (4, 7), ({"value": 5}, FieldElement(5, 7)),
         ({"value": 7}, r"^value 7 at position 0 out of range for GF\(7\)")),
    Case(Word(3, (0, 2, 1)), required("modulus", "symbols"), "Word('021' over GF(3))",
         {"modulus": 3, "symbols": (0, 2, 1)}, (3, (0, 2, 1)),
         ({"symbols": (1, 1)}, Word(3, (1, 1))),
         ({"symbols": ()}, "^a word must have at least one symbol$")),
    Case(MatrixOverGfp(3, ((1, 2), (2, 1))), required("modulus", "entries"),
         "MatrixOverGfp(2x2 over GF(3))",
         {"modulus": 3, "entries": ((1, 2), (2, 1))}, (3, ((1, 2), (2, 1))),
         ({"modulus": 5}, MatrixOverGfp(5, ((1, 2), (2, 1)))),
         ({"entries": ((1, 2), (0,))}, "^row 1 has 1 entries, expected 2$")),
    Case(rref(MatrixOverGfp(3, ((1, 2), (2, 1)))), required("rref", "rank", "pivot_columns"),
         "RrefResult(rref=MatrixOverGfp(2x2 over GF(3)), rank=1, pivot_columns=(0,))",
         {"rref": {"modulus": 3, "entries": ((1, 2), (0, 0))}, "rank": 1,
          "pivot_columns": (0,)}, ((3, ((1, 2), (0, 0))), 1, (0,)),
         ({"rank": 2}, RrefResult(MatrixOverGfp(3, ((1, 2), (0, 0))), 2, (0,))), None),
    Case(Transform("swap", MatrixOverGfp(2, ((0, 1), (1, 0)))), required("name", "matrix"),
         "Transform(name='swap', matrix=MatrixOverGfp(2x2 over GF(2)))",
         {"name": "swap", "matrix": {"modulus": 2, "entries": ((0, 1), (1, 0))}},
         ("swap", (2, ((0, 1), (1, 0)))),
         ({"name": "other"}, Transform("other", MatrixOverGfp(2, ((0, 1), (1, 0))))), None),
    Case(EigenSpace(FieldElement(1, 2), (Word(2, (1, 1)),)), required("eigenvalue", "basis"),
         "EigenSpace(eigenvalue=FieldElement(1 mod 2), basis=(Word('11' over GF(2)),))",
         {"eigenvalue": {"value": 1, "modulus": 2},
          "basis": ({"modulus": 2, "symbols": (1, 1)},)}, ((1, 2), ((2, (1, 1)),)),
         ({"basis": ()}, EigenSpace(FieldElement(1, 2), ())), None),
    Case(LinearCode(MatrixOverGfp(2, ((1, 1, 0), (0, 1, 1)))), required("generator"),
         "LinearCode(generator=MatrixOverGfp(2x3 over GF(2)))",
         {"generator": {"modulus": 2, "entries": ((1, 1, 0), (0, 1, 1))}},
         ((2, ((1, 1, 0), (0, 1, 1))),),
         ({"generator": MatrixOverGfp(2, ((1, 1, 1),))},
          LinearCode(MatrixOverGfp(2, ((1, 1, 1),)))),
         ({"generator": MatrixOverGfp(2, ((1, 1, 0), (1, 1, 0)))},
          "^generator rows are linearly dependent$")),
    Case(ConstellationPoint(1, 2, 1.5, -0.25, 2.0), required("index", "radius", "angle", "x", "y"),
         "ConstellationPoint(index=1, radius=2, angle=1.5, x=-0.25, y=2.0)",
         {"index": 1, "radius": 2, "angle": 1.5, "x": -0.25, "y": 2.0}, (1, 2, 1.5, -0.25, 2.0),
         ({"y": -2.0}, ConstellationPoint(1, 2, 1.5, -0.25, -2.0)), None),
    Case(FlowerShape(Word(2, (1,)), (POINT,), (), (0,)),
         required("word", "points", "petals", "thorns"),
         "FlowerShape(word=Word('1' over GF(2)), points=(ConstellationPoint(index=0, radius=1, "
         "angle=0.0, x=1.0, y=0.0),), petals=(), thorns=(0,))",
         {"word": {"modulus": 2, "symbols": (1,)}, "points": (POINT_DICT,), "petals": (),
          "thorns": (0,)}, ((2, (1,)), ((0, 1, 0.0, 1.0, 0.0),), (), (0,)),
         ({"thorns": ()}, FlowerShape(Word(2, (1,)), (POINT,), (), ())), None),
    Case(RenderSpec(), SPEC_FIELDS,
         "RenderSpec(canvas=240.0, radius_scale=40.0, stroke_width=1.5, light_color='9ECAE1', "
         "dark_color='2171B5', marker_radius=5.0, grid=True, label=False)",
         dict(SPEC_FIELDS), tuple(default for _, default in SPEC_FIELDS),
         ({"light_color": "#abcdef"}, RenderSpec(light_color="ABCDEF")),
         ({"canvas": 0}, "^canvas must be positive and at most 10000, got 0$")),
    Case(CheckResult("sha", True, "ok"), required("name", "passed", "detail"),
         "CheckResult(name='sha', passed=True, detail='ok')",
         {"name": "sha", "passed": True, "detail": "ok"}, ("sha", True, "ok"),
         ({"passed": False}, CheckResult("sha", False, "ok")), None),
]


@pytest.mark.parametrize("case", CASES, ids=lambda case: type(case.value).__name__)
def test_value_class_contract(case):
    value, cls = case.value, type(case.value)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(value)
    assert [(f.name, f.default) for f in dataclasses.fields(cls)] == case.fields
    assert [f.name for f in dataclasses.fields(value)] == list(case.names)
    assert cls.__match_args__ == case.names
    assert repr(value) == case.text
    assert dataclasses.asdict(value) == case.as_dict
    assert dataclasses.astuple(value) == case.as_tuple

    # equal and hashed by fields, and by class: never equal to a tuple
    same = dataclasses.replace(value)
    assert same is not value and same == value and hash(same) == hash(value)
    values = tuple(getattr(value, name) for name in case.names)
    assert hash(value) == hash(values)
    assert value != values and not value == values
    assert value.__eq__(values) is NotImplemented

    # replace builds through the constructor, so it checks again
    change, built = case.good
    other = dataclasses.replace(value, **change)
    assert type(other) is cls and other == built != value
    if case.bad is not None:
        change, message = case.bad
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(value, **change)

    for name in (*case.names, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert value == same and not hasattr(value, "extra")

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol=protocol))
        assert type(back) is cls and back == value and hash(back) == hash(value)
        assert repr(back) == case.text
