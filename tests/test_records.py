import numpy as np
import pytest

from coilfringe.errors import DomainError, ScenarioError
from coilfringe.diffraction import BeamSpec, FringeOrder, FringePattern, GratingScreenSpec
from coilfringe.ideal_field import AnnularCoilIdeal, CoilWindingSpec, WireArraySpec
from coilfringe.report import PaperReport, ReportRow
from coilfringe.scenario import ExperimentScenario, SweepSpec
from coilfringe.winding import Box, HomogeneityReport, Winding

COIL = AnnularCoilIdeal(0.1, 0.12, 1257, 1.0)
BEAM = BeamSpec(30e3, 1e-3)
SCREEN = GratingScreenSpec(2.55e-10, 0.1)
ORDER = FringeOrder(1, 1e-2, 1e-3, 1e-3)
ROW = ReportRow("K", "Eq10", 4.6e-5, 4.6e-5, 0.0, 0.005, False)
SCENARIO = ExperimentScenario(COIL, BEAM, SCREEN)
POINTS = np.zeros((2, 3))

# each record type with the field values of one instance, in field order
RECORDS = [
    (BeamSpec, tuple(BEAM)),
    (GratingScreenSpec, tuple(SCREEN)),
    (FringeOrder, tuple(ORDER)),
    (FringePattern, ((ORDER,), 1e-3, 1e-3, 7e-12, 9.4e-23, True)),
    (WireArraySpec, (0.1, 8, 1.0)),
    (AnnularCoilIdeal, tuple(COIL)),
    (CoilWindingSpec, (0.1, 0.12, 12.0, 2000.0, 2, (1, -1), 1e-3, 1.0)),
    (ReportRow, tuple(ROW)),
    (PaperReport, ((ROW,), "paper")),
    (ExperimentScenario, tuple(SCENARIO)),
    (SweepSpec, ("current", 0.0, 1.0, 0.5, SCENARIO)),
    (Box, ((-0.01, -0.01, -0.01), (0.01, 0.01, 0.01))),
    (Winding, (POINTS[None], 1.0)),
    (HomogeneityReport, ((0.0, 0.0, 1.0), 0.0, 0.0, 1.0, 0.0, POINTS, POINTS, POINTS, (31,))),
]


@pytest.mark.parametrize("cls, values", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_are_immutable_and_built_by_keyword(cls, values):
    record = cls(*values)
    assert cls(**dict(zip(cls._fields, values))) == record
    assert repr(record).startswith(f"{cls.__name__}({cls._fields[0]}=")
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    if not any(isinstance(v, np.ndarray) for v in values):
        assert hash(record) == hash(cls(*values))


WINDING_SPEC = CoilWindingSpec(0.1, 0.12, 12.0, 2000.0, 2, (1, -1), 1e-3, 1.0)
BOX = Box((-0.01, -0.01, -0.01), (0.01, 0.01, 0.01))

# each record whose constructor checks its fields, with a field value it rejects
CHECKED = [
    (BEAM, "U", -1.0, DomainError),
    (SCREEN, "a", 0.0, DomainError),
    (WireArraySpec(0.1, 8, 1.0), "N", 0, DomainError),
    (COIL, "R2", 0.05, DomainError),
    (WINDING_SPEC, "layers", 3, DomainError),
    (SweepSpec("current", 0.0, 1.0, 0.5, SCENARIO), "step", 0.0, ScenarioError),
    (BOX, "hi", (0.01, 0.01, -0.02), DomainError),
]


@pytest.mark.parametrize(
    "record, name, bad, error", CHECKED, ids=[type(r).__name__ for r, *_ in CHECKED]
)
def test_make_and_replace_run_the_construction_checks(record, name, bad, error):
    cls = type(record)
    assert cls._make(record) == record
    assert type(record._replace()) is cls and record._replace() == record
    with pytest.raises(error):
        record._replace(**{name: bad})
    with pytest.raises(error):
        cls._make(bad if field == name else value for field, value in zip(cls._fields, record))


# a field value that each constructor check rejects, with its message
GUARDED = [
    (WINDING_SPEC, "L", 0.0, "coil length L must be positive"),
    (WINDING_SPEC, "turn_density", 0.0, "turn density must be positive"),
    (WINDING_SPEC, "helicity_sign_per_layer", (1, 2), "helicity signs must be +1 or -1"),
    # 2*pi*0.1 m*0.5 /m = 0.31 rounds to no turn
    (WINDING_SPEC, "turn_density", 0.5, "turn count N = round(2*pi*R1*turn_density) must be >= 1"),
    (WireArraySpec(0.1, 8, 1.0), "R", 0.0, "wire array radius R must be positive"),
    (COIL, "N", 0, "turn count N must be >= 1"),
    (BOX, "lo", (-0.01, -0.01), "box corners must be 3-vectors"),
]


@pytest.mark.parametrize(
    "record, name, bad, message",
    GUARDED,
    ids=[f"{type(r).__name__}-{name}={bad!r}" for r, name, bad, _ in GUARDED],
)
def test_each_construction_check_raises_its_message(record, name, bad, message):
    with pytest.raises(DomainError) as exc:
        record._replace(**{name: bad})
    assert str(exc.value) == message


def test_winding_of_one_turn_is_accepted():
    # 2*pi*0.1 m*1.6 /m = 1.005 rounds to one turn
    assert WINDING_SPEC._replace(turn_density=1.6).N == 1
