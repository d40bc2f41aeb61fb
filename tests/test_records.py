"""The immutable records (chainrad.frozen.Frozen subclasses) and SweepTable."""

import copy
import math
import pickle

import pytest

from chainrad.damping import DampingResult
from chainrad.emission import IntensityTrace
from chainrad.frozen import Frozen
from chainrad.scales import AtomicScales, ChainConfig, ConfigError
from chainrad.states import SignState, symmetric_state
from chainrad.sweeps import SweepTable


def make_records():
    return [
        ChainConfig(
            n_atoms=3, lattice_const_angstrom=1000.0, transition_energy_ev=1.0,
            dipole_e_angstrom=1.0, polarization_deg=17.2,
        ),
        AtomicScales(omega_a=1.5e15, q_a=5e6, lambda_a=1.2e-6, gamma_a=3.8e6, qa_a=0.5),
        SignState(coeffs=(1, -1, 1)),
        DampingResult(
            rate_ratio=0.5, method="closed_form", state=symmetric_state(2), x=0.5,
            phi=0.0,
        ),
    ]


@pytest.mark.parametrize("record", make_records(), ids=lambda r: type(r).__name__)
class TestFrozen:
    def test_fields_cannot_be_set_or_deleted(self, record):
        name = type(record).__slots__[0]
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.new_field = 1
        assert getattr(record, name) == before

    def test_equal_records_hash_alike(self, record):
        twin = type(record)(*record._values())
        assert twin == record and hash(twin) == hash(record)
        assert twin is not record

    def test_copy_and_pickle_round_trip(self, record):
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert clone == record and type(clone) is type(record)

    def test_repr_names_every_field(self, record):
        text = repr(record)
        assert text.startswith(type(record).__name__ + "(")
        for name in type(record).__slots__:
            assert f"{name}=" in text


class TestSignState:
    def test_equality_and_hash(self):
        a, b = SignState((1, -1, 1)), SignState(coeffs=(1, -1, 1))
        assert a == b and hash(a) == hash(b)
        assert a != SignState((1, 1, -1))
        assert a != (1, -1, 1)
        assert len({a, b, SignState((-1, 1, -1))}) == 2
        assert {a: "x"}[b] == "x"

    def test_n_and_str(self):
        assert SignState((1, -1, -1, 1)).n == 4
        assert str(SignState((1, -1, -1, 1))) == "+--+"


class TestChainConfig:
    BASE = dict(
        n_atoms=2, lattice_const_angstrom=1000.0, transition_energy_ev=1.0,
        dipole_e_angstrom=1.0,
    )

    def test_positional_and_keyword_construction_agree(self):
        assert ChainConfig(2, 1000.0, 1.0, 1.0) == ChainConfig(**self.BASE)
        assert ChainConfig(2, 1000.0, 1.0, 1.0).gamma_override_hz is None

    @pytest.mark.parametrize(
        "angle,folded",
        [
            (3 * math.pi / 2, math.pi / 2),
            (-2 * math.pi / 3, math.pi / 3),
            (5 * math.pi / 4, math.pi / 4),
            (math.pi / 2, math.pi / 2),
        ],
    )
    def test_polarization_fold(self, angle, folded):
        # the cases are in radians; the field is in degrees
        config = ChainConfig(**self.BASE, polarization_deg=math.degrees(angle))
        assert math.radians(config.polarization_deg) == pytest.approx(folded, abs=1e-15)
        assert 0.0 <= config.polarization_deg <= 90.0

    def test_validation_message_names_the_field(self):
        with pytest.raises(ConfigError, match="^dipole_e_angstrom must be finite"):
            ChainConfig(**dict(self.BASE, dipole_e_angstrom=math.inf))
        with pytest.raises(ConfigError, match="^lattice_const_angstrom must be > 0"):
            ChainConfig(**dict(self.BASE, lattice_const_angstrom=-1.0))


class TestEmissionRecords:
    def test_frozen_with_named_fields(self):
        table = SweepTable(columns=["x"], rows=[(1.0,)])
        trace = IntensityTrace(table=table, reference_intensity=2.5)
        assert isinstance(trace, Frozen)
        assert (trace.table, trace.reference_intensity) == (table, 2.5)
        assert trace == IntensityTrace(table, 2.5)
        with pytest.raises(AttributeError):
            trace.table = None
        with pytest.raises(AttributeError):
            trace.new_field = 1


class TestSweepTable:
    def test_defaults_are_fresh_per_table(self):
        a = SweepTable(columns=["x"], rows=[(1.0,)])
        b = SweepTable(["x"], [(2.0,)])
        a.metadata["k"] = "v"
        a.footer.append("end")
        assert b.metadata == {} and b.footer == []

    def test_row_width_checked(self):
        with pytest.raises(ValueError, match="row width"):
            SweepTable(columns=["x", "y"], rows=[(1.0,)])

    def test_rows_are_read_once(self):
        # a generator is checked and written from one list; the width
        # check used to use it up, leaving a table with no rows
        rows = [(1.0, 2.0), (3.0, 4.0)]
        table = SweepTable(["x", "y"], (row for row in rows))
        assert table.rows == rows
        assert table.to_csv() == "x,y\n1,2\n3,4\n"
        with pytest.raises(ValueError, match="row width"):
            SweepTable(["x", "y"], (row for row in [(1.0, 2.0), (3.0,)]))
        # a list is kept as given, not copied
        assert SweepTable(["x", "y"], rows).rows is rows

    def test_csv_layout(self):
        table = SweepTable(
            columns=["x", "y"], rows=[(1, 0.5)], metadata={"b": 2, "a": 1},
            footer=["done"],
        )
        assert table.to_csv() == "# a=1\n# b=2\nx,y\n1,0.5\n# done\n"
