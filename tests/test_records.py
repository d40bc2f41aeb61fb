"""The immutable records (standard-library named tuples) and SweepTable."""

import copy
import math
import pickle

import pytest

from chainrad.damping import DampingResult
from chainrad.emission import IntensityTrace
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
        name = type(record)._fields[0]
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.new_field = 1
        assert getattr(record, name) == before

    def test_equal_records_hash_alike(self, record):
        twin = type(record)(*tuple(record))
        assert twin == record and hash(twin) == hash(record)
        assert twin is not record

    def test_copy_and_pickle_round_trip(self, record):
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert clone == record and type(clone) is type(record)

    def test_repr_names_every_field(self, record):
        text = repr(record)
        assert text.startswith(type(record).__name__ + "(")
        for name in type(record)._fields:
            assert f"{name}=" in text


@pytest.mark.parametrize(
    "cls, good, bad, error, message",
    [
        (ChainConfig, (2, 1e3, 1.0, 1.0), {"n_atoms": 0}, ConfigError, "^n_atoms "),
        (ChainConfig, (2, 1e3, 1.0, 1.0), {"dipole_e_angstrom": math.inf},
         ConfigError, "^dipole_e_angstrom "),
        (SignState, ((1, -1),), {"coeffs": (5, 7)}, ValueError, "^coefficients "),
        (SignState, ((1, -1),), {"coeffs": ()}, ValueError, "^state needs "),
    ],
    ids=["config_n_atoms", "config_dipole", "state_signs", "state_empty"],
)
class TestEveryConstructorChecks:
    """The records with checks refuse a bad value however they are built.
    namedtuple's own _make, which _replace calls, would skip them, and copy
    and pickle must refuse a record built past them by tuple.__new__."""

    def test_call_keyword_make_and_replace_refuse(self, cls, good, bad, error, message):
        values = dict(zip(cls._fields, cls(*good)), **bad)
        for build in (
            lambda: cls(*values.values()),
            lambda: cls(**values),
            lambda: cls._make(values.values()),
            lambda: cls(*good)._replace(**bad),
        ):
            with pytest.raises(error, match=message):
                build()

    def test_copy_and_pickle_refuse_a_record_that_skipped_the_checks(
        self, cls, good, bad, error, message
    ):
        values = dict(zip(cls._fields, cls(*good)), **bad)
        unchecked = tuple.__new__(cls, values.values())
        for rebuild in (
            copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))
        ):
            with pytest.raises(error, match=message):
                rebuild(unchecked)
            assert rebuild(cls(*good)) == cls(*good)


class TestConstructorPathsNormalize:
    def test_make_and_replace_store_what_a_call_stores(self):
        config = ChainConfig(2, 1e3, 1.0, 1.0)
        folded = config._replace(n_atoms=3.0, polarization_deg=-30)
        assert folded == ChainConfig(3, 1e3, 1.0, 1.0, 30.0)
        assert type(folded.n_atoms) is int and type(folded) is ChainConfig
        state = SignState._make([(1.0, -1.0, True)])
        assert state == SignState((1, -1, 1))
        assert [type(c) for c in state.coeffs] == [int, int, int]


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
