import json
import math
import random

import numpy as np
import pytest

from chainrad.scales import (
    ANGSTROM,
    MAX_ATOMS,
    ChainConfig,
    ConfigError,
    config_from_dict,
    config_to_dict,
    derive_scales,
    read_config_dict,
)


def make_config(**overrides):
    base = dict(
        n_atoms=2,
        lattice_const_angstrom=1000.0,
        transition_energy_ev=1.0,
        dipole_e_angstrom=1.0,
        polarization_deg=0.0,
    )
    base.update(overrides)
    return ChainConfig(**base)


#: The ChainConfig field, which is also its JSON key, of each quantity
#: that the parametrized cases below name.
KEY = {
    "n_atoms": "n_atoms",
    "lattice_const": "lattice_const_angstrom",
    "transition_energy": "transition_energy_ev",
    "dipole_moment": "dipole_e_angstrom",
    "polarization_angle": "polarization_deg",
    "gamma_override": "gamma_override_hz",
}


class TestDeriveScales:
    def test_one_ev_wavelength(self):
        scales = derive_scales(make_config())
        # quoted as roughly 12405 A; CODATA hc/E gives 12398.4 A
        assert scales.lambda_a / ANGSTROM == pytest.approx(12405, rel=1e-3)

    def test_one_ev_separation(self):
        assert derive_scales(make_config()).qa_a == pytest.approx(0.5, abs=0.01)
        assert make_config().lattice_const_angstrom * ANGSTROM / derive_scales(
            make_config()
        ).lambda_a == pytest.approx(0.08, abs=0.01)

    def test_qa_a_is_the_product_of_the_si_values(self):
        rng = random.Random(15)
        for _ in range(200):
            config = make_config(
                lattice_const_angstrom=10.0 ** rng.uniform(-3.0, 8.0),
                transition_energy_ev=10.0 ** rng.uniform(-2.0, 2.0),
            )
            scales = derive_scales(config)
            # bitwise, in this parenthesization
            assert scales.qa_a == scales.q_a * (
                config.lattice_const_angstrom * ANGSTROM
            )

    def test_gamma_one_ev_one_e_angstrom(self):
        # frozen from direct SI evaluation of the radiative-rate formula
        scales = derive_scales(make_config())
        assert scales.gamma_a == pytest.approx(3796342.2475263146, rel=1e-12)
        assert scales.gamma_a == pytest.approx(3.8e6, rel=0.01)

    def test_q_lambda_product(self):
        scales = derive_scales(make_config(transition_energy_ev=2.7))
        assert scales.q_a * scales.lambda_a == pytest.approx(2 * math.pi, rel=1e-12)

    def test_energy_linearity_of_q(self):
        q1 = derive_scales(make_config(transition_energy_ev=1.0)).qa_a
        q2 = derive_scales(make_config(transition_energy_ev=2.0)).qa_a
        assert q2 == pytest.approx(2 * q1, rel=1e-12)
        assert q2 == pytest.approx(1.0, abs=0.02)

    def test_gamma_cubic_in_energy(self):
        g1 = derive_scales(make_config(transition_energy_ev=1.0)).gamma_a
        g2 = derive_scales(make_config(transition_energy_ev=2.0)).gamma_a
        assert g2 / g1 == pytest.approx(8.0, rel=1e-12)

    def test_gamma_quadratic_in_dipole(self):
        g1 = derive_scales(make_config(dipole_e_angstrom=1.0)).gamma_a
        g3 = derive_scales(make_config(dipole_e_angstrom=3.0)).gamma_a
        assert g3 / g1 == pytest.approx(9.0, rel=1e-12)

    def test_override_replaces_rate(self):
        scales = derive_scales(make_config(gamma_override_hz=1e8))
        assert scales.gamma_a == 1e8

    def test_override_with_derived_value_is_noop(self):
        plain = derive_scales(make_config())
        forced = derive_scales(make_config(gamma_override_hz=plain.gamma_a))
        assert forced.gamma_a == plain.gamma_a
        assert forced.omega_a == plain.omega_a
        assert forced.q_a == plain.q_a
        assert forced.lambda_a == plain.lambda_a
        assert forced.qa_a == plain.qa_a

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(transition_energy_ev=1e300),  # omega_a overflows
            dict(transition_energy_ev=1e150),  # omega_a^3 overflows
            dict(dipole_e_angstrom=1e200),  # mu^2 overflows
            dict(transition_energy_ev=1e-300),  # gamma_a underflows to 0
            dict(transition_energy_ev=1e-310),  # omega_a, q_a underflow to 0
            # q_a a overflows (a = 1e298 m)
            dict(transition_energy_ev=1e10, lattice_const_angstrom=1e308),
        ],
    )
    def test_out_of_range_derived_scale_rejected(self, overrides):
        with pytest.raises(ConfigError, match="derived scale"):
            derive_scales(make_config(**overrides))


class TestChainConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_atoms", 0),
            ("lattice_const", 0.0),
            ("lattice_const", -1.0),
            ("transition_energy", 0.0),
            ("dipole_moment", -2.0),
            ("gamma_override", 0.0),
            ("lattice_const", math.inf),
            ("transition_energy", math.nan),
            ("dipole_moment", math.inf),
            ("polarization_angle", math.nan),
            ("polarization_angle", -math.inf),
            ("gamma_override", math.inf),
            ("n_atoms", 10_001),
            # a bool is not a number, and a fraction is not a chain length
            ("n_atoms", 2.7),
            ("n_atoms", True),
            ("lattice_const", True),
            ("transition_energy", True),
            ("dipole_moment", True),
            ("polarization_angle", False),
            ("gamma_override", True),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        key = KEY[field]
        with pytest.raises(ConfigError, match=f"^{key} "):
            make_config(**{key: value})

    @pytest.mark.parametrize(
        "value", [None, [1.0], {"value": 1.0}, "1", 10**400],
        ids=["None", "list", "dict", "str", "int_over_float_range"],
    )
    @pytest.mark.parametrize("key", ChainConfig._fields)
    def test_non_numbers_and_huge_ints_rejected(self, key, value):
        if key == "gamma_override_hz" and value is None:  # its default
            assert make_config(**{key: value}).gamma_override_hz is None
            return
        with pytest.raises(ConfigError, match=f"^{key} "):
            make_config(**{key: value})

    def test_whole_float_chain_length_is_an_int(self):
        config = make_config(n_atoms=3.0)
        assert config.n_atoms == 3 and type(config.n_atoms) is int

    def test_numpy_scalars_are_numbers(self):
        config = make_config(
            n_atoms=np.int64(3), lattice_const_angstrom=np.float32(1000)
        )
        assert config == make_config(n_atoms=3, lattice_const_angstrom=1000.0)
        assert type(config.n_atoms) is int
        assert type(config.lattice_const_angstrom) is float

    def test_fields_are_the_json_keys_with_floats(self):
        config = ChainConfig(4, 1234, 3, 2, 17, 1000000000000)
        assert ChainConfig._fields == (
            "n_atoms", "lattice_const_angstrom", "transition_energy_ev",
            "dipole_e_angstrom", "polarization_deg", "gamma_override_hz",
        )
        values = tuple(config)
        assert values == (4, 1234.0, 3.0, 2.0, 17.0, 1e12)
        assert [type(v) for v in values] == [int] + [float] * 5

    def test_longest_chain_accepted(self):
        assert MAX_ATOMS == 10_000
        assert make_config(n_atoms=10_000).n_atoms == 10_000

    @pytest.mark.parametrize(
        "angle,folded",
        [
            (0.0, 0.0),
            (math.pi / 3, math.pi / 3),
            (2 * math.pi / 3, math.pi / 3),
            (math.pi, 0.0),
            (-math.pi / 4, math.pi / 4),
        ],
    )
    def test_polarization_angle_folded(self, angle, folded):
        # the cases are in radians; the field is in degrees
        config = make_config(polarization_deg=math.degrees(angle))
        assert math.radians(config.polarization_deg) == pytest.approx(folded, abs=1e-15)

    @pytest.mark.parametrize(
        "degrees,folded",
        [(135, 45.0), (-30, 30.0), (90, 90.0), (180, 0.0), (400.5, 40.5),
         (1e20, 80.0), (-30.1, 30.1), (-180, 0.0), (-1e-300, 1e-300)],
    )
    def test_degree_fold_is_exact(self, degrees, folded):
        # fmod and abs are exact, so an angle and its negative fold to the
        # same bits in [0, 90], and no angle folds to -0.0
        phi = make_config(polarization_deg=degrees).polarization_deg
        assert phi == folded and math.copysign(1.0, phi) == 1.0


class TestJsonInterface:
    DATA = {
        "n_atoms": 5,
        "lattice_const_angstrom": 2500.0,
        "transition_energy_ev": 1.5,
        "dipole_e_angstrom": 2.0,
        "polarization_deg": 30.0,
        "gamma_override_hz": 1e8,
    }

    def test_round_trip_angstrom_exact(self):
        config = config_from_dict(self.DATA)
        assert config_to_dict(config)["lattice_const_angstrom"] == pytest.approx(
            2500.0, rel=1e-12
        )

    def test_degrees_to_radians(self):
        config = config_from_dict(self.DATA)
        assert config.polarization_deg == 30.0
        assert math.radians(config.polarization_deg) == pytest.approx(
            math.pi / 6, rel=1e-12
        )

    def test_round_trip_is_the_identity(self):
        assert config_to_dict(config_from_dict(self.DATA)) == self.DATA
        no_override = {k: v for k, v in self.DATA.items() if k != "gamma_override_hz"}
        assert config_to_dict(config_from_dict(no_override)) == no_override

    def test_file_loading(self, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(self.DATA))
        config = config_from_dict(read_config_dict(path))
        assert config.n_atoms == 5
        assert config.gamma_override_hz == 1e8

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict(dict(self.DATA, bogus=1))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_atoms", 2.7),
            ("n_atoms", True),
            ("n_atoms", False),
            ("lattice_const_angstrom", True),
            ("transition_energy_ev", True),
            ("dipole_e_angstrom", True),
            ("polarization_deg", True),
            ("gamma_override_hz", False),
        ],
    )
    def test_bool_or_fractional_value_rejected(self, key, value):
        # int() would truncate 2.7 to 2, and float() take true as 1
        with pytest.raises(ConfigError, match=key):
            config_from_dict(dict(self.DATA, **{key: value}))

    @pytest.mark.parametrize("value", [3, 3.0, "3"])
    def test_whole_chain_length_accepted(self, value):
        assert config_from_dict(dict(self.DATA, n_atoms=value)).n_atoms == 3

    @pytest.mark.parametrize("text", ["", "three", "1,5", "0x10"])
    def test_unreadable_string_names_its_key(self, text):
        with pytest.raises(ConfigError, match="^dipole_e_angstrom must be a number"):
            config_from_dict(dict(self.DATA, dipole_e_angstrom=text))

    def test_missing_key_rejected(self):
        data = dict(self.DATA)
        del data["n_atoms"]
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            config_from_dict(read_config_dict(path))
