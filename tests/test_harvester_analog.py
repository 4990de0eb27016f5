"""Analog harvester tests: diode, matching, rectifier, DC-DC."""

import math

import pytest

from repro.errors import CircuitError
from repro.harvester.dcdc import SeikoSz882, TiBq25570, TiBq25570Standalone, _interp
from repro.harvester.diode import SMS7630, THERMAL_VOLTAGE, DiodeParameters
from repro.harvester.matching import (
    LMatchingNetwork,
    RectifierImpedanceModel,
    battery_free_matching,
    battery_recharging_matching,
)
from repro.harvester.rectifier import VoltageDoubler
from repro.mac80211.channels import WIFI_BAND_START_HZ, WIFI_BAND_STOP_HZ


class TestDiode:
    def test_zero_voltage_zero_current(self):
        assert SMS7630.current(0.0) == 0.0

    def test_current_monotone(self):
        assert SMS7630.current(0.2) > SMS7630.current(0.1) > SMS7630.current(0.05)

    def test_forward_drop_inverts_current(self):
        current = SMS7630.current(0.15)
        # forward_drop includes the Rs term, so it is >= the junction value.
        assert SMS7630.forward_drop(current) >= 0.15

    def test_forward_drop_rejects_negative(self):
        with pytest.raises(CircuitError):
            SMS7630.forward_drop(-1e-3)

    def test_zero_bias_resistance(self):
        expected = SMS7630.ideality * THERMAL_VOLTAGE / SMS7630.saturation_current_a
        assert SMS7630.zero_bias_resistance() == pytest.approx(expected)

    def test_zero_bias_resistance_is_kilohms(self):
        # This is why the unloaded rectifier mismatches: multi-kilohm input.
        assert 3000 < SMS7630.zero_bias_resistance() < 10000

    def test_validation(self):
        with pytest.raises(CircuitError):
            DiodeParameters(saturation_current_a=0.0)
        with pytest.raises(CircuitError):
            DiodeParameters(ideality=0.5)

    def test_overflow_clamped(self):
        assert math.isfinite(SMS7630.current(10.0))


class TestMatchingNetwork:
    def test_battery_free_meets_minus_10db(self):
        assert battery_free_matching().worst_return_loss_db() < -10.0

    def test_battery_recharging_meets_minus_10db(self):
        assert battery_recharging_matching().worst_return_loss_db() < -10.0

    def test_reflection_penalty_below_half_db(self):
        """The paper's claim: <0.5 dB of power lost to reflection."""
        for network in (battery_free_matching(), battery_recharging_matching()):
            worst = network.worst_return_loss_db()
            gamma_sq = 10 ** (worst / 10)
            penalty_db = -10 * math.log10(1 - gamma_sq)
            assert penalty_db < 0.5

    def test_delivered_fraction_high_in_band(self):
        network = battery_free_matching()
        for ghz in (2.412, 2.437, 2.462):
            assert network.delivered_fraction(ghz * 1e9) > 0.9

    def test_unloaded_match_is_worse(self):
        network = battery_free_matching()
        f = 2.437e9
        assert network.delivered_fraction(f, loaded=False) < network.delivered_fraction(
            f, loaded=True
        )

    def test_out_of_band_match_degrades(self):
        network = battery_free_matching()
        in_band = network.return_loss_db(2.437e9)
        far_out = network.return_loss_db(3.5e9)
        assert far_out > in_band  # less negative = worse match

    def test_sweep_covers_requested_span(self):
        sweep = battery_free_matching().sweep_return_loss(2.40e9, 2.48e9, points=81)
        assert len(sweep) == 81
        assert sweep[0][0] == pytest.approx(2.40e9)
        assert sweep[-1][0] == pytest.approx(2.48e9)

    def test_band_constants(self):
        assert WIFI_BAND_STOP_HZ - WIFI_BAND_START_HZ == pytest.approx(72e6)

    def test_validation(self):
        with pytest.raises(CircuitError):
            LMatchingNetwork(inductance_h=0.0)
        with pytest.raises(CircuitError):
            RectifierImpedanceModel(loaded_resistance_ohm=-1.0)
        network = battery_free_matching()
        with pytest.raises(CircuitError):
            network.input_impedance(0.0)
        with pytest.raises(CircuitError):
            network.sweep_return_loss(points=1)

    def test_impedance_is_complex_with_capacitive_part(self):
        model = RectifierImpedanceModel()
        z = model.impedance(2.437e9)
        assert z.imag < 0  # capacitive

    def test_inductor_loss_reduces_q(self):
        lossy = LMatchingNetwork(inductor_q=10)
        clean = LMatchingNetwork(inductor_q=1000)
        # Finite Q adds series resistance -> different input impedance.
        assert lossy.input_impedance(2.437e9) != clean.input_impedance(2.437e9)


class TestVoltageDoubler:
    def test_amplitude_formula(self):
        doubler = VoltageDoubler()
        va = doubler.amplitude_at_rectifier(1e-3, 50.0)
        assert va == pytest.approx(math.sqrt(2 * 1e-3 * 50.0))

    def test_open_circuit_doubles_large_signals(self):
        doubler = VoltageDoubler(knee_voltage_v=0.08)
        assert doubler.open_circuit_voltage(1.0) == pytest.approx(2.0, rel=0.01)

    def test_open_circuit_suppressed_below_knee(self):
        doubler = VoltageDoubler(knee_voltage_v=0.08)
        assert doubler.open_circuit_voltage(0.02) < 2 * 0.02 * 0.5

    def test_breakdown_clamp(self):
        doubler = VoltageDoubler()
        assert doubler.open_circuit_voltage(10.0) == pytest.approx(
            2 * doubler.diode.breakdown_voltage_v
        )

    def test_output_power_zero_at_rails(self):
        doubler = VoltageDoubler()
        assert doubler.output_power(1e-3, 300.0, 0.0) == 0.0
        voc = doubler.open_circuit_voltage(doubler.amplitude_at_rectifier(1e-3, 300.0))
        assert doubler.output_power(1e-3, 300.0, voc) == 0.0

    def test_output_power_peaks_at_half_voc(self):
        doubler = VoltageDoubler()
        delivered, r = 1e-3, 300.0
        vmp = doubler.maximum_power_point(delivered, r)
        peak = doubler.output_power(delivered, r, vmp)
        assert peak > doubler.output_power(delivered, r, vmp * 0.5)
        assert peak > doubler.output_power(delivered, r, vmp * 1.5)

    def test_output_power_conserves_energy(self):
        doubler = VoltageDoubler()
        delivered = 1e-3
        vmp = doubler.maximum_power_point(delivered, 300.0)
        assert doubler.output_power(delivered, 300.0, vmp) <= delivered

    def test_efficiency_increases_with_amplitude(self):
        doubler = VoltageDoubler()
        assert doubler.conversion_efficiency(1.0) > doubler.conversion_efficiency(0.2)

    def test_efficiency_zero_at_zero(self):
        assert VoltageDoubler().conversion_efficiency(0.0) == 0.0

    def test_validation(self):
        with pytest.raises(CircuitError):
            VoltageDoubler(knee_voltage_v=0.0)
        doubler = VoltageDoubler()
        with pytest.raises(CircuitError):
            doubler.amplitude_at_rectifier(-1.0, 300.0)
        with pytest.raises(CircuitError):
            doubler.output_power(1e-3, 300.0, -0.1)


class TestDcDc:
    def test_interp_endpoints_flat(self):
        table = [(0.0, 0.1), (1.0, 0.5)]
        assert _interp(table, -1.0, [0.0, 1.0]) == 0.1
        assert _interp(table, 2.0, [0.0, 1.0]) == 0.5

    def test_interp_midpoint(self):
        table = [(0.0, 0.0), (1.0, 1.0)]
        assert _interp(table, 0.25, [0.0, 1.0]) == pytest.approx(0.25)

    def test_interp_empty_rejected(self):
        with pytest.raises(CircuitError):
            _interp([], 0.5, [])

    def test_seiko_cold_start_is_300mv(self):
        assert SeikoSz882().cold_start_voltage_v == pytest.approx(0.30)

    def test_seiko_zero_below_cold_start(self):
        seiko = SeikoSz882()
        assert seiko.efficiency(0.25) == 0.0
        assert seiko.transfer(1e-3, 0.25) == 0.0

    def test_seiko_transfers_above_cold_start(self):
        seiko = SeikoSz882()
        assert seiko.transfer(10e-6, 0.5) > 0.0

    def test_bq_cold_start_infinite_with_battery(self):
        assert math.isinf(TiBq25570().cold_start_voltage_v)

    def test_bq_standalone_cold_start_higher_than_seiko(self):
        # This asymmetry is why the camera's battery-free range (17 ft) is
        # shorter than the temperature sensor's (20 ft).
        assert TiBq25570Standalone().cold_start_voltage_v > SeikoSz882().cold_start_voltage_v

    def test_bq_more_efficient_than_seiko(self):
        assert TiBq25570().efficiency(0.5) > SeikoSz882().efficiency(0.5)

    def test_bq_mppt_floor(self):
        bq = TiBq25570()
        assert bq.mppt_operating_voltage(0.1) == pytest.approx(bq.mppt_reference_v)
        assert bq.mppt_operating_voltage(1.0) == pytest.approx(0.5)

    def test_bq_minimum_input(self):
        bq = TiBq25570()
        assert bq.transfer(1e-3, 0.05) == 0.0

    def test_transfer_validation(self):
        with pytest.raises(CircuitError):
            SeikoSz882().transfer(-1.0, 0.5)

    def test_mppt_validation(self):
        with pytest.raises(CircuitError):
            TiBq25570().mppt_operating_voltage(-0.1)
