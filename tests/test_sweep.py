import numpy as np
import pytest

from coilfringe.constants import E_CHARGE
from coilfringe.diffraction import de_broglie_lambda, mechanical_momentum, run_sweep
from coilfringe.errors import DomainError
from coilfringe.ideal_field import coil_constant_K
from coilfringe.scenario import SweepSpec, paper_scenario, scenario_from_dict


def pointwise_rows(sweep):
    """Reference: the diffraction model evaluated one sweep value at a time."""
    scen = sweep.scenario
    gs = scen.grating_screen
    K = coil_constant_K(scen.coil)
    rows = []
    for v in sweep.values():
        U, I = (scen.beam.U, v) if sweep.variable == "current" else (v, scen.coil.I)
        P_eff = mechanical_momentum(U) + E_CHARGE * (K * I)
        if P_eff <= 0:
            rows.append((v, np.nan, np.nan, np.nan, np.nan))
            continue
        lam = de_broglie_lambda(P_eff)
        interfringe = lam * gs.D / gs.a
        rows.append((v, P_eff, lam, interfringe, 1.0 / interfringe))
    return np.array(rows)


def test_rows_match_pointwise_model():
    scen = scenario_from_dict({"current_A": 2.5})
    # the current sweep crosses into P_eff <= 0, the voltage sweep does not
    for sweep, domain_errors in (
        (SweepSpec("current", -30.0, 10.0, 0.7, scen), True),
        (SweepSpec("voltage", 1000.0, 50000.0, 1234.5, scen), False),
    ):
        rows, _ = run_sweep(sweep)
        assert np.array_equal(rows, pointwise_rows(sweep), equal_nan=True)
        assert np.isnan(rows[:, 1]).any() == domain_errors


def test_non_positive_voltage_rejected():
    for start in (-100.0, 0.0):  # 0 V is a non-positive voltage, not a NaN row
        sweep = SweepSpec("voltage", start, 100.0, 50.0, paper_scenario())
        with pytest.raises(DomainError):
            run_sweep(sweep)
