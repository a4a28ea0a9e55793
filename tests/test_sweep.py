import numpy as np
import pytest

from coilfringe.diffraction import de_broglie_lambda, effective_momentum
from coilfringe.errors import DomainError, ModelDomainError
from coilfringe.ideal_field import coil_constant_K
from coilfringe.scenario import SweepSpec, paper_scenario
from coilfringe.sweep import run_sweep


def pointwise_rows(sweep):
    """Reference: the diffraction model evaluated one sweep value at a time."""
    scen = sweep.scenario
    gs = scen.grating_screen
    K = coil_constant_K(scen.coil.ideal_equivalent())
    rows = []
    for v in sweep.values():
        U, I = (scen.beam.U, v) if sweep.variable == "current" else (v, scen.coil.I)
        try:
            P_eff = effective_momentum(U, K * I)
        except ModelDomainError:
            rows.append((v, np.nan, np.nan, np.nan, np.nan))
            continue
        lam = de_broglie_lambda(P_eff)
        interfringe = lam * gs.D / gs.a
        rows.append((v, P_eff, lam, interfringe, 1.0 / interfringe))
    return np.array(rows)


def test_rows_match_pointwise_model():
    scen = paper_scenario(current=2.5)
    # the current sweep crosses into P_eff <= 0, the voltage sweep does not
    for sweep, domain_errors in (
        (SweepSpec("current", -30.0, 10.0, 0.7, scen), True),
        (SweepSpec("voltage", 1000.0, 50000.0, 1234.5, scen), False),
    ):
        rows, _ = run_sweep(sweep)
        assert np.array_equal(rows, pointwise_rows(sweep), equal_nan=True)
        assert np.isnan(rows[:, 1]).any() == domain_errors


def test_non_positive_voltage_rejected():
    sweep = SweepSpec("voltage", -100.0, 100.0, 50.0, paper_scenario())
    with pytest.raises(DomainError):
        run_sweep(sweep)
