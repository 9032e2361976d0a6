"""The two argument-domain rules, checked at every public entry point.

A count (M, N, K, L, error and frame budgets, seed, workers) is an int or NumPy
integer not below its floor; an average SNR, a power or eta is finite and > 0.
``TABLE`` holds one valid call per public callable of `gdmrelay` that takes
such an argument, and each test spoils one argument of it.  The coverage test
reads every public signature, so a new count or SNR parameter fails it until
the table lists it.
"""

import inspect
import math
import re
import types
import warnings

import numpy as np
import pytest

import gdmrelay
from gdmrelay import (
    ExperimentConfig,
    GdmFrameConfig,
    PowerAllocation,
    PowerSolution,
    PskAlphabet,
    bessel_k,
    coherent_mpsk_rayleigh_ser,
    count_ops,
    diversity_order,
    diversity_with_errors,
    effective_receive_snr,
    eta_threshold,
    feasibility_diagnostic,
    make_alphabet,
    optimize_power,
    relay_epsilon,
    relay_reliability,
    reproduce_figure,
    ser_avg_erroneous,
    ser_avg_error_free,
    ser_conditional_single,
    substream,
    wilson_interval,
)

COUNTS = {"m", "n", "n_relays", "l_block", "k_frame", "n_err", "r_error_free", "genie_r",
          "min_errors", "max_frames", "master_seed", "workers"}
# instantaneous link SNRs: 0 is a faded-out link, so they keep their own >= 0 rule
INSTANTANEOUS = {"ser_conditional_single": ("gamma_sd", "gamma_rd")}


def is_snr_or_power(name: str) -> bool:
    return name.startswith(("gamma", "rho_")) or name in ("p_s", "eta")


SOL = optimize_power(4)
PA = SOL.as_allocation()

# label -> (callable, valid keyword arguments); a label's callable is the part before "["
TABLE = {
    "make_alphabet": (make_alphabet, dict(m=4)),
    "PskAlphabet": (PskAlphabet, dict(m=4, points=make_alphabet(4).points)),
    "PowerAllocation": (PowerAllocation, dict(rho_r=PA.rho_r, rho_n=PA.rho_n, p_s=PA.p_s)),
    "GdmFrameConfig": (GdmFrameConfig, dict(k_frame=7, l_block=4, m=4, power=PA)),
    "effective_receive_snr": (effective_receive_snr, dict(rho_t=0.5, rho_r=2.0, gamma_bar=10.0)),
    "substream": (substream, dict(master_seed=3)),
    "count_ops": (count_ops, dict(kind="nmld", m=4, n=2)),
    "relay_reliability": (relay_reliability, dict(epsilon=0.01, m=4)),
    "coherent_mpsk_rayleigh_ser": (coherent_mpsk_rayleigh_ser, dict(gamma_bar=10.0, m=4)),
    "relay_epsilon": (relay_epsilon, dict(power=PA, l_block=4, gamma_sr_bar=100.0, m=4)),
    "eta_threshold": (eta_threshold, dict(epsilon=0.01, m=4, rho_t=0.5, rho_r=2.0)),
    "ser_conditional_single": (ser_conditional_single, dict(
        gamma_sd=10.0, gamma_rd=10.0, epsilon=0.01, eta=5.0, power=PA, m=4)),
    "ser_avg_error_free": (ser_avg_error_free, dict(
        n_relays=2, m=4, epsilon=0.01, eta=5.0, gamma_bar=100.0, gamma_sd_bar=100.0)),
    "ser_avg_erroneous": (ser_avg_erroneous, dict(
        n_relays=2, m=4, epsilon=0.01, eta=5.0, gamma_sd_bar=100.0)),
    "diversity_order": (diversity_order, dict(n_relays=3)),
    "diversity_with_errors[n_err]": (diversity_with_errors, dict(n_relays=3, n_err=1)),
    "diversity_with_errors[r_error_free]": (diversity_with_errors,
                                            dict(n_relays=3, r_error_free=1)),
    "PowerSolution": (PowerSolution, dict(rho_r_star=SOL.rho_r_star, rho_n_star=SOL.rho_n_star,
                                          l_block=4, p_s=1.0)),
    "optimize_power": (optimize_power, dict(l_block=4, p_s=1.0)),
    "feasibility_diagnostic": (feasibility_diagnostic, dict(
        solution=SOL, m=4, gamma_sr_bar=1e6, gamma_sd=1.0)),
    "ExperimentConfig": (ExperimentConfig, dict(
        n_relays=2, m=4, k_frame=15, l_block=4, detector="nmld", snr_grid_db=(10.0,),
        relay_mode="genie-r", genie_r=1, rho_n=0.5, p_s=1.0, min_errors=10, max_frames=20,
        master_seed=3, workers=1)),
    "wilson_interval": (wilson_interval, dict(errors=3, n=10)),
    "reproduce_figure": (reproduce_figure, dict(figure_id="fig4a", master_seed=0)),
}


def _cases(kind):
    for label, (func, kw) in TABLE.items():
        skip = INSTANTANEOUS.get(label, ())
        for name in kw:
            if (name in COUNTS if kind == "count" else is_snr_or_power(name) and name not in skip):
                yield pytest.param(func, kw, name, id=f"{label}-{name}")


def _call(func, kw, **change):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a feasibility warning is no failure here
        return func(**(kw | change))


def _public_callables():
    for name, obj in vars(gdmrelay).items():
        if not name.startswith("_") and callable(obj) and not isinstance(obj, types.ModuleType):
            yield name, obj


def test_table_lists_every_count_and_snr_parameter():
    listed = {}
    for func, kw in TABLE.values():
        listed.setdefault(func, set()).update(kw)
    missing = {}
    for name, obj in _public_callables():
        params = set(inspect.signature(obj).parameters)
        wanted = {p for p in params if p in COUNTS or is_snr_or_power(p)}
        if wanted - listed.get(obj, set()):
            missing[name] = sorted(wanted - listed.get(obj, set()))
    assert missing == {}


@pytest.mark.parametrize("label", TABLE)
def test_valid_call_runs(label):
    func, kw = TABLE[label]
    _call(func, kw)


@pytest.mark.parametrize("func, kw, name", _cases("count"))
@pytest.mark.parametrize("bad", [2.5, 4.0, "valid as a float"])
def test_count_must_be_an_integer(func, kw, name, bad):
    bad = float(kw[name]) if bad == "valid as a float" else bad
    with pytest.raises(ValueError, match=re.escape(f"need an integer {name} >=")):
        _call(func, kw, **{name: bad})


@pytest.mark.parametrize("func, kw, name", _cases("count"))
def test_count_may_be_a_numpy_integer(func, kw, name):
    _call(func, kw, **{name: np.int64(kw[name])})


@pytest.mark.parametrize("func, kw, name", _cases("count"))
def test_count_rejects_a_bool(func, kw, name):
    with pytest.raises(ValueError, match=re.escape(f"need an integer {name} >=")):
        _call(func, kw, **{name: True})


@pytest.mark.parametrize("func, kw, name", _cases("snr"))
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_snr_power_and_eta_must_be_finite_and_positive(func, kw, name, bad):
    rule = re.escape(f"need a finite {name} > 0") + ".*finite and > 0"
    with pytest.raises(ValueError, match=rule):
        _call(func, kw, **{name: bad})


@pytest.mark.parametrize("name", INSTANTANEOUS["ser_conditional_single"])
def test_instantaneous_snr_keeps_its_own_rule(name):
    func, kw = TABLE["ser_conditional_single"]
    assert 0.0 <= _call(func, kw, **{name: 0.0}).value <= 1.0  # a faded-out link
    for bad in (math.nan, -1.0):
        with pytest.raises(ValueError, match=">= 0"):
            _call(func, kw, **{name: bad})


def test_named_cases():
    with pytest.raises(ValueError, match="master_seed"):
        _call(*TABLE["ExperimentConfig"], master_seed=0.5)
    with pytest.raises(ValueError, match="x must be > 0"):
        bessel_k(1, math.nan)
    assert bessel_k(1, math.inf) == 0.0
    with pytest.raises(ValueError, match="rho_t"):
        eta_threshold(0.1, 4, math.nan, 1.0)
    with pytest.raises(ValueError, match="epsilon"):  # the (0, 1/2) rule comes first
        eta_threshold(0.5, 4, 1.0, 1.0)


def test_substream_keys():
    want = substream(3, 1, 2).standard_normal(4)
    assert substream(np.int64(3), 1, np.int64(2)).standard_normal(4).tolist() == want.tolist()
    for bad in (2.5, 2.0, -1, True):
        with pytest.raises(ValueError, match=re.escape("need an integer key[1] >= 0")):
            substream(3, 1, bad)


def test_wilson_interval_errors_within_n():
    for errors in (5, -1, 2.0):
        with pytest.raises(ValueError, match=re.escape("need an integer errors >= 0 and <= 3")):
            wilson_interval(errors, 3)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, math.nan, math.inf])
def test_relay_reliability_epsilon(bad):
    with pytest.raises(ValueError, match=re.escape("need epsilon in (0, 1)")):
        relay_reliability(bad, 4)


def test_array_rho_t():
    rho_t = np.array([1.0, 0.25, 0.25, 1.0])  # one power per symbol, as a point plan passes
    got = eta_threshold(0.1, 4, rho_t, 1.0)
    assert got.tolist() == [eta_threshold(0.1, 4, float(r), 1.0) for r in rho_t]
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rho_t"):
            eta_threshold(0.1, 4, np.array([1.0, bad]), 1.0)
