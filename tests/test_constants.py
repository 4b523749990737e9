import math
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tunneltimes.constants import (
    ELECTRON_MASS,
    EV_TO_JOULE,
    HBAR,
    energy_ev_to_si,
    energy_si_to_ev,
    length_nm_to_si,
    length_si_to_nm,
)

SRC_DIR = Path(__file__).resolve().parents[1] / "src" / "tunneltimes"


def test_stored_values_are_the_exact_truncations():
    assert ELECTRON_MASS == 9.1095e-31
    assert HBAR == 1.055e-34
    assert EV_TO_JOULE == 1.6022e-19


@pytest.mark.parametrize(
    "ev, joule",
    [
        (0.0, 0.0),
        (1.0, 1.6022e-19),
        (10.0, 1.6022e-18),  # hand multiplication of the stored factor
    ],
)
def test_energy_conversion(ev, joule):
    assert energy_ev_to_si(ev) == pytest.approx(joule, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("nm, metres", [(0.0, 0.0), (1.0, 1e-9), (0.5, 5e-10)])
def test_length_conversion(nm, metres):
    assert length_nm_to_si(nm) == pytest.approx(metres, rel=1e-15, abs=0.0)


# Magnitudes are bounded away from the subnormal range: once the intermediate
# product underflows below ~2.2e-308 the scaling loses whole digits and no
# conversion scheme can round-trip to 1 ulp.
finite_magnitudes = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-280, max_value=1e280),
    st.floats(min_value=-1e280, max_value=-1e-280),
)


@given(finite_magnitudes)
def test_energy_round_trip_within_one_ulp(x):
    y = energy_si_to_ev(energy_ev_to_si(x))
    assert abs(y - x) <= math.ulp(abs(x))


@given(finite_magnitudes)
def test_length_round_trip_within_one_ulp(x):
    y = length_si_to_nm(length_nm_to_si(x))
    assert abs(y - x) <= math.ulp(abs(x))


def test_no_second_copy_of_any_constant_in_the_package():
    # The digit strings of the stored constants (and of the light-speed guard)
    # may appear in constants.py and nowhere else under src/.
    pattern = re.compile(r"9\.1095|1\.055e-34|1\.6022|2\.9979e8")
    offenders = []
    for path in SRC_DIR.rglob("*.py"):
        if path.name == "constants.py":
            continue
        if pattern.search(path.read_text(encoding="utf-8")):
            offenders.append(path.name)
    assert not offenders, f"constant literals duplicated in: {offenders}"
