import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerhvm import cli as cli_module
from wignerhvm import hvm as hvm_module
from wignerhvm import oracle as oracle_module
from wignerhvm import states as states_module
from wignerhvm import wigner as wigner_module
from wignerhvm.cli import _multiplicativity_cases, lemma_check_bytes, main
from wignerhvm.states import (GRID_BYTES_LIMIT, STATE_BUILD_ARRAYS, StateSpec,
                              check_state_spec)
from wignerhvm.weyl import (check_wigner_multiplicativity,
                            metaplectic_covariance_suite)
from wignerhvm.wigner import GridSpec, InadequateWindowError


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def load(out, name):
    return json.loads((out / name).read_text())


def test_wigner_vacuum_sidecar(tmp_path):
    code, out = run(tmp_path, "wigner", "--state", '{"kind": "vacuum"}')
    assert code == 0
    report = load(out, "wigner.json")
    assert report["min"]["value"] > 0
    assert report["negativity_volume"] < 1e-6
    assert abs(report["normalization"] - 1) < 1e-3
    header = (out / "wigner.csv").read_text().splitlines()[0]
    assert header == "q1,p1,W"


def test_negativity_fock1(tmp_path):
    code, out = run(tmp_path, "negativity", "--state",
                    '{"kind": "fock", "params": {"n": 1}, "cutoff": 25}')
    assert code == 0
    report = load(out, "negativity.json")
    assert abs(report["min"]["value"] + 0.3183) < 1e-3
    assert abs(report["negativity_volume"]
               - 2 * (2 * np.exp(-0.5) - 1)) < 2e-3


def test_negativity_cat(tmp_path):
    code, out = run(tmp_path, "negativity", "--state",
                    '{"kind": "cat", "params": {"alpha": 2.0}, "cutoff": 30}')
    assert code == 0
    assert load(out, "negativity.json")["negativity_volume"] > 0.1


def test_hvm_compare_gaussian_noncontextual(tmp_path):
    code, out = run(tmp_path, "hvm-compare", "--state", '{"kind": "vacuum"}',
                    "--samples", "50000")
    assert code == 0
    report = load(out, "hvm_compare.json")
    assert report["status"] == "noncontextual-model-built"
    assert report["pass"]
    assert len(report["observables"]) == 3
    for row in report["observables"]:
        assert row["tv_distance"] <= row["tolerance"]
        assert {"state", "observable", "n", "seed",
                "tv_distance", "tolerance", "pass"} <= set(row)


def test_hvm_compare_two_mode_coherent_passes(tmp_path):
    # a Gaussian state has a noncontextual model; events on the coarse
    # two-mode grid must not carry the box model's step**2/12 variance
    code, out = run(tmp_path, "hvm-compare", "--state",
                    '{"kind":"coherent","params":{"alpha":[1.0,0.5]},'
                    '"modes":2}', "--points", "41",
                    "--observable", "0,0,1,0")
    assert code == 0
    report = load(out, "hvm_compare.json")
    assert report["pass"] is True
    events = {e["interval"]: e for e in report["observables"][0]["event_checks"]}
    assert events["[-1, 1]"]["abs_error"] <= 1e-9


def test_hvm_compare_contextual_witness(tmp_path):
    code, out = run(tmp_path, "hvm-compare", "--state",
                    '{"kind": "fock", "params": {"n": 1}, "cutoff": 25}')
    assert code == 0  # a witness is a finding, not an error
    report = load(out, "hvm_compare.json")
    assert report["status"] == "contextual"
    assert abs(report["witness"]["min_value"] + 1 / np.pi) < 1e-3
    assert report["witness"]["location"] == [0.0, 0.0]


def test_parse_failure_exit_2(tmp_path):
    code, _ = run(tmp_path, "wigner", "--state", '{"kind": "nonsense"}')
    assert code == 2
    code, _ = run(tmp_path, "wigner", "--state", "not json at all")
    assert code == 2
    # negative photon numbers must not index |cutoff-1> from the end
    code, _ = run(tmp_path, "wigner", "--state",
                  '{"kind": "fock", "params": {"n": -1}, "cutoff": 20}')
    assert code == 2
    code, _ = run(tmp_path, "wigner", "--state",
                  '{"kind": "fock", "params": {"n": "a"}}')
    assert code == 2
    code, _ = run(tmp_path, "wigner", "--state",
                  '{"kind": "fock", "cutoff": "many"}')
    assert code == 2
    code, _ = run(tmp_path, "wigner", "--state", '{"kind": "vacuum"}',
                  "--points", "4")
    assert code == 2
    # a peak width below the quadrature step, not an endless loop over peaks
    code, _ = run(tmp_path, "negativity", "--state",
                  '{"kind": "gkp", "params": {"delta": 2.5e-145}}')
    assert code == 2
    # a peak width whose squared quadrature span overflows
    code, _ = run(tmp_path, "negativity", "--state",
                  '{"kind": "gkp", "params": {"delta": 1e300}}')
    assert code == 2
    for r in ("NaN", "Infinity"):  # JSON admits both
        code, _ = run(tmp_path, "negativity", "--state",
                      '{"kind": "photon_subtracted_squeezed", "params": '
                      f'{{"r": {r}}}}}')
        assert code == 2, r
    # integral fields are checked, not truncated by int()
    for spec in ('{"kind": "fock", "params": {"n": 1.5}}',
                 '{"kind": "fock", "params": {"n": true}}',
                 '{"kind": "fock", "cutoff": 10.7}',
                 '{"kind": "fock", "modes": 1.9}',
                 # past Python's 4300-digit limit on integer parsing
                 '{"kind": "vacuum", "modes": 1%s}' % ("0" * 5000)):
        code, _ = run(tmp_path, "wigner", "--state", spec)
        assert code == 2, spec
    # non-finite or overflowing grid windows, or a cell volume step^(2m)
    # that overflows, are parse failures
    for command in ("wigner", "negativity", "hvm-compare", "hudson"):
        for window in ("nan", "inf", "1e308", "1e200"):
            code, _ = run(tmp_path, command, "--state", '{"kind": "vacuum"}',
                          "--window", window)
            assert code == 2, (command, window)
        extra = ["--observable", "1,0,0,0"] if command == "hvm-compare" else []
        code, _ = run(tmp_path, command, "--state",
                      '{"kind": "vacuum", "modes": 2}', "--window", "1e80",
                      "--points", "5", *extra)
        assert code == 2, command
    # a state over no modes, or a negative number of them
    for command in ("wigner", "negativity", "hvm-compare", "hudson"):
        for modes in (0, -1):
            code, _ = run(tmp_path, command, "--state",
                          json.dumps({"kind": "vacuum", "modes": modes}))
            assert code == 2, (command, modes)
    for bins in ("0", "-3"):
        code, _ = run(tmp_path, "hvm-compare", "--state",
                      '{"kind": "vacuum"}', "--points", "41", "--bins", bins)
        assert code == 2, bins
    for threads in ("0", "-3"):
        code, _ = run(tmp_path, "hvm-compare", "--state",
                      '{"kind": "vacuum"}', "--points", "41",
                      "--threads", threads)
        assert code == 2, threads
    # a non-finite observable label is a bad flag, not an oracle traceback
    for text in ("nan,1", "inf,1"):
        code, _ = run(tmp_path, "hvm-compare", "--state",
                      '{"kind": "vacuum"}', "--observable", text)
        assert code == 2, text
    # arrays above wigner.GRID_BYTES_LIMIT are refused before any allocation
    for flag in (["--bins", "1000000000"], ["--samples", "100000000"]):
        code, _ = run(tmp_path, "hvm-compare", "--state",
                      '{"kind": "vacuum"}', *flag)
        assert code == 2, flag
    # a Fock state's CDF holds oracle.CDF_TABLES tables of cutoff^2 (bins +
    # 1) values: 4.8 GiB
    code, _ = run(tmp_path, "hvm-compare", "--state",
                  '{"kind": "fock", "params": {"n": 0}, "cutoff": 400}',
                  "--bins", "1000")
    assert code == 2
    # np.random.default_rng takes no negative seed, whether or not it runs
    vacuum = ["--state", '{"kind": "vacuum"}']
    losses = ["--channel", '{"kind": "loss", "eta": 0.7}',
              "--channel", '{"kind": "loss", "eta": 0.6}']
    for command, extra in (("wigner", vacuum), ("negativity", vacuum),
                           ("hvm-compare", vacuum), ("hudson", vacuum),
                           ("lemma-check", []), ("channel-compose", losses)):
        for seed in ("-1", "x"):
            code, _ = run(tmp_path, command, *extra, "--seed", seed)
            assert code == 2, (command, seed)
    # lemma-check's working set: a cutoff of at least 1, within the limit
    for cutoff in ("0", "-3", "209665", "262144", "1000000", str(10 ** 200)):
        code, _ = run(tmp_path, "lemma-check", "--cutoff", cutoff)
        assert code == 2, cutoff
    # a channel check over no trials or no modes checks nothing
    for flag in (["--trials", "0"], ["--trials", "-2"], ["--modes", "0"],
                 ["--modes", "-1"]):
        code, _ = run(tmp_path, "channel-compose", *losses, *flag)
        assert code == 2, flag


def test_two_mode_fock_kinds_exit_2(tmp_path, capsys):
    # a Fock state has one mode, so every command refuses the spec
    for command in ("wigner", "negativity", "hudson", "hvm-compare"):
        for kind in states_module.FOCK_KINDS:
            code, _ = run(tmp_path, command, "--state",
                          json.dumps({"kind": kind, "modes": 2}))
            assert code == 2, (command, kind)
            assert f"'{kind}' is a single-mode state" in \
                capsys.readouterr().err, (command, kind)


def test_extreme_observable_labels_exit_without_nan(tmp_path):
    # labels whose squared norm, and so the oracle's variance, underflows
    # to zero or overflows: refused, with no warning and no NaN report
    for text in ("1e-300,0", "1e160,0", "1e300,1e300"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run(tmp_path, "hvm-compare", "--state",
                            '{"kind": "vacuum"}', "--samples", "1000",
                            "--observable", text)
        assert code in (2, 3), text
        assert not caught, (text, [str(w.message) for w in caught])
        report = out / "hvm_compare.json"
        assert not report.exists() or "NaN" not in report.read_text(), text


def test_two_mode_hvm_compare_holds_one_grid(tmp_path):
    # W is built once and becomes the model's grid in place, and the
    # sampler keeps one running sum per block of cells, not a CDF grid.
    # The label has idle axes, so no slab threads ride on top of the grid.
    argv = ["hvm-compare", "--state", '{"kind": "thermal", "modes": 2}',
            "--points", "31", "--samples", "2000", "--observable", "1,0,0,0"]
    assert run(tmp_path, *argv)[0] == 0  # first-call set-up is not counted
    tracemalloc.start()
    try:
        code, _ = run(tmp_path, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1.5 * 8 * 31 ** 4, peak / (8 * 31 ** 4)


def test_parse_failure_messages_name_the_bound(tmp_path, capsys):
    run(tmp_path, "lemma-check", "--cutoff", "1000000")
    assert "the largest cutoff is 209664" in capsys.readouterr().err
    run(tmp_path, "lemma-check", "--cutoff", "0")
    assert "at least 1" in capsys.readouterr().err
    run(tmp_path, "channel-compose", "--channel", '{"kind": "identity"}',
        "--channel", '{"kind": "identity"}', "--modes", "0")
    assert "--modes must be at least 1" in capsys.readouterr().err


def test_char_flags_are_ignored(tmp_path, capsys):
    # the README gkp example: the Hermite route has no chi grid to set; the
    # bench passes the flags to all four commands, hvm-compare's contextual
    # job among them
    gkp = ["--state", '{"kind": "gkp", "params": {"delta": 0.3}, '
           '"cutoff": 60}', "--window", "10", "--points", "321"]
    char = ["--char-window", "24", "--char-points", "601"]
    for command, names in (("hudson", ["hudson.json"]),
                           ("wigner", ["wigner.json", "wigner.csv"]),
                           ("negativity", ["negativity.json"]),
                           ("hvm-compare", ["hvm_compare.json"])):
        blobs = []
        for sub, extra in (("plain", []), ("char", char)):
            out = tmp_path / command / sub
            assert main([command, *gkp, *extra, "--out", str(out)]) == 0
            blobs.append([(out / name).read_bytes() for name in names])
        assert blobs[0] == blobs[1], command
        assert capsys.readouterr().err.count("ignored") == 1


def test_window_inadequacy_exit_3(tmp_path):
    # grid state on the default 6-window: leakage/window checks must trip
    code, _ = run(tmp_path, "wigner", "--state",
                  '{"kind": "gkp", "params": {"delta": 0.3}, "cutoff": 60}')
    assert code == 3
    # a covariance too singular for the grid to resolve
    code, _ = run(tmp_path, "wigner", "--state",
                  '{"kind": "squeezed", "params": {"r": 20}}')
    assert code == 3
    # a window that clips the marginals misses the normalization gate
    code, _ = run(tmp_path, "hudson", "--state",
                  '{"kind": "squeezed", "params": {"r": 1.0}}',
                  "--window", "2", "--points", "41")
    assert code == 3
    # 10.8 % of the weight of this squeezed photon lies above cutoff 30
    code, _ = run(tmp_path, "negativity", "--state",
                  '{"kind": "photon_subtracted_squeezed", "params": {"r": 1.5},'
                  ' "cutoff": 30}',
                  "--window", "10", "--char-window", "24",
                  "--char-points", "321")
    assert code == 3
    # e^r overflows: all of the weight is past the cutoff
    code, _ = run(tmp_path, "negativity", "--state",
                  '{"kind": "photon_subtracted_squeezed", "params": {"r": 710},'
                  ' "cutoff": 12}')
    assert code == 3
    # e^(2r) overflows the Gaussian covariance itself
    code, _ = run(tmp_path, "negativity", "--state",
                  '{"kind": "squeezed", "params": {"r": 800}}')
    assert code == 3
    # rotated strong squeezing: a covariance symmetric only up to rounding
    code, _ = run(tmp_path, "negativity", "--state",
                  '{"kind": "squeezed", "params": {"r": 8, "theta": 1}}')
    assert code == 3
    # a Gaussian state whose mass lies outside the window
    code, _ = run(tmp_path, "negativity", "--state",
                  '{"kind": "coherent", "params": {"alpha": 10}}',
                  "--points", "21")
    assert code == 3


# the parameter each state kind reads; vacuum reads none
STATE_PARAMS = {"vacuum": None, "coherent": "alpha", "squeezed": "r",
                "thermal": "nbar", "fock": "n", "cat": "alpha", "gkp": "delta",
                "photon_subtracted_squeezed": "r"}


# log-uniform magnitudes from 1e-300 to 1e300 of either sign, nan and +-inf
WIDE_FLOATS = st.one_of(
    st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
              st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0)),
    st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def state_specs(draw):
    kind = draw(st.sampled_from(sorted(STATE_PARAMS)))
    spec = {"kind": kind,
            "modes": draw(st.sampled_from([1, 1, 1, 2, 0, -1]))}
    name = STATE_PARAMS[kind]
    if name == "n":
        spec["params"] = {name: draw(st.integers(-1, 8))}
    elif name is not None:
        spec["params"] = {name: draw(st.one_of(st.floats(-1.0, 2.0),
                                               WIDE_FLOATS))}
    cutoff = draw(st.one_of(st.none(), st.integers(0, 12)))
    if cutoff is not None:
        spec["cutoff"] = cutoff
    return spec


@settings(max_examples=30, deadline=None)
@given(command=st.sampled_from(["wigner", "negativity", "hudson",
                                "hvm-compare"]),
       spec=state_specs(), points=st.integers(0, 10).map(lambda k: 2 * k + 1),
       char_points=st.one_of(st.none(),
                             st.integers(0, 20).map(lambda k: 2 * k + 1)),
       window=st.one_of(st.floats(0.5, 10.0), WIDE_FLOATS))
def test_exit_codes_hold_for_drawn_inputs(command, spec, points, char_points,
                                         window):
    # no RuntimeWarning either: each one is raised as an error
    argv = [command, "--state", json.dumps(spec), "--points", str(points),
            "--window", str(window)]
    if char_points is not None:
        argv += ["--char-points", str(char_points)]
    if command == "hvm-compare":
        argv += ["--samples", "2000"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv + ["--out", out])
        # every report is strict JSON: no NaN or Infinity constant
        for path in pathlib.Path(out).rglob("*.json"):
            json.loads(path.read_text(), parse_constant=refuse_constant)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@st.composite
def lemma_and_channel_argv(draw):
    """lemma-check and channel-compose argv, with how a large size exits."""
    if draw(st.booleans()):
        cutoff = draw(st.one_of(st.integers(1, 12),
                                st.integers(209665, 10 ** 6),
                                st.integers(10 ** 6, 10 ** 400)))
        return ["lemma-check", "--cutoff", str(cutoff)], cutoff > 12
    modes = draw(st.one_of(st.integers(1, 3), st.integers(10 ** 6, 10 ** 9),
                           st.integers(10 ** 9, 10 ** 400)))
    # a raw channel on a mode count other than --modes
    raw = 2 * (modes % 3 + 1)
    channels = st.one_of(
        st.builds(lambda eta: {"kind": "loss", "eta": eta},
                  st.one_of(st.floats(-1.0, 2.0), WIDE_FLOATS)),
        st.just({"kind": "identity"}),
        st.just({"X": np.eye(raw).tolist(), "Y": np.zeros((raw, raw)).tolist(),
                 "d": [0.0] * raw}))
    argv = ["channel-compose", "--modes", str(modes),
            "--trials", str(draw(st.integers(1, 3)))]
    for channel in draw(st.lists(channels, min_size=1, max_size=3)):
        argv += ["--channel", json.dumps(channel)]
    return argv, modes > 3


@settings(max_examples=40, deadline=None)
@given(drawn=lemma_and_channel_argv())
def test_lemma_and_channel_exit_codes_hold_for_drawn_inputs(drawn):
    # no RuntimeWarning either, and every report is strict JSON; a size
    # past the memory guard is refused with exit 2
    argv, oversized = drawn
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv + ["--out", out])
        for path in pathlib.Path(out).rglob("*.json"):
            json.loads(path.read_text(), parse_constant=refuse_constant)
    assert code in ((2,) if oversized else (0, 2, 3, 4)), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_grid_memory_guard_exit_3(tmp_path, monkeypatch):
    # two modes at the default 257 points would need 257^4 values per grid;
    # the guard must refuse before any grid-sized array is built
    def refuse(self):
        raise AssertionError("grid arrays requested past the memory guard")

    monkeypatch.setattr(GridSpec, "coordinate_blocks", refuse)
    monkeypatch.setattr(GridSpec, "axis", property(refuse))
    code, _ = run(tmp_path, "wigner", "--state",
                  '{"kind": "thermal", "modes": 2}')
    assert code == 3


class RouteStarted(Exception):
    """Raised in place of the one-mode Fock route's coefficient map."""


def route_starts_and_grid_guard_exits_3(tmp_path, monkeypatch, command,
                                        state, window, points):
    """The one-mode Fock route starts on a `points` grid, and GridSpec's
    one-array bound, its only memory guard, refuses 8,193 points with exit
    3 before any grid-sized array is built."""
    def started(*args):
        raise RouteStarted

    monkeypatch.setattr(wigner_module.fockspace, "hermite_coefficients",
                        started)
    argv = [command, "--state", state, "--window", str(window)]
    tracemalloc.start()
    try:
        with pytest.raises(RouteStarted):
            run(tmp_path, *argv, "--points", str(points))
        code, _ = run(tmp_path, *argv, "--points", "8193")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 16 * 4001 ** 2 / 100, peak


@pytest.mark.parametrize("command",
                         ["wigner", "negativity", "hudson", "hvm-compare"])
def test_parity_route_memory_guard_exit_3(tmp_path, monkeypatch, command):
    # the one-mode route holds one block of grid rows beside the grid, so a
    # 6,427-point grid starts; only GridSpec's bound stops a grid.
    # np.linspace would not round this axis sign-symmetric; GridSpec.axis is
    spec = GridSpec(1, 6.0, 6427)
    linspace = np.linspace(-6.0, 6.0, 6427)
    assert not np.array_equal(linspace[::-1], -linspace)
    assert np.array_equal(spec.axis[::-1], -spec.axis)
    route_starts_and_grid_guard_exits_3(
        tmp_path, monkeypatch, command,
        '{"kind": "fock", "params": {"n": 1}, "cutoff": 25}', 6.0, 6427)


# grids a whole-quadrant working set of the parity sums refused: a real
# rho_H past 6,425 points, and a complex one past 5,617
MIRRORED_GUARD_CASES = {
    "real-7681": ('{"kind": "fock", "params": {"n": 1}, "cutoff": 25}',
                  7.5, 7681),
    "complex-5619": ('{"kind": "cat", "params": {"alpha": [1.5, 0.8]}, '
                     '"cutoff": 25}', 6.0, 5619),
}


@pytest.mark.parametrize("case", sorted(MIRRORED_GUARD_CASES))
@pytest.mark.parametrize("command",
                         ["wigner", "negativity", "hudson", "hvm-compare"])
def test_mirrored_parity_route_memory_guard_exit_3(tmp_path, monkeypatch,
                                                   command, case):
    route_starts_and_grid_guard_exits_3(tmp_path, monkeypatch, command,
                                        *MIRRORED_GUARD_CASES[case])


@pytest.mark.parametrize("command",
                         ["wigner", "negativity", "hudson", "hvm-compare"])
def test_non_finite_grid_exits_3(tmp_path, monkeypatch, capsys, command):
    # a grid that holds NaN is a numerical failure, never a traceback
    monkeypatch.setattr(wigner_module.fockspace, "hermite_coefficients",
                        lambda rho: np.full((3, 3), np.nan))
    code, _ = run(tmp_path, command, "--state",
                  '{"kind": "fock", "params": {"n": 1}, "cutoff": 25}',
                  "--points", "21")
    err = capsys.readouterr().err
    assert code == 3, err
    assert "non-finite" in err and "Traceback" not in err


def test_hermite_coefficients_run_once_per_state(tmp_path, monkeypatch):
    # a Fock state's grid and its chi read the state's one C
    calls = []
    compute = wigner_module.fockspace.hermite_coefficients

    def counted(matrix):
        calls.append(matrix)
        return compute(matrix)

    monkeypatch.setattr(wigner_module.fockspace, "hermite_coefficients",
                        counted)
    code, _ = run(tmp_path, "hvm-compare", "--state",
                  '{"kind": "fock", "params": {"n": 0}, "cutoff": 10}',
                  "--points", "41", "--samples", "2000")
    assert code == 0 and len(calls) == 1
    matrix = np.zeros((30, 30))
    matrix[0, 0], matrix[1, 1] = 0.7, 0.3  # a lossy single photon
    photon = states_module.FockDensityOperator(matrix, 30, 1)
    wigner_module.state_wigner(photon, GridSpec(1, 6.0, 41))
    wigner_module.characteristic_at_points(photon, np.eye(2))
    assert len(calls) == 2


def test_large_cutoff_gkp_grid_is_finite(tmp_path, capsys):
    # alpha^k of the parity sums overflowed here, near (c - 1) ln(2 * 6) >
    # 709.8; the Hermite route's grid is finite, and 21 points cannot hold
    # the comb's normalization
    code, _ = run(tmp_path, "negativity", "--state",
                  '{"kind":"gkp","params":{"delta":0.3},"cutoff":287}',
                  "--window", "6", "--points", "21")
    err = capsys.readouterr().err
    assert code == 3, err
    assert "normalization" in err and "Traceback" not in err


@pytest.mark.parametrize("command",
                         ["wigner", "negativity", "hudson", "hvm-compare"])
def test_state_build_memory_guard_exit_3(tmp_path, monkeypatch, capsys,
                                         command):
    # the largest cutoff whose build, STATE_BUILD_ARRAYS c x c complex
    # arrays, fits the limit is admitted; one above it is refused before
    # any c x c array exists
    cutoff = math.isqrt(GRID_BYTES_LIMIT // (16 * STATE_BUILD_ARRAYS))
    check_state_spec(StateSpec("fock", {"n": 1}, 1, cutoff))

    def refuse(*args):
        raise AssertionError("state built past the memory guard")

    monkeypatch.setattr(states_module, "fock_state", refuse)
    tracemalloc.start()
    try:
        code, _ = run(tmp_path, command, "--state",
                      '{"kind": "fock", "params": {"n": 1}, "cutoff": %d}'
                      % (cutoff + 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert f"building a cutoff-{cutoff + 1} state" in capsys.readouterr().err
    assert peak < 16 * cutoff ** 2 / 100, peak


@pytest.mark.parametrize("command",
                         ["wigner", "negativity", "hudson", "hvm-compare"])
def test_oversized_states_exit_before_any_allocation(tmp_path, command):
    # a cutoff-100000 density matrix would take 149 GiB, and no grid over 9
    # or more modes fits the limit even at 3 points per axis; 257^200 once
    # overflowed the grid guard's own message.  hvm-compare checks the state
    # before its sample and CDF-table guard, so it exits as the others do.
    fock = '{"kind": "fock", "params": {"n": 1}, "cutoff": 100000}'
    cases = [('{"kind": "vacuum", "modes": 100}', 3),
             ('{"kind": "vacuum", "modes": 1e300}', 3), (fock, 3)]
    for spec, want in cases:
        tracemalloc.start()
        try:
            code, _ = run(tmp_path, command, "--state", spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == want, spec
        assert peak < 2 ** 22, (spec, peak)


def test_grid_guards_count_past_float_range():
    # 16 * points^2 is too large for a float; the message still formats
    with pytest.raises(InadequateWindowError, match="at least 2"):
        GridSpec(1, 6.0, 10 ** 200 + 1)
    with pytest.raises(InadequateWindowError, match="8 modes"):
        GridSpec(9, 6.0, 3)
    GridSpec(8, 6.0, 3)  # 3^16 values: within the limit


@pytest.mark.parametrize("command",
                         ["wigner", "negativity", "hudson", "hvm-compare"])
def test_points_past_float_range_exit_3(tmp_path, capsys, command):
    # 10^400 + 1 points has no float step, and its grid is far above the
    # byte limit whatever the window; a bad window on a grid that fits is
    # still a parse failure
    huge = str(10 ** 400 + 1)
    for window in ("6", "-1"):
        code, _ = run(tmp_path, command, "--state", '{"kind": "vacuum"}',
                      "--points", huge, "--window", window)
        assert code == 3, window
        assert "GiB limit" in capsys.readouterr().err
    code, _ = run(tmp_path, command, "--state", '{"kind": "vacuum"}',
                  "--points", "21", "--window", "-1")
    assert code == 2
    with pytest.raises(InadequateWindowError, match="at least 2"):
        GridSpec(1, -1.0, 10 ** 400 + 1)


@pytest.mark.parametrize("digits", [13, 62, 401])
def test_oversized_counts_print_short(tmp_path, capsys, digits):
    # a point count or cutoff of any length prints as d.ddde+N, and a GiB
    # count within float range to three digits; the exit codes hold
    huge = str(10 ** (digits - 1) + 1)
    fock = '{"kind": "fock", "params": {"n": 1}, "cutoff": %s}' % huge
    for argv, want in ((["wigner", "--state", '{"kind": "vacuum"}',
                         "--points", huge], 3),
                       (["wigner", "--state", fock], 3),
                       (["lemma-check", "--cutoff", huge], 2)):
        code, _ = run(tmp_path, *argv)
        assert code == want, argv
        err = capsys.readouterr().err
        assert "GiB" in err and len(err) < 200, err
        assert f"1.000e+{digits - 1}" in err, err


@pytest.mark.parametrize("command",
                         ["wigner", "negativity", "hudson", "hvm-compare"])
def test_overflowing_gaussians_exit_without_warnings(tmp_path, command):
    # det(sigma) overflows for the thermal state and the quadratic form for
    # the coherent one: no mass is left on the grid, so the normalization
    # gate refuses both (hudson refuses the mixed thermal state first)
    cases = [('{"kind": "thermal", "params": {"nbar": 1e300}}',
              4 if command == "hudson" else 3),
             ('{"kind": "coherent", "params": {"alpha": 1e200}}', 3)]
    for spec, want in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(tmp_path, command, "--state", spec,
                          "--points", "21")
        assert code == want, spec


@pytest.mark.parametrize("command",
                         ["wigner", "negativity", "hudson", "hvm-compare"])
def test_extreme_cat_amplitudes_exit_without_warnings(tmp_path, command):
    # cosh|alpha|^2 overflows past |alpha|^2 = 710 and alpha^n past float
    # range; such a state keeps none of its weight below the cutoff, so the
    # leakage check refuses it, and a non-finite alpha is a spec error
    cases = [("30", 3), ("5000", 3), ("1e300", 3), ("-1e300", 3),
             ("[20, 20]", 3), ("NaN", 2), ("Infinity", 2), ("-Infinity", 2)]
    for alpha, want in cases:
        spec = ('{"kind": "cat", "params": {"alpha": %s}, "cutoff": 30}'
                % alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _ = run(tmp_path, command, "--state", spec,
                          "--points", "21")
        assert code == want, alpha


def test_non_finite_report_exit_3(tmp_path, monkeypatch, capsys):
    # a NaN in a payload is refused, not written as a bare NaN token
    sidecar = wigner_module.sidecar_dict
    monkeypatch.setattr(wigner_module, "sidecar_dict",
                        lambda w: {**sidecar(w), "log_negativity": np.nan})
    code, out = run(tmp_path, "negativity", "--state", '{"kind": "vacuum"}')
    assert code == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "negativity.json").exists()


def test_mixed_hudson_exit_4(tmp_path):
    code, _ = run(tmp_path, "hudson", "--state",
                  '{"kind": "thermal", "params": {"nbar": 1.0}}')
    assert code == 4


def test_hudson_classifications(tmp_path):
    code, out = run(tmp_path, "hudson", "--state",
                    '{"kind": "squeezed", "params": {"r": 0.5}}')
    assert code == 0
    assert load(out, "hudson.json")["classification"] == "gaussian_nonnegative"
    code, out = run(tmp_path, "hudson", "--state",
                    '{"kind": "fock", "params": {"n": 1}, "cutoff": 25}')
    assert code == 0
    assert load(out, "hudson.json")["classification"] == "negative"


def test_hudson_squeezed_needs_no_wide_window(tmp_path):
    # the covariance test reads no grid marginal, so a window that clips
    # the 8-sigma tails of the squeezed quadrature still classifies
    code, out = run(tmp_path, "hudson", "--state",
                    '{"kind": "squeezed", "params": {"r": 1.0}}',
                    "--window", "8")
    assert code == 0
    report = load(out, "hudson.json")
    assert report["classification"] == "gaussian_nonnegative"
    assert abs(report["covariance_purity"] - 1) <= 1e-12
    assert report["schema_version"] == 3


def test_hudson_and_hvm_compare_agree_on_small_cats(tmp_path, capsys):
    for alpha in (0.25, 0.28):
        state = json.dumps({"kind": "cat", "params": {"alpha": alpha},
                            "cutoff": 30})
        code, out = run(tmp_path, "hudson", "--state", state)
        assert code == 0, alpha
        assert load(out, "hudson.json")["classification"] == "negative"
        code, out = run(tmp_path, "hvm-compare", "--state", state)
        assert code == 0, alpha
        assert load(out, "hvm_compare.json")["status"] == "contextual"
    # at alpha = 0.2 the grid minimum (-7e-14) is inside the rounding
    # clamp, yet the covariance purity (0.999997) says non-Gaussian
    code, _ = run(tmp_path, "hudson", "--state",
                  '{"kind": "cat", "params": {"alpha": 0.2}, "cutoff": 30}')
    assert code == 3
    err = capsys.readouterr().err
    assert "negative but inside the clamp" in err
    assert "resolution" not in err


def test_samples_guard_counts_a_key_and_its_order_per_sample(tmp_path,
                                                            monkeypatch):
    # streamed, a sample holds 16 bytes at any mode count, not the
    # 8 (2m + 1) of the samples and their outcomes
    monkeypatch.setattr(wigner_module, "GRID_BYTES_LIMIT", 2_000_000)
    vacuum = ["hvm-compare", "--state", '{"kind": "vacuum"}']
    code, out = run(tmp_path, *vacuum, "--samples", "100000")  # 1.6 MB
    assert code == 0
    assert load(out, "hvm_compare.json")["pass"] is True

    def refuse(*args, **kwargs):
        raise AssertionError("sampled past the guard")

    monkeypatch.setattr(hvm_module, "sample", refuse)
    monkeypatch.setattr(wigner_module, "state_wigner", refuse)
    code, _ = run(tmp_path, *vacuum, "--samples", "200000")  # 3.2 MB
    assert code == 2
    # at the real limit the ceiling is 2^26 samples at one and two modes
    monkeypatch.undo()
    monkeypatch.setattr(hvm_module, "sample", refuse)
    monkeypatch.setattr(wigner_module, "state_wigner", refuse)
    pair = '{"kind": "coherent", "params": {"alpha": [1, 0]}, "modes": 2}'
    for state in ('{"kind": "vacuum"}', pair):
        code, _ = run(tmp_path, "hvm-compare", "--state", state,
                      "--samples", str(2 ** 26 + 1))
        assert code == 2, state


def test_hvm_compare_samples_through_hvm_sample(tmp_path, monkeypatch):
    # bench/spans.py counts sample() calls by (model, n) and times the
    # first by model._alias; the reachability pass needs sample reached
    calls = []
    original = hvm_module.sample

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args[:2], args[0]._alias is not None))
        return result

    monkeypatch.setattr(hvm_module, "sample", counting)
    code, _ = run(tmp_path, "hvm-compare", "--state", '{"kind": "vacuum"}',
                  "--samples", "5000", "--observable", "1,0",
                  "--observable", "0.6,0.8", "--observable", "0,1")
    assert code == 0
    assert len(calls) == 3
    models = {id(model) for (model, _), _ in calls}
    assert len(models) == 1
    for (model, n), built in calls:
        assert isinstance(model, hvm_module.HiddenVariableModel)
        assert n == 5000
        assert built


def test_report_determinism_across_runs_and_threads(tmp_path):
    args = ["hvm-compare", "--state", '{"kind": "vacuum"}',
            "--samples", "30000", "--seed", "7"]
    outs = []
    for sub, extra in (("a", []), ("b", []), ("c", ["--threads", "4"])):
        out = tmp_path / sub
        code = main(args + extra + ["--out", str(out)])
        assert code == 0
        outs.append((out / "hvm_compare.json").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_hudson_and_lemma_reports_do_not_depend_on_blas_threads(tmp_path):
    # neither command multiplies matrices through BLAS, so one and two
    # OpenBLAS threads write the same bytes (README hudson gkp, and the
    # lemma-check that CI also runs on one core)
    commands = [
        (["hudson", "--state",
          '{"kind": "gkp", "params": {"delta": 0.3}, "cutoff": 60}',
          "--window", "10", "--points", "321"], "hudson.json"),
        (["lemma-check", "--cutoff", "30", "--seed", "5"],
         "lemma_check.json")]
    for argv, name in commands:
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"{argv[0]}-{threads}"
            subprocess.run(
                [sys.executable, "-m", "wignerhvm.cli", *argv, "--out",
                 str(out)], env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, check=True)
            reports.append((out / name).read_bytes())
        assert reports[0] == reports[1], argv[0]


def test_channel_compose_two_losses(tmp_path):
    code, out = run(tmp_path, "channel-compose",
                    "--channel", '{"kind": "loss", "eta": 0.7}',
                    "--channel", '{"kind": "loss", "eta": 0.6}')
    assert code == 0
    report = load(out, "channel_compose.json")
    assert report["pass"]
    assert np.allclose(report["composed"]["X"],
                       np.sqrt(0.42) * np.eye(2), atol=1e-12)
    assert report["max_sequential_deviation"] <= 1e-12


def test_parser_is_built_once_and_keeps_no_state(tmp_path, monkeypatch):
    loss = '{"kind": "loss", "eta": 0.7}'
    code, _ = run(tmp_path, "channel-compose", "--channel", loss,
                  "--channel", loss)
    assert code == 0

    def rebuild():
        raise AssertionError("the parser was built again")

    monkeypatch.setattr(cli_module, "build_parser", rebuild)
    # a --channel list kept from the call above would make this two
    # channels; one channel is a parse error
    code, _ = run(tmp_path, "channel-compose", "--channel", loss)
    assert code == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_channel_compose_refuses_non_finite_channels(tmp_path, capsys):
    zero = "[[0, 0], [0, 0]]"
    huge = f'{{"X": [[1e200, 0], [0, 1e-200]], "Y": {zero}, "d": [0, 0]}}'
    identity = '{"kind": "identity"}'
    pairs = [
        (f'{{"X": [[NaN, 0], [0, 1]], "Y": {zero}, "d": [0, 0]}}', identity),
        (f'{{"X": [[1, 0], [0, 1]], "Y": {zero}, "d": [Infinity, 0]}}',
         identity),
        (huge, huge),  # each is finite, their product overflows
    ]
    for first, second in pairs:
        code, out = run(tmp_path, "channel-compose", "--channel", first,
                        "--channel", second)
        assert code == 2, (first, second)
        assert "must be finite" in capsys.readouterr().err
        assert not (out / "channel_compose.json").exists()
    # finite channels and a finite composition, but the sequential
    # covariance overflows: a NaN deviation must fail, not vanish in max()
    code, out = run(tmp_path, "channel-compose", "--channel", huge,
                    "--channel", identity)
    assert code == 3
    assert not (out / "channel_compose.json").exists()


def test_channel_compose_guard_refuses_before_any_channel(tmp_path, capsys,
                                                        monkeypatch):
    # 10^7 modes would need 2m x 2m arrays of 3.2e15 bytes each
    def refuse(*args):
        raise AssertionError("a channel was built past the memory guard")

    monkeypatch.setattr(cli_module, "_parse_channel", refuse)
    code, out = run(tmp_path, "channel-compose",
                    "--channel", '{"kind": "loss", "eta": 0.7}',
                    "--channel", '{"kind": "loss", "eta": 0.6}',
                    "--modes", "10000000")
    assert code == 2
    err = capsys.readouterr().err
    assert "GiB" in err and "the largest --modes is 904" in err, err
    assert not (out / "channel_compose.json").exists()


@pytest.mark.parametrize("channels", [2, 4])
def test_channel_compose_bytes_bound_the_measured_peak(tmp_path, channels):
    argv = ["channel-compose", "--modes", "50", "--trials", "2"]
    argv += ["--channel", '{"kind": "loss", "eta": 0.7}'] * channels
    assert run(tmp_path, *argv)[0] == 0  # first-run imports are not counted
    tracemalloc.start()
    try:
        code, _ = run(tmp_path, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    nbytes = cli_module.channel_compose_bytes(50, channels)
    assert 0.5 * nbytes <= peak <= nbytes, peak / nbytes


def test_channel_compose_mode_mismatch_exits_2(tmp_path, capsys):
    # a raw two-mode channel at the default --modes 1
    raw = json.dumps({"X": np.eye(4).tolist(), "Y": np.zeros((4, 4)).tolist(),
                      "d": [0, 0, 0, 0]})
    code, out = run(tmp_path, "channel-compose", "--channel", raw,
                    "--channel", raw)
    assert code == 2
    assert "--modes is 1" in capsys.readouterr().err
    assert not (out / "channel_compose.json").exists()


def test_overflowing_hermite_argument_exits_3_without_warning(tmp_path,
                                                            capsys):
    # x^2 at the window's edge, 1.3e154, leaves float range: the Hermite
    # rows there are 0, and the three-node grid misses the normalization
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run(tmp_path, "negativity", "--state",
                        '{"kind": "fock", "params": {"n": 1}, "cutoff": 5}',
                        "--window", "1.3e154", "--points", "3")
    assert code == 3
    err = capsys.readouterr().err
    assert "use more points" in err and len(err) < 200, err
    assert not (out / "negativity.json").exists()


def test_overflowing_coherent_mean_exits_3(tmp_path):
    code, out = run(tmp_path, "negativity", "--state",
                    '{"kind": "coherent", "params": {"alpha": 1.5e308}}')
    assert code == 3
    assert not (out / "negativity.json").exists()


def test_channel_compose_needs_two(tmp_path):
    code, _ = run(tmp_path, "channel-compose",
                  "--channel", '{"kind": "loss", "eta": 0.7}')
    assert code == 2


def test_lemma_check_tiny_cutoffs_exit_3(tmp_path):
    # cutoffs 1 and 2 pass the parser and fail the transform cases
    for cutoff in ("1", "2"):
        code, out = run(tmp_path, "lemma-check", "--cutoff", cutoff)
        assert code == 3, cutoff
        assert load(out, "lemma_check.json")["n_failed"] == 12


def test_lemma_check_degraded_cutoff_flags(tmp_path):
    code, out = run(tmp_path, "lemma-check", "--cutoff", "8")
    assert code == 0  # flagged, not failed
    report = load(out, "lemma_check.json")
    assert report["n_failed"] == 0
    assert report["n_flagged"] == len(report["multiplicativity"])
    assert report["commutation_identities"]["pass"]
    assert report["metaplectic_covariance"]["pass"]


def traced_peak(job):
    tracemalloc.start()
    try:
        job()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lemma_check_bytes_bound_the_measured_peak(tmp_path):
    # the cutoff guard must not undercount lemma-check's working set: at
    # cutoff 8 one block of kets and the metaplectic suite's cutoff-50
    # columns dominate the command; at 240 and 4000 the suite's columns of
    # its 20 operators do, a few kB a level, and the command holds the
    # suite and each case one at a time
    # the modules a first run imports (about 1 MB) are not its working set
    assert run(tmp_path, "lemma-check", "--cutoff", "8")[0] == 0
    peak = traced_peak(lambda: run(tmp_path, "lemma-check", "--cutoff", "8"))
    assert 0.5 * lemma_check_bytes(8) <= peak <= lemma_check_bytes(8)
    cases = dict(_multiplicativity_cases())
    for cutoff in (240, 4000):
        jobs = [lambda obs=cases[label]: check_wigner_multiplicativity(
            obs, cutoff) for label in ("xy^2 on {q1,q2}", "xy^2 on {q1,p2}")]
        jobs.append(lambda: metaplectic_covariance_suite(
            np.random.default_rng(1), trials=20, cutoff=cutoff))
        peak = max(traced_peak(job) for job in jobs)
        bound = lemma_check_bytes(cutoff)
        assert 0.5 * bound <= peak <= bound, (cutoff, peak / bound)


def test_hvm_compare_bytes_bound_the_measured_peak(tmp_path):
    # a one-mode Fock state's oracle CDF dominates hvm-compare once its
    # cutoff^2 (bins + 1) tables outgrow the grid and the samples
    argv = ["hvm-compare", "--state",
            '{"kind": "fock", "params": {"n": 0}, "cutoff": 30}',
            "--points", "41", "--bins", "200", "--samples", "2000"]
    assert run(tmp_path, *argv)[0] == 0  # first-run imports are not counted
    code = []
    peak = traced_peak(lambda: code.append(run(tmp_path, *argv)[0]))
    assert code == [0]
    bound = 8 * oracle_module.CDF_TABLES * 30 ** 2 * 201
    assert 0.5 * bound <= peak <= bound, peak / bound


def test_observable_flag_parsing(tmp_path):
    code, out = run(tmp_path, "hvm-compare", "--state", '{"kind": "vacuum"}',
                    "--samples", "20000", "--observable", "1,0",
                    "--observable", "0.6,0.8")
    assert code == 0
    report = load(out, "hvm_compare.json")
    assert len(report["observables"]) == 2
    assert report["observables"][1]["observable"] == [0.6, 0.8]
    code, _ = run(tmp_path, "hvm-compare", "--state", '{"kind": "vacuum"}',
                  "--observable", "1,0,0")
    assert code == 2
    code, _ = run(tmp_path, "hvm-compare", "--state", '{"kind": "vacuum"}',
                  "--observable", "0,0")
    assert code == 4


CLI_IMPORTS_SCRIPT = """
import json, sys
from wignerhvm import cli
code = cli.main(json.loads(sys.argv[1]))
if len(sys.argv) > 2:  # the positive control
    import numpy.ma, scipy.special
print(json.dumps([code, sorted(k for k in sys.modules if k == "numpy.ma"
                               or k == "scipy" or k.startswith("scipy."))]))
"""

README_COMMANDS = [
    ["wigner", "--state",
     '{"kind": "cat", "params": {"alpha": 2.0}, "cutoff": 30}',
     "--points", "33"],
    ["negativity", "--state",
     '{"kind": "fock", "params": {"n": 1}, "cutoff": 25}', "--points", "33"],
    ["hvm-compare", "--state", '{"kind": "squeezed", "params": {"r": 0.5}}',
     "--observable", "1,0", "--observable", "0,1", "--samples", "1000",
     "--seed", "7"],
    ["hudson", "--state",
     '{"kind": "gkp", "params": {"delta": 0.3}, "cutoff": 60}',
     "--window", "10", "--points", "81"],
    ["lemma-check", "--cutoff", "8"],
    ["channel-compose", "--channel", '{"kind": "loss", "eta": 0.7}',
     "--channel", '{"kind": "loss", "eta": 0.6}', "--trials", "2"],
]


def test_readme_commands_import_neither_numpy_ma_nor_scipy(tmp_path):
    # each command in a fresh interpreter, so no other command's imports
    # hide its own
    def loaded(argv, *control):
        out = subprocess.run(
            [sys.executable, "-c", CLI_IMPORTS_SCRIPT,
             json.dumps(argv + ["--out", str(tmp_path / argv[0])]), *control],
            capture_output=True, text=True, check=True)
        return json.loads(out.stdout.splitlines()[-1])

    for argv in README_COMMANDS:
        assert loaded(argv) == [0, []], argv[0]
    code, modules = loaded(README_COMMANDS[4], "control")
    assert code == 0 and "numpy.ma" in modules and "scipy.special" in modules
