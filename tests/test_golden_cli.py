"""Golden CLI outputs: the sha256 of stdout and the exit code of each command.

Small CSVs are generated from fixed seeds, and every model/method pair runs
through ``fit``, one- and two-sided ``interval`` and ``confdens``.  The hashes
pin the exact bytes printed, so a speed-up that changes any digit (or the
order of any float operation that reaches the output) fails here even when
the numbers stay within the tolerances of the other CLI tests.  The
``confdens --model gamma --method skovgaard`` case pins today's exit 4: its
corrected root is not monotone over the grid.  Every ``confdens`` case, and
three more grids from 0, also runs with warnings turned into errors.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest

from confdist.cli import main


def _write(path, header, columns):
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


def _data_files(tmp_path):
    rng = np.random.default_rng(20261018)
    x1, x2 = rng.normal(size=25), rng.normal(size=25)
    y = 1.0 + 2.0 * x1 - 0.5 * x2 + 1.5 * rng.normal(size=25)
    _write(tmp_path / "normal.csv", ["y", "x1", "x2"], [y, x1, x2])
    x = rng.normal(size=30)
    _write(tmp_path / "gamma.csv", ["y", "x1"],
           [np.exp(0.5 - 0.3 * x) * rng.gamma(2.0, 0.5, size=30), x])
    _write(tmp_path / "known_mu.csv", ["y"], [rng.gamma(2.0, 0.5, size=20)])


NORMAL = "--file {d}/normal.csv --model normal --response y --design x1,x2"
GAMMA = "--file {d}/gamma.csv --model gamma --response y --design x1"
KNOWN_MU = "--file {d}/known_mu.csv --model gamma --known-mu --response y"
ONE, TWO = "--level 0.95", "--level 0.9 --sides two"
UPPER = "--level 0.8 --side upper"

# name -> (argv template, exit code).  Templates are split on whitespace
# after {d} is replaced by the data directory.
CASES = {
    "fit_normal": (f"fit {NORMAL}", 0),
    "fit_normal_text": (f"fit {NORMAL} --format text --no-intercept", 0),
    "fit_gamma": (f"fit {GAMMA}", 0),
    "fit_known_mu": (f"fit {KNOWN_MU}", 0),
    "interval_variance_one": (f"interval {NORMAL} --target variance --method exact {ONE}", 0),
    "interval_variance_two": (f"interval {NORMAL} --target variance --method exact {TWO}", 0),
    "interval_contrast_one": (
        f"interval {NORMAL} --target contrast:0,1,0 --method exact {UPPER}", 0),
    "interval_contrast_two": (
        f"interval {NORMAL} --target contrast:0,1,0 --method exact {TWO}", 0),
    "interval_gamma_first_order_one": (
        f"interval {GAMMA} --target precision --method first_order {ONE}", 0),
    "interval_gamma_first_order_two": (
        f"interval {GAMMA} --target precision --method first_order {TWO}", 0),
    "interval_gamma_skovgaard_one": (
        f"interval {GAMMA} --target precision --method skovgaard {ONE}", 0),
    "interval_gamma_skovgaard_two": (
        f"interval {GAMMA} --target precision --method skovgaard {TWO}", 0),
    "interval_known_mu_first_order_one": (
        f"interval {KNOWN_MU} --target precision --method first_order {ONE}", 0),
    "interval_known_mu_first_order_two": (
        f"interval {KNOWN_MU} --target precision --method first_order {TWO}", 0),
    "interval_known_mu_fraser_one": (
        f"interval {KNOWN_MU} --target precision --method fraser {UPPER}", 0),
    "interval_known_mu_fraser_two": (
        f"interval {KNOWN_MU} --target precision --method fraser {TWO}", 0),
    "interval_normal_fit_json": (
        "interval --fit-json {d}/normal.json --model normal --target variance "
        f"--method exact {TWO}", 0),
    "interval_gamma_fit_json": (
        "interval --fit-json {d}/gamma.json --model gamma --target precision "
        f"--method first_order {TWO}", 0),
    "confdens_variance_exact": (
        f"confdens {NORMAL} --target variance --method exact --grid 0.2:8:101", 0),
    "confdens_contrast_exact": (
        f"confdens {NORMAL} --target contrast:0,1,0 --method exact --grid 0.5:3.5:101", 0),
    "confdens_gamma_first_order": (
        f"confdens {GAMMA} --target precision --method first_order --grid 0.3:8:101", 0),
    "confdens_gamma_skovgaard": (
        f"confdens {GAMMA} --target precision --method skovgaard --grid 0.3:8:101", 4),
    "confdens_known_mu_first_order": (
        f"confdens {KNOWN_MU} --target precision --method first_order --grid 0:8:101", 0),
    "confdens_known_mu_fraser": (
        f"confdens {KNOWN_MU} --target precision --method fraser --grid 0:8:101", 0),
}

# sha256 of each case's stdout (an exit-4 case prints nothing).
GOLDEN = {
    "confdens_contrast_exact": "e2e1b956d1ffe795bdfb3042c616ac8a380177c89d4c58c273bca8eb90dda32b",
    "confdens_gamma_first_order":
        "cbd55e48cc37dff00ed0bd75f68fdf765c98b7eeaa34b97821abda6fb25a0b7d",
    "confdens_gamma_skovgaard": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "confdens_known_mu_first_order":
        "25ef164492cf2910dea28a4e6664c9602b646b2985532df18c963c43ec5ef86a",
    "confdens_known_mu_fraser": "8ead138ed84f8f1e8a8c41b4f0035b7a9c228a89526ba6a675fb38c670ad7486",
    "confdens_variance_exact": "9faa4a5281308a51a3ec098c30c6cb39d624837fdf3a3ccecf311f170e396be5",
    "fit_gamma": "ef40742a29a37549a6e0a6b4f0c82d51092f31da20bbdef26c7ccfa104b5cd80",
    "fit_known_mu": "16b2c10201da9c454e8e1f6e1ad8cb588db19caba64305f98b131a394634edf3",
    "fit_normal": "041398803da87ed0e8a2ef41b1202808f2b9670d2e7b4e9c39b842a63c7240ad",
    "fit_normal_text": "59f4a001af6e2845da2bb4002481187c9ecfa98e9c6a408ba3c68061f2a32d08",
    "interval_contrast_one": "28dde613d4369d882d79cb089b3aa4fd2ddfac50e90c298250750317f7041b40",
    "interval_contrast_two": "7323582259fbdb6d9525b2f28caad88cab9a72303a4571893bfb0e86c53a085b",
    "interval_gamma_first_order_one":
        "adb9d6de64c599b3f701340d05481852524190f2876dd67a655dbc36dda809e8",
    "interval_gamma_first_order_two":
        "a3d1544896db3b2e552be2fe5438cce9093a1be632bbafbbf7214b618c1f6e30",
    "interval_gamma_fit_json": "a3d1544896db3b2e552be2fe5438cce9093a1be632bbafbbf7214b618c1f6e30",
    "interval_gamma_skovgaard_one":
        "9bbe0f70f09b6a797b751d714e71a81e66d230c46c7a5200238907ae70eede86",
    "interval_gamma_skovgaard_two":
        "2d921c1f267456fec4edf5380ca6e716937124f9c25c156cee2f1f4899cd8022",
    "interval_known_mu_first_order_one":
        "43c6195b2233ff71d050f4da9dbca3532b7b73daa40276b5d9ac60d79f2bea18",
    "interval_known_mu_first_order_two":
        "985bd3e9e754c7169bd06782a1b0666021071eed1813ca73567a2271fb5aab48",
    "interval_known_mu_fraser_one":
        "d1638f8bf7bb8c9dcfda9198c5ff5c4b1ef19e18dff8d0e6099ebf761e540ce9",
    "interval_known_mu_fraser_two":
        "ee067b45834e67f76674d1e3efe9a6c71362cad12168878355bc4eb3db481491",
    "interval_normal_fit_json": "b53dec1a9d705d55e0d873dc7bb03befb2ce03fbad7b2c639d41f1d14f5c194c",
    "interval_variance_one": "1ef52ed555c40ec2d764706ae93e2f3bc1981432710b5a58278cc74e2dcf4300",
    "interval_variance_two": "b53dec1a9d705d55e0d873dc7bb03befb2ce03fbad7b2c639d41f1d14f5c194c",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_pinned(name, tmp_path, capsys):
    _data_files(tmp_path)
    for kind, data in (("normal", NORMAL), ("gamma", GAMMA)):
        argv = f"fit {data} --out {{d}}/{kind}.json".format(d=tmp_path).split()
        assert main(argv) == 0
    template, code = CASES[name]
    capsys.readouterr()
    assert main(template.format(d=tmp_path).split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[name], out[:2000]


# confdens cases whose grid starts at 0, beside the known-mean ones in CASES
FROM_ZERO = {
    "confdens_variance_from_zero": (
        f"confdens {NORMAL} --target variance --method exact --grid 0:8:51", 0),
    "confdens_gamma_first_order_from_zero": (
        f"confdens {GAMMA} --target precision --method first_order --grid 0:8:101", 0),
    "confdens_gamma_skovgaard_from_zero": (
        f"confdens {GAMMA} --target precision --method skovgaard --grid 0:8:101", 4),
}
CONFDENS = {name: case for name, case in {**CASES, **FROM_ZERO}.items()
            if name.startswith("confdens")}


@pytest.mark.parametrize("name", sorted(CONFDENS))
def test_confdens_leaks_no_warnings(name, tmp_path, capsys):
    """Every confdens case with warnings as errors: the pinned exit code, and
    nothing on stderr but the mass warning or the exit-4 case's message."""
    _data_files(tmp_path)
    template, code = CONFDENS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(template.format(d=tmp_path).split()) == code
    allowed = ["warning: density mass over the emitted grid"]
    if code == 4:
        allowed.append("numeric error: corrected root is not monotone")
    err = capsys.readouterr().err.splitlines()
    assert all(line.startswith(tuple(allowed)) for line in err), err
