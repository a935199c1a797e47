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

import ast
import hashlib
import warnings
from pathlib import Path

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
    _write(tmp_path / "extreme_mu.csv", ["y"], [np.array([1e20, 1.0, 2.0])])


NORMAL = "--file {d}/normal.csv --model normal --response y --design x1,x2"
GAMMA = "--file {d}/gamma.csv --model gamma --response y --design x1"
KNOWN_MU = "--file {d}/known_mu.csv --model gamma --known-mu --response y"
# varphi_hat ~3e-20: the precision brackets start at a width relative to it
EXTREME_MU = "--file {d}/extreme_mu.csv --model gamma --known-mu --response y"
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
    "interval_known_mu_extreme_first_order_two": (
        f"interval {EXTREME_MU} --target precision --method first_order {TWO}", 0),
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
    "confdens_contrast_exact": "df4161794c2eed3331b5674c9a868b498921849315ce29207aeb12f27e9b77a5",
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
    "interval_contrast_one": "6609e1e26a46c1dae30e9aea2428d4680ceff25d17a357de851ab59788ff636d",
    "interval_contrast_two": "fd6031c26bbb57bcd7073af356df04320d3528255adc546e6e3c97003844f9a9",
    "interval_gamma_first_order_one":
        "2400cce13e81be77d209f35d546697b93c60d18a62309320bf0fe7267cbe90ce",
    "interval_gamma_first_order_two":
        "edb8e3711fcbb425693dc71701c0c8c274f2b11a4fdc238b0a9ef5588cb0b08d",
    "interval_gamma_fit_json": "edb8e3711fcbb425693dc71701c0c8c274f2b11a4fdc238b0a9ef5588cb0b08d",
    "interval_gamma_skovgaard_one":
        "8c5b60397754709837777146a19400b3dff14e6377c6cb39072319581a804183",
    "interval_gamma_skovgaard_two":
        "57fad35e8ae8685a252a73695e8be979f59f466512e73c4884797a9b265706a8",
    "interval_known_mu_extreme_first_order_two":
        "b27e006810895cc554b9fbf7a7a55b41bedd83e6f94738075b05480d4abb6c31",
    "interval_known_mu_first_order_one":
        "9084975bde05702b1e61364f1b94a9afcf0261d3a7a41349949ed2106220667a",
    "interval_known_mu_first_order_two":
        "4677b0d2b17ea4e7bf796faafa08cfccee25023a859d89e57e28523049fac711",
    "interval_known_mu_fraser_one":
        "2a5c1192932964506f97f6029c17a628288031a19e1e0a6459eaa52eaab22230",
    "interval_known_mu_fraser_two":
        "d994cb050e0f04cb1ea5106601681bf24f1cc380ab68589a131cf86df60eb805",
    "interval_normal_fit_json": "5a92768b0bb55f1166d8837a1de2dd1f6d1289572628cbb7ac1022fbad4972dc",
    "interval_variance_one": "1ef52ed555c40ec2d764706ae93e2f3bc1981432710b5a58278cc74e2dcf4300",
    "interval_variance_two": "5a92768b0bb55f1166d8837a1de2dd1f6d1289572628cbb7ac1022fbad4972dc",
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


def test_case_tables_have_one_entry_per_name():
    """CASES and GOLDEN name the same cases, and no dict literal in the
    package or its tests repeats a constant key: a repeat silently replaces
    the earlier entry, so a case would be pinned by another one's value."""
    assert set(CASES) == set(GOLDEN)
    root = Path(__file__).resolve().parents[1]
    repeats = []
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Dict):
                seen = set()
                for key in node.keys:
                    if isinstance(key, ast.Constant):
                        if key.value in seen:
                            repeats.append(f"{path.relative_to(root)}:{key.lineno}: {key.value!r}")
                        seen.add(key.value)
    assert not repeats


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
