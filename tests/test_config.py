from pathlib import Path

import pytest

from nemflow.cli import main as cli_main
from nemflow.config import _KEYS, ConfigError, parse_config
from nemflow.operators import padded_size

MINIMAL = """
dim = 2
n = 16
tau = 1e-3
t_end = 0.01
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.grid.dim == 2
    assert cfg.grid.n == 16
    assert cfg.grid.dealias == "two_thirds"
    assert [padded_size(cfg.grid, degree) for degree in (2, 3, 4)] == [24, 24, 24]
    assert cfg.params.alpha == 0.5
    assert cfg.params.rho == 1.0
    assert cfg.params.eta == 1.0
    assert cfg.ic.kind == "uniform_perturbed"
    assert cfg.output.snapshot_every == 0


def test_alpha_out_of_range_names_invariant():
    with pytest.raises(ConfigError, match="alpha ∈ \\[0,1\\]"):
        parse_config(MINIMAL + "alpha = 1.5\n")


def test_exact_mode_defaults_to_padding_three():
    """Exact mode pads each product to its degree's alias-free grid, which
    stays below 3n up to quartic products."""
    cfg = parse_config(MINIMAL + "dealias = exact\n")
    assert [padded_size(cfg.grid, degree) for degree in (2, 3, 4)] == [24, 32, 40]


def test_padding_factor_is_unknown_key():
    """The padded grid follows from dealias alone."""
    with pytest.raises(ConfigError, match="line 6.*unknown key 'padding_factor'"):
        parse_config(MINIMAL + "padding_factor = 3\n")


def test_unknown_key_is_hard_error_with_line():
    # a removed key is rejected like a typo, not ignored
    for line in ("viscosity = 2", "picard.damping = 1.0"):
        with pytest.raises(ConfigError, match="line 6.*unknown key"):
            parse_config(MINIMAL + line + "\n")


def test_readme_configuration_block_parses():
    """The README documents every key, each with a valid value, so a removed
    or renamed key cannot stay documented."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration", 1)[1]
    block = section.split("```", 2)[1]
    parse_config(block)
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line}
    assert keys == set(_KEYS)


def test_malformed_line_reports_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("dim = 2\nnot a key value pair\n")


def test_comments_and_dotted_keys():
    cfg = parse_config(
        MINIMAL
        + "# a comment line\n"
        + "picard.tol = 1e-11  # trailing comment\n"
        + "ic.seed = 99\n"
        + "output.full_state = true\n"
    )
    assert cfg.picard.tol == 1e-11
    assert cfg.ic.seed == 99
    assert cfg.output.full_state is True


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(MINIMAL + "tau = 2e-3\n")


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="missing required"):
        parse_config("dim = 2\nn = 8\n")


def test_unparseable_value():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("dim = two\nn = 8\ntau = 1e-3\nt_end = 1\n")


def test_bad_ic_kind():
    with pytest.raises(ConfigError, match="ic.kind"):
        parse_config(MINIMAL + "ic.kind = vortex\n")


def test_tau_min_above_tau_rejected():
    with pytest.raises(ConfigError, match="tau_min"):
        parse_config(MINIMAL + "picard.tau_min = 1.0\n")


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_float_rejected(raw):
    with pytest.raises(ConfigError, match=f"line 6: ic.amplitude must be finite, got '{raw}'"):
        parse_config(MINIMAL + f"ic.amplitude = {raw}\n")


@pytest.mark.parametrize("dim,extra,key", [
    (2, "ic.seed = -1", "ic.seed"),
    (2, f"ic.seed = {2**64}", "ic.seed"),
    (3, "ic.kind = defect_pair", "ic.kind"),
])
def test_unbuildable_initial_condition_is_config_error(tmp_path, capsys, dim, extra, key):
    """Initial-condition inputs that cannot be built fail at parse time with
    the key named, and the CLI maps them to exit 2 without running."""
    trace = tmp_path / "trace.csv"
    text = MINIMAL.replace("dim = 2", f"dim = {dim}") + f"{extra}\noutput.trace_path = {trace}\n"
    with pytest.raises(ConfigError, match=key):
        parse_config(text)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    for command in ("check", "run"):
        assert cli_main([command, str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert key in captured.err
        assert "config ok" not in captured.out
    assert not trace.exists()
    parse_config(MINIMAL + "ic.seed = 0\nic.kind = defect_pair\n")  # the 2D boundary case is fine
    parse_config(MINIMAL + f"ic.seed = {2**64 - 1}\n")  # so is the largest seed


def test_epsilon_zero_is_config_error(tmp_path, capsys):
    """The stepper needs epsilon > 0, so check and run both refuse 0 with exit 2."""
    trace = tmp_path / "trace.csv"
    cfg_path = tmp_path / "eps.cfg"
    cfg_path.write_text(MINIMAL + f"epsilon = 0\noutput.trace_path = {trace}\n")
    with pytest.raises(ConfigError, match="epsilon > 0"):
        parse_config(cfg_path.read_text())
    for command in ("check", "run"):
        assert cli_main([command, str(cfg_path)]) == 2
        assert "epsilon > 0" in capsys.readouterr().err
    assert not trace.exists()
