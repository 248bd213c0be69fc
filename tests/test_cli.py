"""Config parsing, run modes, output files, reproducibility."""

import csv
import hashlib
import math

import pytest

from gaprad import CONSTANTS, rectangle_mesh, save_obj
from gaprad.cli import CSV_HEADER, ConfigError, main, parse_config
from conftest import parallel_rectangle_viewfactor

C = CONSTANTS.c
SIGMA = CONSTANTS.sigma_sb

BB_GAP = """
[gap]
gap = 1e-6
T1 = 400
T2 = 300

[body1]
material = black

[body2]
material = black
"""


def test_parse_minimal_drude_config():
    cfg = parse_config("""
[gap]
gap = 1e-7
T1 = 350
T2 = 290

[body1]
material = drude
eps_inf = 1
omega_p = 1e16
gamma = 1e14

[body2]
material = constant
eps_re = 4
eps_im = 0.1

[output]
mode = heat-flux
""")
    assert cfg.mode == "heat-flux"
    assert cfg.system.gap == 1e-7
    assert cfg.system.T1 == 350
    assert cfg.integration.rtol == 1e-8   # default applied
    assert cfg.threads == 1


def test_parse_film_sections():
    cfg = parse_config("""
[gap]
gap = 5e-8
T1 = 300
T2 = 300

[body1]
material = black

[body1.film.1]
material = constant
eps_re = 2
thickness = 1e-8

[body2]
material = black

[output]
mode = heat-flux
""")
    films = cfg.system.body1.films
    assert len(films) == 1
    assert films[0][1] == 1e-8


def test_negative_gap_names_key_and_line():
    text = "[gap]\ngap = -1e-9\nT1 = 300\nT2 = 200\n[body1]\nmaterial = black\n" \
           "[body2]\nmaterial = black\n[output]\nmode = heat-flux\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("line 2" in e and "gap" in e for e in err.value.errors)


def test_unsorted_table_is_rejected(tmp_path):
    table = tmp_path / "mat.tsv"
    table.write_text("2e13 2 0.1 1 0\n1e13 2 0.1 1 0\n3e13 2 0.1 1 0\n")
    text = f"""
[gap]
gap = 1e-7
T1 = 300
T2 = 200

[body1]
material = tabulated
table = {table.name}

[body2]
material = black

[output]
mode = heat-flux
"""
    with pytest.raises(ConfigError) as err:
        parse_config(text, base_dir=tmp_path)
    assert any("non-monotonic table" in e for e in err.value.errors)


def test_unknown_key_and_section_reported():
    text = "[gap]\ngap = 1e-7\nT1 = 300\nT2 = 200\nbogus = 1\n[body1]\nmaterial = black\n" \
           "wrong_key = 2\n[body2]\nmaterial = black\n[nonsense]\nx = 1\n[output]\nmode = heat-flux\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msgs = "\n".join(err.value.errors)
    assert "wrong_key" in msgs
    assert "nonsense" in msgs
    assert "bogus" in msgs


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError, match="unknown mode"):
        parse_config("[output]\nmode = sideways\n")


def run_cli(tmp_path, config_text, *args):
    conf = tmp_path / "run.conf"
    conf.write_text(config_text, encoding="utf-8")
    return main(["--config", str(conf), *args])


def test_spectrum_blackbody_rows(tmp_path):
    text = BB_GAP + """
[output]
mode = spectrum
dir = out
omega_min = 1e13
omega_max = 1e15
points = 5
scale = log
"""
    assert run_cli(tmp_path, text) == 0
    payload = (tmp_path / "out" / "spectrum.csv").read_text()
    assert "# config_sha256 = " in payload
    assert "# version = " in payload
    lines = [l for l in payload.splitlines() if not l.startswith("#")]
    assert lines[0] == CSV_HEADER
    for row in csv.reader(lines[1:]):
        omega = float(row[0])
        te_total = float(row[1])
        ref = (omega / C) ** 2 / (2 * math.pi)
        assert abs(te_total - ref) <= 1e-8 * ref
        # 17 significant digits in scientific notation
        mantissa = row[1].split("e")[0]
        assert len(mantissa.replace("-", "").replace(".", "")) == 17


def test_heat_flux_summary(tmp_path):
    text = BB_GAP + "\n[integration]\nrtol = 1e-7\n\n[output]\nmode = heat-flux\ndir = out\n"
    assert run_cli(tmp_path, text) == 0
    payload = (tmp_path / "out" / "summary.txt").read_text()
    entries = dict(line.split(" = ", 1) for line in payload.splitlines())
    ref = SIGMA * (400.0**4 - 300.0**4)
    assert abs(float(entries["heat_flux_W_m2"]) - ref) <= 1e-6 * ref
    assert float(entries["error_estimate"]) < 1e-4 * ref
    assert float(entries["window_lo_rad_s"]) > 0
    assert entries["converged"] == "true"
    assert len(entries["config_sha256"]) == 64
    assert entries["version"]


def test_conductance_and_pressure_modes(tmp_path):
    text = BB_GAP + "\n[integration]\nrtol = 1e-7\n\n[output]\nmode = conductance\ndir = g\n"
    assert run_cli(tmp_path, text) == 0
    entries = dict(line.split(" = ", 1)
                   for line in (tmp_path / "g" / "summary.txt").read_text().splitlines())
    # conductance defaults to T = T1
    ref = 4 * SIGMA * 400.0**3
    assert abs(float(entries["conductance_W_m2K"]) - ref) <= 1e-6 * ref

    text = BB_GAP + "\n[integration]\nrtol = 1e-7\n\n[output]\nmode = pressure\ndir = p\n"
    assert run_cli(tmp_path, text) == 0
    entries = dict(line.split(" = ", 1)
                   for line in (tmp_path / "p" / "summary.txt").read_text().splitlines())
    ref = (2 / 3) * SIGMA * 400.0**4 / C
    assert abs(abs(float(entries["pressure_Pa"])) - ref) <= 1e-6 * ref
    assert "zero-point" in entries["note"]


def test_viewfactor_and_bb_heat_modes(tmp_path):
    save_obj(rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], 8, 8), tmp_path / "sq1.obj")
    save_obj(rectangle_mesh([0, 0, 1], [0, 1, 0], [1, 0, 0], 8, 8), tmp_path / "sq2.obj")
    text = """
[geometry]
mesh1 = sq1.obj
mesh2 = sq2.obj
quad_order = 4
T1 = 400
T2 = 300

[output]
mode = viewfactor
dir = vf
"""
    assert run_cli(tmp_path, text) == 0
    entries = dict(line.split(" = ", 1)
                   for line in (tmp_path / "vf" / "summary.txt").read_text().splitlines())
    oracle = parallel_rectangle_viewfactor(1, 1, 1)
    assert abs(float(entries["viewfactor_F12"]) - oracle) <= 1e-3

    conf = tmp_path / "run.conf"
    assert main(["--config", str(conf), "--mode", "bb-heat", "--out",
                 str(tmp_path / "bb")]) == 0
    entries = dict(line.split(" = ", 1)
                   for line in (tmp_path / "bb" / "summary.txt").read_text().splitlines())
    assert entries["mode"] == "bb-heat"
    rate = float(entries["heat_rate_W"])
    assert abs(rate - oracle * SIGMA * (400**4 - 300**4)) <= 2e-3 * rate
    assert abs(float(entries["heat_rate_spectral_W"]) - rate) <= 1e-6 * rate


def test_rerun_byte_reproducible_and_threads_agree(tmp_path):
    text = """
[gap]
gap = 1e-7
T1 = 400
T2 = 300

[body1]
material = constant
eps_re = 3
eps_im = 0.4

[body2]
material = constant
eps_re = 3
eps_im = 0.4

[integration]
rtol = 1e-6

[output]
mode = spectrum
dir = out
omega_min = 5e13
omega_max = 5e14
points = 4
scale = log
"""
    assert run_cli(tmp_path, text) == 0
    first = (tmp_path / "out" / "spectrum.csv").read_bytes()
    assert run_cli(tmp_path, text) == 0
    assert (tmp_path / "out" / "spectrum.csv").read_bytes() == first

    conf = tmp_path / "run.conf"
    assert main(["--config", str(conf), "--threads", "3",
                 "--out", str(tmp_path / "out3")]) == 0
    threaded = (tmp_path / "out3" / "spectrum.csv").read_text()
    serial = first.decode()
    # identical data rows; metadata records the thread count
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("#")]
    assert strip(threaded) == strip(serial)
    assert "# threads = 3" in threaded


def test_mode_and_tolerance_overrides(tmp_path):
    text = BB_GAP + "\n[output]\nmode = heat-flux\ndir = out\n"
    conf = tmp_path / "run.conf"
    conf.write_text(text, encoding="utf-8")
    assert main(["--config", str(conf), "--mode", "conductance",
                 "--tolerance", "1e-6"]) == 0
    payload = (tmp_path / "out" / "summary.txt").read_text()
    assert "mode = conductance" in payload


def test_quadrature_failure_labels_output_and_exits_1(tmp_path, capsys):
    # nearly lossless eps ~ -1 surface mode with a starved subdivision budget
    text = """
[gap]
gap = 1e-8
T1 = 400
T2 = 300

[body1]
material = constant
eps_re = -1.0001
eps_im = 1e-6

[body2]
material = constant
eps_re = -1.0001
eps_im = 1e-6

[integration]
rtol = 1e-12
max_subdivisions = 2

[output]
mode = spectrum
dir = out
omega_min = 1.7e14
omega_max = 1.8e14
points = 2
scale = linear
"""
    assert run_cli(tmp_path, text) == 1
    payload = (tmp_path / "out" / "spectrum.csv").read_text()
    assert "# warning = quadrature did not converge" in payload
    assert "partial output" in payload
    assert "did not converge" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("[gap]\ngap = -1\n[output]\nmode = heat-flux\n")
    assert main(["--config", str(conf)]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.conf")]) == 2
    assert "not found" in capsys.readouterr().err


def test_mode_override_needs_no_mode_key(tmp_path):
    # a commented [output] header without a mode key: --mode supplies it
    text = BB_GAP + "\n[integration]\nrtol = 1e-6\n\n[output]   # results\ndir = out\n"
    assert run_cli(tmp_path, text, "--mode", "heat-flux") == 0
    payload = (tmp_path / "out" / "summary.txt").read_text()
    assert "mode = heat-flux" in payload.splitlines()


def test_mode_override_hashes_the_file_as_read(tmp_path):
    text = BB_GAP + "\n[integration]\nrtol = 1e-6\n\n[output]\nmode = conductance\ndir = out\n"
    assert run_cli(tmp_path, text, "--mode", "heat-flux") == 0
    entries = dict(line.split(" = ", 1) for line in
                   (tmp_path / "out" / "summary.txt").read_text().splitlines())
    assert entries["mode"] == "heat-flux"
    assert entries["config_sha256"] == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_window_outside_table_is_a_config_error(tmp_path, capsys):
    (tmp_path / "eps.txt").write_text("1e13 4.0 0.5 1.0 0.0\n1e15 2.0 0.1 1.0 0.0\n")
    text = BB_GAP.replace("[body1]\nmaterial = black",
                          "[body1]\nmaterial = tabulated\ntable = eps.txt")
    assert run_cli(tmp_path, text + "\n[output]\nmode = heat-flux\ndir = out\n") == 2
    err = capsys.readouterr().err
    assert "config error: body1" in err
    assert "[1.000000e+13, 1.000000e+15]" in err
    assert not (tmp_path / "out" / "summary.txt").exists()


def test_unsupported_quad_order_is_a_config_error(tmp_path, capsys):
    save_obj(rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], 2, 2), tmp_path / "sq1.obj")
    save_obj(rectangle_mesh([0, 0, 1], [0, 1, 0], [1, 0, 0], 2, 2), tmp_path / "sq2.obj")
    text = ("[geometry]\nmesh1 = sq1.obj\nmesh2 = sq2.obj\nquad_order = 3\n\n"
            "[output]\nmode = viewfactor\ndir = out\n")
    assert run_cli(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert "config error: line 4: key 'quad_order'" in err
    assert not (tmp_path / "out" / "summary.txt").exists()


def test_negative_threads_key_is_clamped_like_the_flag(tmp_path):
    text = BB_GAP + ("\n[integration]\nrtol = 1e-6\nthreads = -3\n\n"
                     "[output]\nmode = heat-flux\ndir = out\n")
    assert parse_config(text).threads == 1
    assert run_cli(tmp_path, text) == 0
    lines = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    assert "threads = 1" in lines


@pytest.mark.parametrize("edit, key, line", [
    (("gap = 1e-6", "gap = nan"), "gap", 3),
    (("gap = 1e-6", "gap = inf"), "gap", 3),
    (("T1 = 400", "T1 = nan"), "T1", 4),
    (("T2 = 300", "T2 = -inf"), "T2", 5),
    (("T2 = 300", "T2 = 300\nT = inf"), "T", 6),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, edit, key, line):
    text = BB_GAP.replace(*edit) + "\n[output]\nmode = conductance\ndir = out\n"
    assert run_cli(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert f"config error: line {line}: key {key!r}: not a finite number" in err
    assert not (tmp_path / "out").exists()


def test_non_finite_film_thickness_is_a_config_error(tmp_path, capsys):
    text = BB_GAP + "\n[body1.film.1]\nmaterial = black\nthickness = nan\n" \
        "\n[output]\nmode = heat-flux\ndir = out\n"
    assert run_cli(tmp_path, text) == 2
    assert "key 'thickness': not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["term.1.strength", "mu_term.1.gamma"])
@pytest.mark.parametrize("value", ["nan", "inf", "abc"])
def test_bad_oscillator_term_is_one_error_on_its_own_line(tmp_path, capsys, key, value):
    lorentz = ("[body1]\nmaterial = lorentz\neps_inf = 6.7\nterm.1.strength = 3.3\n"
               "term.1.omega0 = 1.5e14\nterm.1.gamma = 9e11\nmu_term.1.strength = 0.1\n"
               "mu_term.1.omega0 = 1e14\nmu_term.1.gamma = 1e12")
    edited = "\n".join(f"{key} = {value}" if ln.startswith(key + " ") else ln
                       for ln in lorentz.splitlines())
    text = BB_GAP.replace("[body1]\nmaterial = black", edited)
    line = next(i for i, ln in enumerate(text.splitlines(), 1) if ln.startswith(key + " "))
    assert run_cli(tmp_path, text + "\n[output]\nmode = heat-flux\ndir = out\n") == 2
    errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("config error")]
    assert errors == [f"config error: line {line}: key {key!r}: not a finite number: {value!r}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lo, hi", [("0", "1e15"), ("-1e13", "1e15"), ("2e15", "1e15")])
def test_bad_frequency_window_is_a_config_error(tmp_path, capsys, lo, hi):
    text = BB_GAP + (f"\n[integration]\nomega_lo = {lo}\nomega_hi = {hi}\n\n"
                     "[output]\nmode = heat-flux\ndir = out\n")
    assert run_cli(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert "config error: [integration]: frequency window must satisfy 0 < lo < hi < inf" in err
    assert not (tmp_path / "out").exists()


def config_errors(capsys):
    return [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("config error")]


@pytest.mark.parametrize("body1, key, model", [
    ("material = constant\nomega_p = 1e16", "omega_p", "constant"),
    ("material = black\neps_re = 2", "eps_re", "black"),
    ("material = drude\neps_inf = 1\nomega_p = 1e16\ngamma = 1e14\nterm.1.strength = 1",
     "term.1.strength", "drude"),
    ("material = lorentz\ntable = eps.txt", "table", "lorentz"),
    ("material = black\nthickness = 1e-8", "thickness", "black"),
], ids=["constant", "black", "drude", "lorentz", "terminal-thickness"])
def test_key_the_model_never_reads_is_one_error(tmp_path, capsys, body1, key, model):
    text = BB_GAP.replace("[body1]\nmaterial = black", "[body1]\n" + body1)
    line = next(i for i, ln in enumerate(text.splitlines(), 1) if ln.startswith(key + " "))
    assert run_cli(tmp_path, text + "\n[output]\nmode = heat-flux\ndir = out\n") == 2
    assert config_errors(capsys) == [
        f"config error: line {line}: unknown key {key!r} in [body1] (material {model!r})"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("gamma, error", [
    ("", "line 7: missing key 'gamma' in [body1]"),
    ("gamma = nan\n", "line 11: key 'gamma': not a finite number: 'nan'"),
], ids=["missing", "nan"])
def test_bad_drude_value_is_one_error(tmp_path, capsys, gamma, error):
    drude = "[body1]\nmaterial = drude\neps_inf = 1\nomega_p = 1e16\n" + gamma
    text = BB_GAP.replace("[body1]\nmaterial = black\n", drude)
    assert run_cli(tmp_path, text + "\n[output]\nmode = heat-flux\ndir = out\n") == 2
    assert config_errors(capsys) == [f"config error: {error}"]


def test_heat_flux_without_a_positive_temperature_is_a_config_error(tmp_path, capsys):
    text = BB_GAP.replace("T1 = 400", "T1 = 0").replace("T2 = 300", "T2 = 0")
    assert run_cli(tmp_path, text + "\n[output]\nmode = heat-flux\ndir = out\n") == 2
    assert config_errors(capsys) == ["config error: [gap]: heat-flux mode needs T1 > 0 or T2 > 0"]
    assert not (tmp_path / "out").exists()


def test_gap_below_the_float_range_is_a_config_error_on_its_line(tmp_path, capsys):
    text = BB_GAP.replace("gap = 1e-6", "gap = 1e-200")
    assert run_cli(tmp_path, text + "\n[output]\nmode = heat-flux\ndir = out\n") == 2
    assert config_errors(capsys) == ["config error: line 3: gap 1e-200 m is too small: "
                                     "(EVANESCENT_CUTOFF/gap)^2 overflows"]
    assert not (tmp_path / "out").exists()


def test_non_finite_mesh_vertex_is_a_config_error_on_its_line(tmp_path, capsys):
    save_obj(rectangle_mesh([0, 0, 1], [0, 1, 0], [1, 0, 0], 2, 2), tmp_path / "sq2.obj")
    (tmp_path / "sq1.obj").write_text("v 0 0 0\nv nan 1 0\nv 1 0 0\nf 1 2 3\n")
    text = "[geometry]\nmesh1 = sq1.obj\nmesh2 = sq2.obj\n[output]\nmode = viewfactor\ndir = out\n"
    assert run_cli(tmp_path, text) == 2
    (error,) = config_errors(capsys)
    assert error.startswith("config error: line 2: ")
    assert error.endswith("sq1.obj:2: non-finite vertex 'v nan 1 0'")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["heat-flux", "viewfactor"])
@pytest.mark.parametrize("section, entry, error", [
    ("gap", "T = -5", "key 'T': must be > 0, got -5.0"),
    ("gap", "source = 3", "key 'source': must be 1 or 2, got 3"),
    ("output", "omega_min = -1", "key 'omega_min': must be > 0, got -1.0"),
    ("output", "points = 0", "key 'points': must be >= 1, got 0"),
    ("output", "scale = cubic", "key 'scale': must be log or linear"),
    ("geometry", "T1 = -5", "key 'T1': must be >= 0, got -5.0"),
    ("geometry", "quad_order = 3", "key 'quad_order': must be one of [1, 2, 4, 7], got 3"),
], ids=["T", "source", "omega_min", "points", "scale", "geometry-T1", "quad_order"])
def test_bad_value_of_another_mode_is_one_error_on_its_line(tmp_path, capsys, mode,
                                                           section, entry, error):
    save_obj(rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], 1, 1), tmp_path / "sq1.obj")
    save_obj(rectangle_mesh([0, 0, 1], [0, 1, 0], [1, 0, 0], 1, 1), tmp_path / "sq2.obj")
    text = BB_GAP + ("\n[geometry]\nmesh1 = sq1.obj\nmesh2 = sq2.obj\n"
                     f"\n[output]\nmode = {mode}\ndir = out\n")
    text = text.replace(f"[{section}]\n", f"[{section}]\n{entry}\n")
    line = text.splitlines().index(entry) + 1
    assert run_cli(tmp_path, text) == 2
    assert config_errors(capsys) == [f"config error: line {line}: {error}"]
    assert not (tmp_path / "out").exists()


def test_valid_keys_of_other_modes_still_parse():
    text = BB_GAP.replace("T2 = 300", "T2 = 300\nT = 300\nsource = 2") + (
        "\n[output]\nmode = heat-flux\nomega_min = 1e13\nomega_max = 1e15\n"
        "points = 5\nscale = linear\n")
    for mode in ("heat-flux", "conductance", "pressure", "spectrum"):
        cfg = parse_config(text, mode=mode)
        assert cfg.T == 300.0 and cfg.source == 2


def test_failed_run_leaves_no_output_directory(tmp_path, capsys):
    # the momentum ceiling overflows only inside the run, once the window is known
    sic = ("[body1]\nmaterial = lorentz\neps_inf = 6.7\nterm.1.strength = 3.3\n"
           "term.1.omega0 = 1.5e14\nterm.1.gamma = 9e11")
    text = BB_GAP.replace("gap = 1e-6", "gap = 1e-110").replace("[body1]\nmaterial = black", sic)
    assert run_cli(tmp_path, text + "\n[output]\nmode = pressure\n",
                   "--out", str(tmp_path / "out")) == 1
    assert "error: branch ceiling is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["T1", "T2"])
def test_gap_temperature_whose_fourth_power_overflows_is_a_config_error(tmp_path, capsys, key):
    text = BB_GAP.replace(f"{key} = {dict(T1=400, T2=300)[key]}", f"{key} = 1e78")
    line = text.splitlines().index(f"{key} = 1e78") + 1
    assert run_cli(tmp_path, text + "\n[output]\nmode = heat-flux\ndir = out\n") == 2
    assert config_errors(capsys) == [
        f"config error: line {line}: {key} = 1e+78 K is too large: T^4 overflows"]
    assert not (tmp_path / "out").exists()


def test_geometry_temperature_whose_fourth_power_overflows_is_one_named_error(tmp_path, capsys):
    save_obj(rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], 1, 1), tmp_path / "sq1.obj")
    save_obj(rectangle_mesh([0, 0, 1], [0, 1, 0], [1, 0, 0], 1, 1), tmp_path / "sq2.obj")
    text = ("[geometry]\nmesh1 = sq1.obj\nmesh2 = sq2.obj\nT1 = 1e78\nT2 = 300\n"
            "[output]\nmode = bb-heat\ndir = out\n")
    assert run_cli(tmp_path, text) == 1
    assert capsys.readouterr().err == "error: T1 = 1e+78 K is too large: T^4 overflows\n"
    assert not (tmp_path / "out").exists()


# gap and bodies on lines 1-8; each case's own lines follow
_BB = "[gap]\ngap = 1e-6\nT1 = 400\nT2 = 300\n[body1]\nmaterial = black\n[body2]\nmaterial = black\n"
_HEAT = "[output]\nmode = heat-flux\n"
_SQUARES = "[geometry]\nmesh1 = sq1.obj\n"
_TRIANGLE = {"sq1.obj": "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"}


def _body1(lines):
    return _BB.replace("[body1]\nmaterial = black\n", "[body1]\n" + lines)


@pytest.mark.parametrize("text, files, args, code, stderr", [
    ("junk\n" + _BB + _HEAT, {}, (), 2,
     ["config error: line 1: expected 'key = value', got 'junk'"]),
    ("x = 1\n" + _BB + _HEAT, {}, (), 2, ["config error: line 1: key outside any [section]"]),
    (_BB + _HEAT + "= 3\n", {}, (), 2, ["config error: line 11: empty key"]),
    (_BB + _HEAT + "mode = spectrum\n", {}, (), 2,
     ["config error: line 11: duplicate key 'mode' in [output]"]),
    (_BB + _HEAT + "[integration]\nmax_subdivisions = 1.5\n", {}, (), 2,
     ["config error: line 12: key 'max_subdivisions': not an integer: '1.5'"]),
    (_body1("material = tabulated\ntable = eps.txt\n") + _HEAT, {}, (), 2,
     ["config error: line 7: table file not found: {tmp}/eps.txt"]),
    (_body1("material = tabulated\ntable = eps.txt\n") + _HEAT, {"eps.txt": "1e14 2 0.1 1\n"},
     (), 2, ["config error: line 7: {tmp}/eps.txt:1: need 5 columns "
             "(omega eps_re eps_im mu_re mu_im)"]),
    (_body1("material = tabulated\ntable = eps.txt\n") + _HEAT,
     {"eps.txt": "# omega eps mu\n1e14 2 x 1 0\n"}, (), 2,
     ["config error: line 7: {tmp}/eps.txt:2: non-numeric entry"]),
    (_body1("eps_re = 2\n") + _HEAT, {}, (), 2,
     ["config error: line 5: missing key 'material' in [body1]"]),
    (_body1("material = glass\n") + _HEAT, {}, (), 2,
     ["config error: line 6: unknown material model 'glass'"]),
    (_body1("material = lorentz\nterm.1.strength = 3.3\n") + _HEAT, {}, (), 2,
     ["config error: [body1] term.1 missing ['gamma', 'omega0']"]),
    (_body1("material = tabulated\n") + _HEAT, {}, (), 2,
     ["config error: line 6: tabulated material needs a 'table' key"]),
    (_body1("material = drude\neps_inf = 1\nomega_p = 1e16\ngamma = -1e14\n") + _HEAT, {}, (),
     2, ["config error: line 6: [body1]: Drude omega_p and gamma must be >= 0"]),
    (_BB + "[body1.film.2]\nmaterial = black\nthickness = 1e-8\n" + _HEAT, {}, (), 2,
     ["config error: [body1.film.2]: film indices must be 1..N without gaps"]),
    (_BB, {}, (), 2, ["config error: missing key 'mode' in [output]"]),
    (_BB + _HEAT + "[integration]\nomega_lo = 1e13\n", {}, (), 2,
     ["config error: [integration]: omega_lo and omega_hi must be given together"]),
    (_BB + "[output]\nmode = spectrum\nomega_min = 2e14\nomega_max = 1e14\n", {}, (), 2,
     ["config error: [output]: need 0 < omega_min < omega_max"]),
    (_BB.replace("T2 = 300", "source = 2") + "[output]\nmode = pressure\n", {}, (), 2,
     ["config error: [gap]: pressure mode needs T2 > 0"]),
    (_SQUARES + "[output]\nmode = viewfactor\n", _TRIANGLE, (), 2,
     ["config error: missing key 'mesh2' in [geometry]"]),
    (_SQUARES + "mesh2 = sq2.obj\n[output]\nmode = viewfactor\n", _TRIANGLE, (), 2,
     ["config error: line 3: mesh file not found: {tmp}/sq2.obj"]),
    (_BB + _HEAT, {}, ("--tolerance", "-1"), 2,
     ["error: --tolerance: rtol must be positive, got -1.0"]),
    (_BB + "[output]\nmode = heat-flux\ndir = out\n"
     "[integration]\nrtol = 1e-15\nmax_subdivisions = 0\n", {}, (), 1,
     ["warning: quadrature did not converge; partial result in {tmp}/out/summary.txt"]),
], ids=["no-equals", "outside-section", "empty-key", "duplicate-key", "not-an-integer",
        "table-not-found", "table-columns", "table-entry", "missing-material",
        "unknown-model", "term-missing", "table-key", "drude-gamma", "film-indices",
        "missing-mode", "window-half", "omega-order", "pressure-T2", "missing-mesh2",
        "mesh-not-found", "tolerance", "not-converged"])
def test_refusals_name_their_cause_and_exit_code(tmp_path, capsys, text, files, args, code,
                                                 stderr):
    for name, content in files.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    assert run_cli(tmp_path, text, *args) == code
    tmp = tmp_path.resolve()
    assert capsys.readouterr().err.splitlines() == [line.format(tmp=tmp) for line in stderr]
    if code == 1:   # a scalar run's partial result says it did not converge
        summary = (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8")
        assert "converged = false" in summary.splitlines()


def test_bb_heat_mode_exits_1_on_an_unconverged_frequency_integral(tmp_path, capsys):
    save_obj(rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], 2, 2), tmp_path / "sq1.obj")
    save_obj(rectangle_mesh([0, 0, 1], [0, 1, 0], [1, 0, 0], 2, 2), tmp_path / "sq2.obj")
    text = ("[geometry]\nmesh1 = sq1.obj\nmesh2 = sq2.obj\nT1 = 400\nT2 = 300\n"
            "[integration]\nrtol = 1e-15\nmax_subdivisions = 0\n[output]\nmode = bb-heat\n"
            "dir = out\n")
    assert run_cli(tmp_path, text) == 1
    assert capsys.readouterr().err.startswith(
        "error: the blackbody heat rate's frequency integral did not converge (error ")
    assert not (tmp_path / "out").exists()
