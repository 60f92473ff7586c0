"""Field serialization, config parsing, and the CLI pipelines."""

import json
from pathlib import Path

import numpy as np
import pytest

from affinehe.cli import main
from affinehe.config import load_config
from affinehe.errors import ValidationError
from affinehe.fields_io import dump_field, load_field
from affinehe.torus import AffineTorus, random_smooth_scalar


def write(path, text):
    Path(path).write_text(text)
    return str(path)


BASE = """
[torus]
dim = 1
resolution = {N}

[metric]
type = constant
matrix = 1.0

[bundle]
rank = {rank}
field = {field}
{monodromy}

[solver]
max_steps = 400

[output]
dir = {out}
"""


def test_field_roundtrip(tmp_path, rng):
    t = AffineTorus(2, 8)
    s = random_smooth_scalar(t, rng)
    p = tmp_path / "s.txt"
    dump_field(p, t, s, "scalar")
    n, N, tag, rank, back = load_field(p)
    assert (n, N, tag, rank) == (2, 8, "scalar", 1)
    assert np.abs(back - s).max() < 1e-15

    F = rng.standard_normal((8, 8, 2, 2)) + 1j * rng.standard_normal((8, 8, 2, 2))
    p2 = tmp_path / "f.txt"
    dump_field(p2, t, F, "endo")
    *_, back2 = load_field(p2)
    assert np.abs(back2 - F).max() < 1e-15


def test_field_header_checked(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 8 wizard 1\n")
    with pytest.raises(ValidationError):
        load_field(p)


def test_config_parse_and_validate(tmp_path):
    p = write(tmp_path / "c.ini", BASE.format(
        N=16, rank=2, field="complex", monodromy="monodromy1 = 1 1 0 1",
        out=tmp_path / "o"))
    cfg = load_config(p)
    cfg.validate()
    assert cfg.resolution == 16 and cfg.rank == 2
    b = cfg.bundle()
    assert b.rank == 2
    t = cfg.torus()
    g = cfg.metric(t)
    assert np.abs(g.g - np.eye(1)).max() == 0.0


def test_config_rejects_bad_values(tmp_path):
    p = write(tmp_path / "c.ini", BASE.format(
        N=4, rank=1, field="complex", monodromy="monodromy1 = 1",
        out=tmp_path / "o"))
    with pytest.raises(ValidationError):
        load_config(p).validate()
    assert main(["solve", "--config", p]) == 1  # exit code 1 on validation


@pytest.mark.parametrize("text, named", [
    ("[torus]\nresolutoin = 16\n", "'resolutoin'"),
    ("[solver]\nm-max = 50\n", "'m-max'"),
    ("[torus]\ndim = two\n", "dim = 'two'"),
    ("[torus]\ndim = 2\n[bundle]\nmonodromy1 = 1\nmonodromy3 = 1\n",
     "monodromy2 is missing"),
    ("[solvr]\nm_max = 50\n", "[solvr]"),
    ("dim = 2\n", "malformed"),
], ids=["misspelled-key", "hyphenated-key", "unparsable-int", "monodromy-gap",
        "unknown-section", "no-section-header"])
def test_config_rejects_unknown_and_unparsable_input(tmp_path, capsys, text, named):
    p = write(tmp_path / "c.ini", text)
    assert main(["gauduchon", "--config", p, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and named in err


@pytest.mark.parametrize("text, named", [
    ("[solver]\nm_max = 0\n", "[solver] m_max = 0.0"),
    ("[solver]\nm_max = -1\n", "[solver] m_max = -1.0"),
    ("[solver]\nnewton_tol = nan\n", "[solver] newton_tol = nan"),
    ("[solver]\nepsilon_min = 0\n", "[solver] epsilon_min = 0.0"),
    ("[solver]\nmax_steps = 0\n", "[solver] max_steps = 0"),
    ("[bundle]\nrank = 0\n", "[bundle] rank = 0"),
    ("[bundle]\nrank = -1\n", "[bundle] rank = -1"),
    ("[metric]\ntype = conformal_sin\namplitude = nan\n", "[metric] amplitude = nan"),
    ("[metric]\nmatrix = nan\n", "metric g has non-finite entries"),
    ("[perturbation]\namplitude = nan\n", "[perturbation] amplitude = nan"),
    ("[perturbation]\namplitude = -0.1\n", "[perturbation] amplitude = -0.1"),
    ("[perturbation]\namplitude = inf\n", "[perturbation] amplitude = inf"),
    ("[perturbation]\nmodes = 0\n", "[perturbation] modes = 0"),
], ids=["m_max-zero", "m_max-negative", "newton_tol-nan", "epsilon_min-zero",
        "max_steps-zero", "rank-zero", "rank-negative", "amplitude-nan", "matrix-nan",
        "perturbation-amplitude-nan", "perturbation-amplitude-negative",
        "perturbation-amplitude-inf", "perturbation-modes-zero"])
def test_cli_solve_rejects_out_of_range_values(tmp_path, capsys, text, named):
    p = write(tmp_path / "c.ini", "[torus]\ndim = 1\nresolution = 16\n" + text)
    assert main(["solve", "--config", p, "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and named in err


def test_missing_config_is_validation_error():
    assert main(["solve", "--config", "/nonexistent/x.ini"]) == 1


WORK_KEYS = ("newton_directions", "line_search_trials", "tangent_solves",
             "krylov_matvecs", "krylov_unconverged", "eps_backtracks", "eps_zero_probes")


def test_cli_solve_converged(tmp_path):
    # rank 1 ends at the background normalization: no eps-path rows and no
    # Newton work
    p = write(tmp_path / "c.ini", BASE.format(
        N=32, rank=1, field="complex", monodromy="monodromy1 = 1",
        out=tmp_path / "out") + "\n[perturbation]\namplitude = 0.4\nmodes = 1\n")
    assert main(["solve", "--config", p, "--quiet"]) == 0
    rep = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert rep["status"] == "converged"
    assert rep["K_defect"]["value"] <= rep["K_defect"]["tolerance"]
    assert rep["steps"] == 0
    assert {key: rep[key] for key in WORK_KEYS} == dict.fromkeys(WORK_KEYS, 0)
    log = (tmp_path / "out" / "convergence_log.csv").read_text().splitlines()
    assert log == ["step,epsilon,residual,m,det_defect"]
    assert (tmp_path / "out" / "final_metric.txt").exists()


def test_cli_solve_converged_counts_its_path_work(tmp_path):
    # T^1 N=32 diag(2,3), perturbed: the path predictor's tangent solves are
    # counted apart from the Newton directions
    p = write(tmp_path / "c.ini", BASE.format(
        N=32, rank=2, field="complex", monodromy="monodromy1 = 2 0 0 3",
        out=tmp_path / "out") + "\n[perturbation]\namplitude = 0.1\nmodes = 1\n")
    assert main(["solve", "--config", p, "--quiet"]) == 0
    rep = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert rep["status"] == "converged"
    assert rep["K_defect"]["value"] <= rep["K_defect"]["tolerance"]
    assert rep["tangent_solves"] > 0 and rep["newton_directions"] > 0
    assert rep["eps_backtracks"] == 0 and rep["eps_zero_probes"] == 1
    log = (tmp_path / "out" / "convergence_log.csv").read_text().splitlines()
    assert log[0] == "step,epsilon,residual,m,det_defect"
    assert len(log) == rep["steps"] + 1 > 1


def test_cli_solve_blowup_chains_destabilizer(tmp_path):
    p = write(tmp_path / "c.ini", BASE.format(
        N=32, rank=2, field="complex", monodromy="monodromy1 = 1 1 0 1",
        out=tmp_path / "out"))
    assert main(["solve", "--config", p, "--quiet"]) == 0
    rep = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert rep["status"] == "blowup"
    assert rep["m_at_blowup"] >= 25.0
    dest = json.loads((tmp_path / "out" / "destabilizer_report.json").read_text())
    assert dest["rank"] == 1
    basis = np.array([complex(a, b) for a, b in dest["subbundle_basis"]])
    assert np.abs(np.abs(basis) - [1.0, 0.0]).max() < 1e-10
    for key, item in dest["projection_defects"].items():
        assert item["value"] <= item["tolerance"], key


@pytest.mark.parametrize("monodromy", [
    "monodromy1 = 1 1 0 1\nmonodromy2 = 1 0 0 1",
    "monodromy1 = 1 0 0 1\nmonodromy2 = 1 1 0 1",
], ids=["axis1", "axis2"])
def test_cli_blowup_t2_line_search_work(tmp_path, monodromy):
    # the blowup_t2 benchmark config: each line search stops once a shorter
    # step stops helping, and the eps = 0 probe stops once it fails the
    # m-drift test, after one direction and two trials
    cfg = """
[torus]
dim = 2
resolution = 16

[metric]
type = constant
matrix = 1.0

[bundle]
rank = 2
{monodromy}

[solver]
m_max = 25

[output]
dir = {out}
"""
    p = write(tmp_path / "c.ini", cfg.format(monodromy=monodromy, out=tmp_path / "out"))
    assert main(["solve", "--config", p, "--quiet"]) == 0
    rep = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert rep["status"] == "blowup"
    assert (rep["line_search_trials"], rep["newton_directions"]) == (19, 17)
    # pins the rounding route too: a Krylov solver with other round-off
    # (scipy's LGMRES) moves it by about 5e-9 relative
    assert rep["m_at_blowup"] == pytest.approx(25.06146417558932, rel=1e-12)


def test_cli_unipotent_conformal_sin_blows_up(tmp_path):
    # the unipotent bundle under a conformal_sin metric blows up to span(e1);
    # with each Newton direction solved only to its forcing term the whole
    # run stays under 2000 Krylov matvecs (at rtol 1e-8 one eps = 0 probe
    # takes more than 7,000)
    cfg = """
[torus]
dim = 2
resolution = 16

[metric]
type = conformal_sin
amplitude = 0.3
axis = 1

[bundle]
rank = 2
monodromy1 = 1 1 0 1
monodromy2 = 1 0 0 1

[output]
dir = {out}
"""
    p = write(tmp_path / "c.ini", cfg.format(out=tmp_path / "out"))
    assert main(["solve", "--config", p, "--quiet"]) == 0
    rep = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert rep["status"] == "blowup"
    assert rep["krylov_matvecs"] <= 2000
    assert rep["newton_directions"] > 0
    dest = json.loads((tmp_path / "out" / "destabilizer_report.json").read_text())
    assert dest["rank"] == 1
    basis = np.array([complex(a, b) for a, b in dest["subbundle_basis"]])
    assert np.abs(np.abs(basis) - [1.0, 0.0]).max() < 1e-10


def test_cli_destabilize_from_dumped_state(tmp_path):
    p = write(tmp_path / "c.ini", BASE.format(
        N=32, rank=2, field="complex", monodromy="monodromy1 = 1 1 0 1",
        out=tmp_path / "out"))
    assert main(["solve", "--config", p, "--quiet"]) == 0
    assert main(["destabilize", "--config", p, "--state",
                 str(tmp_path / "out"), "--out", str(tmp_path / "d"),
                 "--quiet"]) == 0
    dest = json.loads((tmp_path / "d" / "destabilizer_report.json").read_text())
    assert dest["rank"] == 1


@pytest.mark.parametrize("h_grid,rank", [(8, 2), (16, 3)])
def test_cli_destabilize_rejects_mismatched_state(tmp_path, capsys, h_grid, rank):
    # a background dumped on another grid, or a state of another rank
    p = write(tmp_path / "c.ini", BASE.format(
        N=16, rank=2, field="complex", monodromy="monodromy1 = 1 1 0 1",
        out=tmp_path / "out"))
    state = tmp_path / "state"
    state.mkdir()
    for name, tag, N in (("blowup_f.txt", "endo", 16),
                         ("background_h0.txt", "hermitian", h_grid)):
        t = AffineTorus(1, N)
        dump_field(state / name, t,
                   np.broadcast_to(np.eye(rank), t.grid_shape + (rank, rank)), tag)
    assert main(["destabilize", "--config", p, "--state", str(state),
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "Traceback" not in err


def test_cli_stability_rotation(tmp_path):
    th = np.sqrt(2) * np.pi
    mono = " ".join(str(v) for v in
                    [np.cos(th), -np.sin(th), np.sin(th), np.cos(th)])
    p = write(tmp_path / "c.ini", BASE.format(
        N=32, rank=2, field="real", monodromy=f"monodromy1 = {mono}",
        out=tmp_path / "out"))
    assert main(["stability", "--config", p, "--quiet"]) == 0
    rep = json.loads((tmp_path / "out" / "stability_report.json").read_text())
    assert rep["label"] == "R-stable"
    assert rep["splitting"]["rank"] == 1


def test_cli_gauduchon(tmp_path):
    cfg = """
[torus]
dim = 2
resolution = 16

[metric]
type = conformal_sin
amplitude = 0.5
axis = 1

[bundle]
rank = 1
field = complex
monodromy1 = 1
monodromy2 = 1

[output]
dir = {out}
"""
    p = write(tmp_path / "c.ini", cfg.format(out=tmp_path / "out"))
    assert main(["gauduchon", "--config", p, "--quiet"]) == 0
    rep = json.loads((tmp_path / "out" / "gauduchon_report.json").read_text())
    assert rep["q_residual"]["value"] <= rep["q_residual"]["tolerance"]
    assert rep["factor_min"] > 0
    assert rep["kernel_solve_converged"] is True
    assert rep["lobpcg_converged"] is True
    # one GMRES step, whose image gives its residual, the Lanczos, LOBPCG's
    # start and iterations, and the final q_residual
    assert rep["iterations"] == 1
    assert rep["q_applications"] == (rep["iterations"] + rep["lanczos_steps"]
                                     + 1 + rep["lobpcg_iterations"] + 1)
    assert (tmp_path / "out" / "gauduchon_factor.txt").exists()


def test_cli_deterministic(tmp_path):
    p = write(tmp_path / "c.ini", BASE.format(
        N=32, rank=1, field="complex", monodromy="monodromy1 = 1",
        out=tmp_path / "a") + "\n[perturbation]\namplitude = 0.3\n")
    assert main(["solve", "--config", p, "--quiet", "--seed", "7"]) == 0
    assert main(["solve", "--config", p, "--quiet", "--seed", "7",
                 "--out", str(tmp_path / "b")]) == 0
    for name in ("solve_report.json", "convergence_log.csv", "final_metric.txt"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_cli_selftest():
    assert main(["selftest", "--quiet"]) == 0


def test_cli_grid_override(tmp_path):
    p = write(tmp_path / "c.ini", BASE.format(
        N=64, rank=1, field="complex", monodromy="monodromy1 = 1",
        out=tmp_path / "out"))
    assert main(["solve", "--config", p, "--grid", "16", "--quiet"]) == 0
    log = (tmp_path / "out" / "convergence_log.csv").read_text()
    # the final metric dump reflects the overridden grid
    head = (tmp_path / "out" / "final_metric.txt").read_text().splitlines()[0]
    assert head.split()[:2] == ["1", "16"]


def test_cli_solve_converged_above_k_defect_tolerance_fails(tmp_path, capsys):
    # the he_polystable_t1 config with newton_tol = 1e-4: the run converges,
    # but its K_defect (about 5e-5) is above the reported tolerance 1e-6, so
    # the solve exits 2 and says both numbers
    cfg = """
[torus]
dim = 1
resolution = 32

[metric]
type = constant
matrix = 1.0

[bundle]
rank = 2
monodromy1 = 2 0 0 3

[perturbation]
amplitude = 0.1
modes = 1

[solver]
newton_tol = 1e-4

[output]
dir = {out}
seed = 0
"""
    p = write(tmp_path / "c.ini", cfg.format(out=tmp_path / "out"))
    assert main(["solve", "--config", p, "--quiet"]) == 2
    rep = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert rep["status"] == "converged"
    kdef, ktol = rep["K_defect"]["value"], rep["K_defect"]["tolerance"]
    assert ktol == 1e-6 < kdef
    err = capsys.readouterr().err
    assert f"K_defect {kdef:.3e}" in err and f"tolerance {ktol:.1e}" in err


def test_cli_solve_failure_reports_its_cause(tmp_path, capsys):
    cfg = """
[torus]
dim = 2
resolution = 16

[metric]
type = constant
matrix = 1 0 0 1

[bundle]
rank = 2
monodromy1 = 2 0 0 3
monodromy2 = 1 0 0 1

[perturbation]
amplitude = 0.1

[output]
dir = {out}
seed = 0
"""
    p = write(tmp_path / "c.ini", cfg.format(out=tmp_path / "out"))
    assert main(["solve", "--config", p, "--quiet"]) == 2
    rep = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert rep["status"] == "max-iters"
    assert rep["message"] == "diverged at eps=1"
    assert "diverged at eps=1" in capsys.readouterr().err
