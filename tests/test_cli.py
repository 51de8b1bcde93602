import functools
import gc
import json
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import paqft
from paqft import cli, functionals, lattice, smatrix_renorm
from paqft.cli import DEFAULT_CONFIG, UsageError, load_config, main
from paqft.formal_series import MultilinearFamily
from paqft.functionals import (DensityTerm, GeneralizedLagrangian,
                               HbarScalar, HbarWindowError, PolyFunctional)
from paqft.lattice import Kernel, Lattice, LatticePoint
from paqft.smatrix_renorm import RenormalizationMap, default_s_plan

from oracles import bits

SMALL = ["--set", "samples.count=2", "--set", "caps.lambda_order=2",
         "--set", "caps.locality_order=2", "--set", "caps.sd_order=1"]


def _read(tmp_path, name):
    return json.loads((tmp_path / f"{name}.json").read_text())


def _assert_no_child():
    # every child this process forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# -- config handling -------------------------------------------------------


def test_load_config_overrides_and_defaults():
    cfg = load_config(None, ["lattice.nt=10", "tolerances.kernel=1e-9",
                             "output=elsewhere"])
    assert cfg["lattice"]["nt"] == 10
    assert cfg["lattice"]["nx"] == DEFAULT_CONFIG["lattice"]["nx"]
    assert cfg["tolerances"]["kernel"] == 1e-9
    assert cfg["output"] == "elsewhere"


@pytest.mark.parametrize("override, field", [
    ("lattice.nt=3", "lattice.nt"),
    ("lattice.mass=-1", "lattice.mass"),
    ("caps.degree=9", "caps.degree"),
    # every sampler draws degrees from 1 to caps.degree
    ("caps.degree=0", "caps.degree"),
    ("hadamard.mode=weird", "hadamard.mode"),
    ("extract.mode=weird", "extract.mode"),
    ("samples.count=0", "samples.count"),
    ("tolerances.series=0", "tolerances.series"),
    # JSON booleans are not numbers
    ("tolerances.kernel=true", "tolerances.kernel"),
    ("samples.count=true", "samples.count"),
    ("lattice.mass=false", "lattice.mass"),
    ("caps.degree=true", "caps.degree"),
    # fields that used to escape validation
    ("samples.seed=abc", "samples.seed"),
    ("samples.seed=1.7", "samples.seed"),
    ("samples.seed=-1", "samples.seed"),
    ("samples.seed=true", "samples.seed"),
    ("extract.functionals=0", "extract.functionals"),
    ("extract.functionals=2.5", "extract.functionals"),
    ("extract.kappa=abc", "extract.kappa"),
    ("extract.kappa=NaN", "extract.kappa"),
    ("extract.kappa=true", "extract.kappa"),
    ("hadamard.perturbation-seed=x", "hadamard.perturbation-seed"),
    ("hadamard.perturbation-scale=null", "hadamard.perturbation-scale"),
    ("correlate.lambda_cap=1.5", "correlate.lambda_cap"),
    # fields whose wrong type used to escape as a traceback with exit 1
    ("lattice=5", "lattice"),
    ("caps=null", "caps"),
    ("output=5", "output"),
    ('suites=[["S"]]', "suites"),
])
def test_config_validation_names_field(override, field):
    with pytest.raises(UsageError, match=field.replace(".", r"\.")):
        load_config(None, [override])


def test_unvalidated_field_errors_exit_2(tmp_path, capsys):
    # a bad seed used to escape as a ValueError traceback with exit 1
    assert main(["axioms", "--set", "samples.seed=abc",
                 "--set", f"output={tmp_path}"]) == 2
    assert "samples.seed" in capsys.readouterr().err
    assert not (tmp_path / "axioms.json").exists()
    # wrong types that used to escape as tracebacks with exit 1
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    for args, field in (
            (["--set", "lattice=5"], "lattice"),
            (["--set", "caps=null"], "caps"),
            (["--set", "output=5"], "output"),
            (["--config", str(listed)], "top level"),
            (["--set", 'suites=[["S"]]'], "suites"),
            (["--set", "lattice=5", "--set", "lattice.nt=4"], "lattice"),
            (["--set", "correlate.interaction=5"], "correlate")):
        command = "correlate" if "correlate" in args[-1] else "axioms"
        out = [] if field == "output" else ["--set", f"output={tmp_path}"]
        assert main([command, *args, *out]) == 2, args
        assert field in capsys.readouterr().err, args
    assert sorted(p.name for p in tmp_path.iterdir()) == ["list.json"]


def test_missing_config_file():
    with pytest.raises(UsageError, match="not found"):
        load_config("/no/such/config.json", [])


def test_unreadable_config_files_exit_2(tmp_path, capsys):
    # these used to escape as IsADirectoryError and UnicodeDecodeError
    # tracebacks with exit 1
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"output": "r\xe9ports"}'.encode("latin-1"))
    for path in (tmp_path, latin1):
        assert main(["propagators", "--config", str(path),
                     "--set", f"output={tmp_path / 'out'}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error") and str(path) in err
        assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_usage_errors_exit_2(tmp_path, capsys):
    out = f"output={tmp_path}"
    assert main(["axioms", "--set", "lattice.nt=3", "--set", out]) == 2
    assert "lattice.nt" in capsys.readouterr().err
    assert main(["axioms", "--set", "suites=[]", "--set", out]) == 2
    assert "empty suite list" in capsys.readouterr().err
    assert main(["axioms", "--set", 'suites=["bogus"]', "--set", out]) == 2
    assert "unknown suite" in capsys.readouterr().err
    assert main(["axioms", "--set", "nonsense", "--set", out]) == 2
    assert "--set expects" in capsys.readouterr().err
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("command, sets, caps", [
    ("correlate", ["correlate.lambda_cap=7"], "correlate.lambda_cap"),
    ("correlate", ["correlate.lambda_cap=8"], "correlate.lambda_cap"),
    ("correlate", ["correlate.lambda_cap=9"], "correlate.lambda_cap"),
    ("axioms", ["caps.locality_order=9", 'suites=["S"]'],
     "caps.locality_order"),
    ("axioms", ["caps.lambda_order=9", 'suites=["hammerstein"]'],
     "caps.lambda_order"),
    ("axioms", ["caps.sd_order=9", 'suites=["SD"]'], "caps.sd_order"),
])
def test_order_caps_past_the_hbar_window_exit_2(tmp_path, capsys, command,
                                                sets, caps):
    # these used to escape as a ValueError traceback with exit 1
    args = [command, "--set", f"output={tmp_path}",
            "--set", "samples.count=1"]
    for item in sets:
        args += ["--set", item]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "outside window [-8, 8]" in err and caps in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_order_caps_below_the_hbar_window_are_refused_before_any_work(
        tmp_path, capsys, monkeypatch):
    def no_build(cfg):
        raise AssertionError("built the lattice")

    monkeypatch.setattr(cli, "_build", no_build)
    for command, sets, setting, lowest in [
            ("correlate", ["correlate.lambda_cap=8"],
             "correlate.lambda_cap=8", -9),
            ("axioms", ["caps.locality_order=9", 'suites=["S"]'],
             "caps.locality_order=9", -9),
            ("axioms", ["caps.lambda_order=9", 'suites=["S"]'],
             "caps.lambda_order=9", -9),
            ("axioms", ["caps.lambda_order=10", 'suites=["SD", "Z"]'],
             "caps.lambda_order=10", -10),
            ("axioms", ["caps.lambda_order=9", 'suites=["hammerstein"]'],
             "caps.lambda_order=9", -9),
            ("axioms", ["caps.sd_order=9", 'suites=["SD"]'],
             "caps.sd_order=9", -9),
            ("extract-z", ["caps.lambda_order=9"], "caps.lambda_order=9",
             -9)]:
        args = [command, "--set", f"output={tmp_path}"]
        for item in sets:
            args += ["--set", item]
        assert main(args) == 2
        field = setting.split("=")[0]
        assert (f"{setting} reaches hbar exponent {lowest}, outside window "
                f"[-8, 8]: lower {field}") in capsys.readouterr().err


def test_order_caps_are_checked_only_by_the_commands_that_read_them(
        tmp_path):
    out = ["--set", f"output={tmp_path}"]
    unread = ["--set", "caps.lambda_order=9", "--set", "caps.locality_order=9",
              "--set", "caps.sd_order=9"]
    assert main(["propagators", "--set", "lattice.nt=8",
                 "--set", "lattice.nx=8", "--set", "correlate.lambda_cap=9"]
                + unread + out) == 0
    assert main(["correlate"] + unread + out) == 0


def test_hbar_window_breach_in_a_pool_worker_exits_2(tmp_path, capsys,
                                                     monkeypatch):
    # the upper side of the window (contractions adding hbar^r) has no
    # static check: a worker that breaches it raises, and the error
    # crosses the pool to main, which exits 2 naming the command's caps
    parent = os.getpid()

    def breach():
        if os.getpid() == parent:
            return []
        return HbarScalar({9: 1.0})

    monkeypatch.setitem(cli.SUITES, "S", lambda cfg, lat, S: [list, breach])
    assert main(["axioms", "--set", 'suites=["S"]',
                 "--set", f"output={tmp_path}"]) == 2
    err = capsys.readouterr().err
    assert "hbar exponent 9 outside window [-8, 8]" in err
    assert cli.ORDER_CAPS["axioms"] in err and "Traceback" not in err
    _assert_no_child()
    assert not any(tmp_path.iterdir())


def test_hbar_window_error_pickles_as_itself():
    # what carries it from a fork-pool worker back to the parent
    err = pickle.loads(pickle.dumps(HbarWindowError("hbar exponent 9")))
    assert type(err) is HbarWindowError and str(err) == "hbar exponent 9"
    assert isinstance(err, ValueError)


@pytest.mark.parametrize("command, sets, field", [
    # IndexError
    ("extract-z", ["caps.lambda_order=0"], "caps.lambda_order"),
    ("axioms", ["caps.sd_order=0", 'suites=["SD"]'], "caps.sd_order"),
    # OverflowError in m^2
    ("propagators", ["lattice.mass=1e200"], "lattice.mass"),
    # OverflowError in m^4, which the order-2 SD coefficients carry
    ("propagators", ["lattice.mass=1e150"], "lattice.mass"),
    ("correlate", ["lattice.mass=1e150"], "lattice.mass"),
    ("axioms", ["hadamard.mode=perturbed",
                "hadamard.perturbation-scale=1e308"],
     "hadamard.perturbation-scale"),
    # RuntimeError: no two degree-4 windows are spacelike on 4 columns
    ("axioms", ["lattice.nx=4", "caps.degree=4", "samples.count=1",
                'suites=["S"]'], "lattice.nx"),
    # the m^4 refusal again, where the SD rows would otherwise turn NaN
    ("axioms", ["lattice.mass=1e150", 'suites=["SD"]'], "lattice.mass"),
    # a repeated suite used to run twice, repeating its row keys, exit 0
    ("axioms", ['suites=["SD","SD"]', "samples.count=1"], "suites"),
])
def test_config_values_that_break_the_run_exit_2(tmp_path, capsys, command,
                                                 sets, field):
    # these used to escape as tracebacks with exit 1
    args = [command, "--set", f"output={tmp_path}"]
    for item in sets:
        args += ["--set", item]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error") and field in err
    assert not any(tmp_path.iterdir())


def test_every_sampler_takes_caps_degree(monkeypatch):
    # every window functional that the axioms suites and the extract-z
    # units sample is built with caps.degree
    degrees = []
    window = smatrix_renorm._window_functional
    monkeypatch.setattr(smatrix_renorm, "_window_functional",
                        lambda *args, degree=2, **kw: degrees.append(degree)
                        or window(*args, degree=degree, **kw))
    cfg = load_config(None, ["caps.degree=1", "samples.count=2"])
    lat, S = cli._build(cfg)
    for build in cli.SUITES.values():
        build(cfg, lat, S)
    n_axioms = len(degrees)
    cli._extract_z_units(cfg, lat, S)
    assert 0 < n_axioms < len(degrees) and set(degrees) == {1}


def test_no_command_gathers_a_dense_kernel(monkeypatch, tmp_path, capsys):
    # the blocks are the only kernel form a command reads: no kernel built
    # while the commands run, in process, gathers its dense matrix
    kernels = []
    build = Kernel.__init__

    def init(self, *args):
        build(self, *args)
        kernels.append(self)

    monkeypatch.setattr(Kernel, "__init__", init)
    monkeypatch.setattr(cli, "_run_units",
                        lambda units, order=None: [u() for u in units])
    for args in (["axioms"], ["axioms", "hadamard.mode=perturbed"],
                 ["extract-z"], ["extract-z", "extract.mode=two-hadamard"],
                 ["correlate"], ["propagators"]):
        sets = [f"output={tmp_path}", "samples.count=2"] + args[1:]
        assert main([args[0]] + [a for s in sets for a in ("--set", s)]) == 0
    capsys.readouterr()
    assert len(kernels) > 6
    assert all(K._entries is None for K in kernels)


def test_undersized_lattice_for_sampled_suites_exit_2(tmp_path, capsys):
    # nt=10 passes the global floor but cannot host a causal triple
    out = f"output={tmp_path}"
    assert main(["axioms", "--set", "lattice.nt=10", "--set", out]) == 2
    assert "nt >= 11" in capsys.readouterr().err
    assert main(["extract-z", "--set", "lattice.nt=10", "--set", out]) == 2
    assert "nt >= 11" in capsys.readouterr().err
    args = ["axioms", "--set", "lattice.nt=10", "--set", out,
            "--set", 'suites=["SD"]'] + SMALL
    assert main(args) == 0
    capsys.readouterr()


def test_sd_refuses_a_lattice_too_short_for_phi0_before_any_kernel(
        tmp_path, capsys, monkeypatch):
    # phi0 sits on the middle two rows, which must be interior (2..nt-3):
    # nt 4 and 5 exit 2 before any kernel is built, nt 6 runs
    built = []
    build = cli._build
    monkeypatch.setattr(cli, "_build",
                        lambda cfg: built.append(cfg) or build(cfg))

    def run(nt):
        return main(["axioms", "--set", f"output={tmp_path}",
                     "--set", f"lattice.nt={nt}",
                     "--set", 'suites=["SD"]'] + SMALL)

    for nt in (4, 5):
        assert run(nt) == 2
        err = capsys.readouterr().err
        assert f"it needs lattice.nt >= 6, got {nt}" in err
        assert "Traceback" not in err
    assert not built and not any(tmp_path.iterdir())
    assert run(6) == 0
    assert len(built) == 1
    capsys.readouterr()


# -- propagators ------------------------------------------------------------


def test_larger_lattices_pass_the_absolute_gates(tmp_path, capsys):
    # the kernels stay bounded as nt grows, so the gates that hold at the
    # default 12x16 hold at 32x64 (propagators) and 24x48 (axioms)
    out = f"output={tmp_path}"
    assert main(["propagators", "--set", out, "--set", "lattice.nt=32",
                 "--set", "lattice.nx=64"]) == 0
    assert main(["axioms", "--set", out, "--set", "lattice.nt=24",
                 "--set", "lattice.nx=48"]) == 0
    capsys.readouterr()
    _assert_no_child()


def test_largest_accepted_mass_builds_bounded_kernels_and_finite_sd(
        tmp_path, capsys):
    # up to the largest float mass whose fourth power is finite (about
    # 1.158e77; 1e150 is refused above) every kernel gate passes, and the
    # SD residuals stay finite numbers in a strict-JSON report
    out = ["--set", f"output={tmp_path}", "--set", "lattice.mass=1.15e77"]
    assert main(["propagators", "--set", "lattice.nt=8",
                 "--set", "lattice.nx=8"] + out) == 0
    rep = _read(tmp_path, "propagators")
    assert all(rep["checks"].values()) and rep["warnings"] == []
    main(["axioms", "--set", 'suites=["SD"]'] + out)
    text = (tmp_path / "axioms.json").read_text()
    rows = json.loads(text, parse_constant=lambda c: pytest.fail(c))["rows"]
    assert rows and all(np.isfinite(r["residual"]) for r in rows)
    capsys.readouterr()


def test_propagators_report(tmp_path, capsys):
    code = main(["propagators", "--set", f"output={tmp_path}",
                 "--set", "lattice.nt=8", "--set", "lattice.nx=8"])
    assert code == 0
    rep = _read(tmp_path, "propagators")
    assert rep["pass"] is True
    assert "kernels" not in rep
    assert rep["kernels_file"] == "propagators_kernels.npz"
    assert (tmp_path / rep["kernels_file"]).is_file()
    assert set(rep["checks"]) == set(rep["residuals"])
    assert rep["warnings"] == []
    assert "report written to" in capsys.readouterr().out


def test_propagators_kernels_sidecar(tmp_path):
    main(["propagators", "--set", f"output={tmp_path}",
          "--set", "lattice.nt=8", "--set", "lattice.nx=8"])
    lat = Lattice(8, 8, 0.5)
    names = ("green_retarded", "green_advanced", "pauli_jordan",
             "hadamard_kernel", "wightman", "feynman")
    # one complex128 (nt, nt, nx) array of blocks per kernel name, from
    # which Kernel rebuilds the lattice's kernel bitwise
    with np.load(tmp_path / "propagators_kernels.npz") as z:
        assert sorted(z.files) == sorted(names)
        for name in names:
            arr = z[name]
            assert arr.dtype == np.complex128
            assert arr.shape == (lat.nt, lat.nt, lat.nx)
            assert Kernel(name, lat, arr).entries.tobytes() == \
                getattr(lat, name)().entries.tobytes()


def test_propagators_outputs_byte_identical(tmp_path):
    args = ["propagators", "--set", f"output={tmp_path}",
            "--set", "lattice.nt=8", "--set", "lattice.nx=8"]
    files = ("propagators.json", "propagators_kernels.npz")
    runs = []
    for _ in range(2):
        assert main(args) == 0
        runs.append([(tmp_path / f).read_bytes() for f in files])
    assert runs[0] == runs[1]


def test_rerun_writes_new_files_not_the_old_ones_in_place(tmp_path):
    # each output is unlinked and created anew (ext4 flushes a file rewritten
    # in place when it is closed), so a hard link keeps the old bytes
    args = ["propagators", "--set", f"output={tmp_path}",
            "--set", "lattice.nt=8", "--set", "lattice.nx=8"]
    files = ("propagators.json", "propagators_kernels.npz")
    assert main(args) == 0
    for f in files:
        os.link(tmp_path / f, tmp_path / f"{f}.old")
        (tmp_path / f"{f}.old").write_bytes(b"old")
    assert main(args) == 0
    for f in files:
        assert (tmp_path / f"{f}.old").read_bytes() == b"old"
        assert not os.path.samefile(tmp_path / f, tmp_path / f"{f}.old")
        assert (tmp_path / f).stat().st_size > 3


def test_propagators_report_size_does_not_scale(tmp_path):
    sizes = []
    for nt, nx in ((8, 8), (16, 32)):
        out = tmp_path / f"{nt}x{nx}"
        assert main(["propagators", "--set", f"output={out}",
                     "--set", f"lattice.nt={nt}",
                     "--set", f"lattice.nx={nx}"]) == 0
        sizes.append((out / "propagators.json").stat().st_size)
    assert abs(sizes[1] - sizes[0]) < 1000


def test_propagators_zero_mass_warns_and_fails_H3(tmp_path):
    # the massless zero mode is dropped from the Hadamard sum (warning)
    # but stays in the commutator, so no positive state exists: H3 must
    # genuinely fail and the command must say so
    code = main(["propagators", "--set", f"output={tmp_path}",
                 "--set", "lattice.nt=8", "--set", "lattice.nx=10",
                 "--set", "lattice.mass=0"])
    assert code == 1
    rep = _read(tmp_path, "propagators")
    assert any("zero mode" in w for w in rep["warnings"])
    assert rep["checks"]["H3_gram_min_eigenvalue"] is False
    others = {k: v for k, v in rep["checks"].items()
              if k != "H3_gram_min_eigenvalue"}
    assert all(others.values())


def test_propagators_strict_tolerance_exit_1(tmp_path):
    code = main(["propagators", "--set", f"output={tmp_path}",
                 "--set", "lattice.nt=6", "--set", "lattice.nx=6",
                 "--set", "tolerances.kernel=1e-30"])
    assert code == 1
    assert _read(tmp_path, "propagators")["pass"] is False


# -- axioms -----------------------------------------------------------------


def test_axioms_deterministic_across_runs(tmp_path, capsys):
    args = ["axioms", "--set", f"output={tmp_path}",
            "--set", 'suites=["S"]'] + SMALL
    assert main(args) == 0
    out1 = capsys.readouterr().out
    blob1 = (tmp_path / "axioms.json").read_bytes()
    assert main(args) == 0
    out2 = capsys.readouterr().out
    blob2 = (tmp_path / "axioms.json").read_bytes()
    assert blob1 == blob2
    assert out1 == out2


def test_axioms_all_suites_small(tmp_path, capsys):
    code = main(["axioms", "--set", f"output={tmp_path}"] + SMALL)
    assert code == 0
    rep = _read(tmp_path, "axioms")
    assert rep["pass"] is True
    suites = {r["suite"] for r in rep["rows"]}
    assert suites == {"S", "Z", "SD", "hammerstein"}
    for r in rep["rows"]:
        assert {"suite", "axiom", "order", "sample-id", "residual",
                "pass"} <= set(r)
    ham = [r for r in rep["rows"] if r["suite"] == "hammerstein"]
    assert ham and all("padd" in r and not r["rejected"] for r in ham)
    sd = [r for r in rep["rows"] if r["suite"] == "SD"]
    assert sd and all("bound" in r and not r["flagged"] for r in sd)
    out = capsys.readouterr().out
    assert out.count("PASS") >= 4


def test_axioms_prints_one_line_per_suite_and_axiom(tmp_path, capsys):
    # a kernel tolerance no float residual meets fails some S rows
    code = main(["axioms", "--set", f"output={tmp_path}",
                 "--set", 'suites=["S", "hammerstein"]',
                 "--set", "tolerances.kernel=1e-300"] + SMALL)
    assert code == 1
    rows = _read(tmp_path, "axioms")["rows"]
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("axioms[") and "/" in ln.partition("]")[0]]
    pairs = sorted({(r["suite"], r["axiom"]) for r in rows})
    assert len(lines) == len(pairs)
    flagged = 0
    for suite, axiom in pairs:
        group = [r for r in rows if (r["suite"], r["axiom"]) == (suite, axiom)]
        fails = sum(not r["pass"] for r in group)
        worst = max(r["residual"] for r in group)
        status = "FAIL" if fails else "PASS"
        want = (f"axioms[{suite}/{axiom}]: {len(group)} rows, {fails} "
                f"failures, worst residual {worst:.3e} -> {status}")
        assert want in lines
        flagged += bool(fails)
    assert 0 < flagged < len(pairs)


def _site_mass_lagrangian(lat):
    """The free density with the whole mass term on the site,
    (1/2)[(dt phi)^2 - (dx phi)^2 - m^2 phi^2]: not the action that the
    lattice's kernels solve."""
    return GeneralizedLagrangian(lat, (
        DensityTerm(0.5, 0, 2, 0), DensityTerm(-0.5, 0, 0, 2),
        DensityTerm(-0.5 * lat.mass ** 2, 2, 0, 0)))


@pytest.mark.parametrize("plant", ["site-mass lagrangian", "link-mass kernels"])
def test_sd_fails_when_the_lagrangian_is_not_the_kernels_action(
        monkeypatch, tmp_path, capsys, plant):
    # the SD rows check the field equation of free_scalar_lagrangian with
    # the kernels of the lattice's stencil: the two must be one action
    args = ["axioms", "--set", f"output={tmp_path}", "--set", 'suites=["SD"]']
    assert main(args) == 0
    if plant == "site-mass lagrangian":
        monkeypatch.setattr(functionals, "free_scalar_lagrangian",
                            _site_mass_lagrangian)
    else:
        # kernels and stencil with the whole mass term on the time link
        # (stable too), against the Lagrangian's split term
        monkeypatch.setattr(lattice, "THETA", 0.0)
    assert main(args) == 1
    failed = [r for r in _read(tmp_path, "axioms")["rows"] if not r["pass"]]
    assert failed and all(r["suite"] == "SD" and r["residual"] > 1e-6
                          for r in failed)
    capsys.readouterr()


def test_axioms_perturbed_hadamard_flags_sd(tmp_path):
    code = main(["axioms", "--set", f"output={tmp_path}",
                 "--set", 'suites=["SD"]',
                 "--set", "hadamard.mode=perturbed"] + SMALL)
    assert code == 0
    rep = _read(tmp_path, "axioms")
    sd = [r for r in rep["rows"] if r["suite"] == "SD"]
    assert sd and all(r["flagged"] for r in sd)
    assert all(r["bound"] > 1e-8 for r in sd)


# -- worker pool -------------------------------------------------------------


def _units(command, cfg):
    lat, S = cli._build(cfg)
    if command == "extract-z":
        f_units, z_units = cli._extract_z_units(cfg, lat, S)
        return f_units + z_units
    return [u for name in cfg["suites"]
            for u in cli.SUITES[name](cfg, lat, S)]


@pytest.mark.parametrize("command, sets", [
    # SD at its default order 2: at order 1 its residuals are exactly 0
    ("axioms", ["samples.count=2", "caps.lambda_order=2",
                "caps.locality_order=2"]),
    # the multilinearity unit runs with a cold extraction cache alone
    ("extract-z", ["caps.lambda_order=2"]),
    ("extract-z", ["extract.mode=two-hadamard", "caps.lambda_order=2"]),
], ids=["axioms", "extract-z", "extract-z-two-hadamard"])
def test_axioms_unit_rows_do_not_depend_on_schedule(command, sets):
    cfg = load_config(None, sets)
    serial = [bits(u()) for u in _units(command, cfg)]
    assert len(serial) > 4
    for i, rows in enumerate(serial):
        # unit i alone, on a fresh S with an empty memo
        assert bits(_units(command, cfg)[i]()) == rows, f"unit {i}"


# the commands that run their units on forked workers, as (test id
# prefix, arguments, report name); the axioms runs are identified by
# their seed alone
POOLED = [("", ["axioms"], "axioms"),
          ("extract-z-", ["extract-z", "--set", "extract.functionals=2"],
           "extract_z"),
          ("two-hadamard-", ["extract-z", "--set", "extract.functionals=2",
                             "--set", "extract.mode=two-hadamard"],
           "extract_z")]


@pytest.mark.parametrize("command, report, seed", [
    pytest.param(command, report, seed, id=f"{prefix}{seed}")
    for prefix, command, report in POOLED for seed in (0, 1)])
def test_axioms_report_does_not_depend_on_worker_count(tmp_path, capsys,
                                                       monkeypatch, command,
                                                       report, seed):
    sizes = []  # the runner's forks in each run
    fork = os.fork

    def counting_fork():
        sizes[-1] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    args = command + ["--set", f"output={tmp_path}",
                      "--set", f"samples.seed={seed}"] + SMALL
    outputs = set()
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, n=cpus: set(range(n)))
        sizes.append(0)
        assert main(args) == 0
        _assert_no_child()
        outputs.add((capsys.readouterr().out,
                     (tmp_path / f"{report}.json").read_bytes()))
    assert sizes == [1, 2, 3]
    assert len(outputs) == 1


def test_run_units_returns_unit_order_for_any_dispatch_order(monkeypatch):
    # each unit returns its index and the time it ran; one worker takes
    # the units one at a time in the dispatch order
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    units = [functools.partial(lambda i: (i, time.monotonic_ns()), i)
             for i in range(6)]
    order = [5, 2, 0, 4, 1, 3]
    out = cli._run_units(units, order)
    assert [i for i, _ in out] == list(range(6))
    assert sorted(order, key=lambda i: out[i][1]) == order
    assert [i for i, _ in cli._run_units(units)] == list(range(6))
    _assert_no_child()


def test_pool_workers_run_without_the_cyclic_collector():
    # each worker turns the collector off; the caller keeps it on
    assert gc.isenabled()
    assert cli._run_units([gc.isenabled] * 3) == [False] * 3
    assert gc.isenabled()
    _assert_no_child()


@pytest.mark.parametrize("command, sets", [
    ("axioms", ["samples.count=2", "caps.lambda_order=2",
                "caps.locality_order=2", "caps.sd_order=1"]),
    ("extract-z", ["caps.lambda_order=2"]),
    ("extract-z", ["extract.mode=two-hadamard", "caps.lambda_order=2"]),
], ids=["axioms", "extract-z", "extract-z-two-hadamard"])
def test_units_leave_no_cyclic_garbage(command, sets):
    # what makes running the workers without the collector safe
    units = _units(command, load_config(None, sets))
    gc.collect()
    gc.disable()
    try:
        for unit in units:
            unit()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_nan_residual_fails_its_hammerstein_row_and_tops_the_summary():
    # T_2 carries a NaN coefficient, so the residual is NaN at order 2
    # only, after the finite orders 0 and 1
    cfg = load_config(None, ["caps.lambda_order=2", "samples.count=1"])
    lat, S = cli._build(cfg)
    nan_part = PolyFunctional(lat, {1: {(0,): HbarScalar({0: np.nan})}})

    def mixed(n, args):
        if n == 1:
            return args[0]
        return S.context.time_ordered(*args) + nan_part

    S_nan = smatrix_renorm.SMatrix(
        context=S.context, family=MultilinearFamily(evaluate_mixed=mixed))
    rows = [r for unit in cli._suite_hammerstein(cfg, lat, S_nan)
            for r in unit()]
    assert rows and all(np.isnan(r["residual"]) and not r["pass"]
                        for r in rows)
    line = cli._summary_line("axioms[hammerstein]",
                             [{"residual": 1.0, "pass": True}] + rows)
    assert "worst residual nan -> FAIL" in line


def _plant_non_spacelike_pair(monkeypatch):
    def malformed_plan(lat, **kw):
        plan = default_s_plan(lat, **kw)
        f1, _, f2 = plan["causal_triples"][0]
        plan["spacelike_pairs"][0] = (f1, f2)   # causal, not spacelike
        return plan

    monkeypatch.setattr(smatrix_renorm, "default_s_plan", malformed_plan)
    return (["axioms", "--set", 'suites=["S"]'], "axioms",
            "malformed plan: pair #0 is not spacelike")


def _plant_z4_violation(monkeypatch):
    def doubling_Z(lat, kappa, window):
        # Z_1 = 2 id; compose_SZ refuses it when a worker first expands S.Z
        def mixed(n, args):
            return args[0].scaled(2.0) if n == 1 else \
                PolyFunctional.zero(lat)
        return RenormalizationMap(MultilinearFamily(evaluate_mixed=mixed))

    monkeypatch.setattr(smatrix_renorm, "make_handcrafted_Z", doubling_Z)
    return ["extract-z"], "extract_z", "Z violates Z4"


@pytest.mark.parametrize("plant", [_plant_non_spacelike_pair,
                                   _plant_z4_violation],
                         ids=["axioms", "extract-z"])
def test_axioms_worker_exception_reaches_parent(tmp_path, monkeypatch,
                                                plant):
    args, report, message = plant(monkeypatch)
    with pytest.raises(ValueError, match=message):
        main(args + ["--set", f"output={tmp_path}"] + SMALL)
    _assert_no_child()
    assert not (tmp_path / f"{report}.json").exists()


class _TwoArgError(Exception):
    # pickles, but does not unpickle: its __init__ takes two arguments
    def __init__(self, a, b):
        super().__init__(a)


def _raise(exc):
    raise exc


def test_run_units_raises_the_first_unit_error_in_unit_order():
    # whatever order the workers take the units in; an error that does
    # not pickle arrives as a RuntimeError carrying its repr
    units = [list, functools.partial(_raise, _TwoArgError("x", "y")),
             functools.partial(_raise, KeyError("k"))]
    with pytest.raises(RuntimeError, match=r"unit 1 raised "
                       r"_TwoArgError\('x'\), which does not pickle"):
        cli._run_units(units, [2, 1, 0])
    with pytest.raises(KeyError) as info:
        cli._run_units([list, units[2]])
    # the worker's traceback is the cause
    assert "in its worker" in str(info.value.__cause__)
    assert "_raise" in str(info.value.__cause__)
    _assert_no_child()


def test_a_killed_worker_fails_the_command_instead_of_hanging(tmp_path):
    # one unit SIGKILLs its own worker: main raises a RuntimeError naming
    # the lost unit, and no child is left; in a subprocess, since a
    # runner that waits for the lost unit never returns
    src = str(Path(paqft.__file__).resolve().parent.parent)
    code = textwrap.dedent(f"""
        import os, signal
        from paqft import cli

        parent = os.getpid()
        os.sched_getaffinity = lambda pid: {{0, 1, 2}}

        def die():
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return []

        cli.SUITES["S"] = lambda cfg, lat, S: [list, die, list]
        try:
            cli.main(["axioms", "--set", 'suites=["S"]',
                      "--set", "output={tmp_path}"])
        except RuntimeError as e:
            print(e)
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("no child")
        """)
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    error, rest = out.stdout.splitlines()
    head, _, lost = error.partition(" without reporting unit(s) ")
    assert head == "worker(s) exited with status [-9]"
    assert 1 in json.loads(lost) and 2 not in json.loads(lost)
    assert rest == "no child"
    assert not any(tmp_path.iterdir())


def test_an_interrupted_run_kills_and_reaps_its_workers(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    old = signal.signal(signal.SIGALRM, interrupt)
    t0 = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        with pytest.raises(KeyboardInterrupt):
            cli._run_units([functools.partial(time.sleep, 60)] * 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert time.monotonic() - t0 < 30
    _assert_no_child()


def test_no_command_loads_multiprocessing(tmp_path):
    # the workers are plain forks; propagators loads no layer but the
    # kernel layer either
    src = str(Path(paqft.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "\n".join([
        "import sys",
        "from paqft.cli import main",
        f"out = 'output={tmp_path}'",
        "assert main(['propagators', '--set', out, '--set', 'lattice.nt=8',"
        " '--set', 'lattice.nx=8']) == 0",
        "print(sorted(m for m in sys.modules"
        " if m.startswith('paqft') or 'multiprocessing' in m))",
        "assert main(['correlate', '--set', out]) == 0",
        f"assert main(['axioms', '--set', out] + {SMALL!r}) == 0",
        "assert main(['extract-z', '--set', out,"
        " '--set', 'caps.lambda_order=2']) == 0",
        "print(sorted(m for m in sys.modules if 'multiprocessing' in m))"])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[-1] == "[]"
    assert "['paqft', 'paqft.cli', 'paqft.lattice']" in lines


def test_every_package_name_is_its_modules_own_object():
    import importlib

    homes = {"Lattice": "lattice", "LatticePoint": "lattice",
             "Region": "lattice", "Kernel": "lattice",
             "HbarScalar": "functionals", "PolyFunctional": "functionals",
             "StarAlgebraContext": "star_algebra",
             "SMatrix": "smatrix_renorm",
             "RenormalizationMap": "smatrix_renorm",
             "build_smatrix": "smatrix_renorm"}
    assert sorted(paqft.__all__) == sorted(homes)
    for name, module in homes.items():
        own = getattr(importlib.import_module(f"paqft.{module}"), name)
        assert getattr(paqft, name) is own, name
    with pytest.raises(AttributeError, match="no_such_name"):
        paqft.no_such_name


def test_python_m_paqft_runs_the_cli():
    src = str(Path(paqft.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "paqft", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "axioms" in out.stdout and "extract-z" in out.stdout


def test_piped_output_survives_the_fast_exit(tmp_path):
    # the entry flushes the block-buffered pipe before os._exit; the
    # pipe is block-buffered only without PYTHONUNBUFFERED
    src = str(Path(paqft.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    cmd = [sys.executable, "-m", "paqft.cli", "propagators",
           "--set", "lattice.nt=8", "--set", "lattice.nx=8",
           "--set", f"output={tmp_path}"]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1].startswith("report written to")
    out = subprocess.run(cmd + ["--set", "lattice.nt=2"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stderr.startswith("usage error:")
    # a pipe closed before the flush: exit 120, no traceback
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 120 and b"Traceback" not in err


# -- extract-z ---------------------------------------------------------------


def test_extract_roundtrip(tmp_path):
    code = main(["extract-z", "--set", f"output={tmp_path}",
                 "--set", "extract.functionals=2"] + SMALL)
    assert code == 0
    rep = _read(tmp_path, "extract_z")
    assert rep["mode"] == "roundtrip" and rep["pass"] is True
    axioms = {r["axiom"] for r in rep["rows"]}
    assert {"roundtrip", "planted-match", "additivity"} <= axioms
    assert {"Z1", "Z2", "Z3", "Z4"} <= axioms
    assert set(rep["z_values"]) == {"f-00", "f-01"}


def test_extract_two_hadamard_zero_scale(tmp_path):
    code = main(["extract-z", "--set", f"output={tmp_path}",
                 "--set", "extract.mode=two-hadamard",
                 "--set", "hadamard.perturbation-scale=0.0",
                 "--set", "extract.functionals=2"] + SMALL)
    assert code == 0
    rep = _read(tmp_path, "extract_z")
    assert rep["pass"] is True
    for per_f in rep["z_values"].values():
        for coeffs in per_f.values():
            assert coeffs == {}


# -- correlate ----------------------------------------------------------------


def test_correlate_order_zero_is_free_two_point(tmp_path, lat, ctx):
    code = main(["correlate", "--set", f"output={tmp_path}"])
    assert code == 0
    rep = _read(tmp_path, "correlate")
    assert set(rep["orders"]) == {"0", "1", "2"}
    (exp, re, im), = rep["orders"]["0"]
    w = ctx.wightman.entries[lat.site_index(LatticePoint(5, 3)),
                             lat.site_index(LatticePoint(6, 9))]
    assert exp == 1
    assert abs(complex(re, im) - w) < 1e-12


def test_correlate_leaves_out_rounding_level_coefficients(tmp_path,
                                                          monkeypatch):
    # a coefficient at most Z_VALUES_CUT times the largest |c| over all
    # orders is rounding: it is left out, and the report states the cut
    from paqft.formal_series import LambdaSeries
    from paqft.functionals import HbarScalar

    series = LambdaSeries(2, (HbarScalar({1: -1.2e-2}),
                              HbarScalar({0: 1e-3j, 1: 1e-17}),
                              HbarScalar({2: 3.78e-19})))
    monkeypatch.setattr(smatrix_renorm, "correlation",
                        lambda *args, **kwargs: series)
    assert main(["correlate", "--set", f"output={tmp_path}"]) == 0
    rep = _read(tmp_path, "correlate")
    assert rep["orders_cut"] == cli.Z_VALUES_CUT
    assert rep["orders"] == {"0": [[1, -1.2e-2, 0.0]],
                             "1": [[0, 0.0, 1e-3]], "2": []}


def test_correlate_rejects_nonlocal_interaction(tmp_path, capsys):
    spec = ('correlate.interaction={"2": [{"points": [[2, 2], [9, 9]], '
            '"coeff": [[0, 1.0, 0.0]]}]}')
    code = main(["correlate", "--set", f"output={tmp_path}", "--set", spec])
    assert code == 2
    assert "additivity pre-check" in capsys.readouterr().err


def test_correlate_rejects_bad_functional_spec(tmp_path, capsys):
    code = main(["correlate", "--set", f"output={tmp_path}",
                 "--set", 'correlate.observables=[{"x": 1}]'])
    assert code == 2
    assert "bad functional spec" in capsys.readouterr().err


def test_correlate_rejects_a_row_unlike_its_degree(tmp_path, capsys):
    # one point under the degree key "2": the spec comes from outside the
    # program, so a row's length does not stand in for its degree
    spec = ('correlate.observables=[{"2": [{"points": [[2, 2]], '
            '"coeff": [[0, 1.0, 0.0]]}]}]')
    code = main(["correlate", "--set", f"output={tmp_path}", "--set", spec])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad functional spec" in err and "length != degree 2" in err
