"""Scenario configs, snapshots, and the command-line harness."""

import csv
import errno
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import klift
import klift.cr
from klift import (
    BGKStepper,
    DistributionField,
    Scenario,
    build_velocity_grid,
    discrete_equilibrium,
    load_scenario,
)
from klift import steppers
from klift.cli import EXIT_ARG, EXIT_NUMERICAL, EXIT_OK, main
from klift.cr import restrict_lift_error
from klift.errors import KliftError, NumericalError
from klift.scenario import config_hash, parse_config, serialize_config
from klift.snapshots import read_snapshot, write_snapshot

from conftest import KB, load_shipped, scenario_path


def write_config(sc, path):
    path.write_text(serialize_config(sc.to_dict()), encoding="utf-8")


def tiny_config(tmp_path, **overrides):
    """A fast variant of the shipped scenario for end-to-end CLI tests."""
    params = dict(n_cells=24, n_velocities=16, reference_steps=20)
    params.update(overrides)
    sc = load_shipped("helium_desk.cfg").with_overrides(**params)
    path = tmp_path / "tiny.cfg"
    write_config(sc, path)
    return path, sc


FLOAT_KEYS = [
    "gas.molecular_mass", "gas.molecular_diameter", "gas.mu_ref", "gas.T_ref",
    "gas.viscosity_index", "ambient.p", "ambient.T", "ambient.u", "surface.p",
    "surface.T", "surface.u", "domain.lambda_multiple", "cr.newton_tol", "cr.picard_tol",
    "gmres.tol",
]
# one invocation of each subcommand; "ref.snap" stands for a valid snapshot
SUBCOMMANDS = [
    ["run-reference", "--steps", "0"],
    ["restrict", "--snapshot", "ref.snap"],
    ["lift", "--reference", "ref.snap"],
    ["spectrum", "--operator", "qr-projector"],
    ["sweep", "--grid-sizes", "8", "--orders", "0", "--steps", "0"],
]
# one invocation of each subcommand that takes BGK steps
STEPPING = [
    ["run-reference", "--steps", "300"],
    ["lift", "--reference", "ref.snap", "--order", "0"],
    ["spectrum", "--operator", "cr-qr", "--n", "8"],
    ["sweep", "--grid-sizes", "8", "--orders", "0", "--steps", "5"],
]
# the subcommands whose --out names a file, not a file prefix
OUT_FILE = [argv for argv in STEPPING if argv[0] != "lift"] + [
    ["restrict", "--snapshot", "ref.snap"]]
# well-typed values outside a key's range: (key, config text)
OUT_OF_RANGE = [
    ("gmres.max_iters", "0"), ("gmres.tol", "0.0"), ("cr.newton_tol", "-1e-10"),
    ("run.steps", "-5"), ("ambient.p", "-1"), ("ambient.T", "0"), ("surface.p", "-1"),
    ("surface.T", "0"), ("grid.N", "0"), ("grid.Nv", "1"), ("gas.mu_ref", "-1"),
    ("gas.viscosity_index", "-1"), ("domain.lambda_multiple", "-1"),
    ("gas.molecular_diameter", "1e200"), ("gas.viscosity_index", "1e300"),
]
# values at the ends of the float range, which must reach an exit code without
# overflowing on the way: (key, config text)
EXTREME = [
    ("gas.molecular_mass", "1e-300"), ("gas.molecular_mass", "1e300"), ("ambient.T", "1e300"),
    ("ambient.u", "1e300"), ("surface.T", "1e-130"), ("surface.T", "1e300"),
    ("gas.viscosity_index", "1e300"),
]
# desk ambient states without a discrete equilibrium on the desk's velocity
# grid (v_max 9,986 m/s, Nv = 24), though each is inside the grid's bounds
# |u| < v_max and k_B T / m < v_max^2: colder than the grid resolves, close to
# its bound, and hotter than its 24 velocities hold
NO_EQUILIBRIUM = {"cold": ("ambient.T", "1e-12"), "fast": ("ambient.u", "9000"),
                  "hot": ("ambient.T", "40000")}
# values a float key rejects: (config text, a Python value passed to Scenario.from_dict)
BAD_FLOAT_WORDS = [("true", True), ("nan", math.nan), ("inf", math.inf), ("fast", "fast")]


def config_with(tmp_path, key, text):
    """The desk config with one value replaced by ``text``, written to a file."""
    d = load_shipped("helium_desk.cfg").to_dict()
    d[key] = text
    path = tmp_path / "edited.cfg"
    path.write_text(serialize_config(d), encoding="utf-8")
    return path


def no_step(self, values):
    raise AssertionError("a step was taken before the arguments were checked")


def plain_steps(stepper, values, steps):
    """``steps`` calls of ``stepper.step``, the loop ``steppers.advance`` stands for."""
    for _ in range(steps):
        values = stepper.step(values)
    return values


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))


class TestConfigFormat:
    def test_parse_types(self):
        d = parse_config("a.b = 3\nc = 1.5e-3  # trailing\nname = upwind\n\n")
        assert d == {"a.b": 3, "c": 1.5e-3, "name": "upwind"}

    def test_parse_rejects_bad_line(self):
        with pytest.raises(ValueError):
            parse_config("no equals sign here")

    def test_round_trip_identity(self):
        sc = load_shipped("helium_L30000.cfg")
        again = Scenario.from_dict(parse_config(serialize_config(sc.to_dict())))
        assert again == sc
        assert config_hash(again) == config_hash(sc)

    def test_missing_key(self):
        d = load_shipped("helium_L30000.cfg").to_dict()
        d.pop("gas.molecular_mass")
        with pytest.raises(ValueError, match="molecular_mass"):
            Scenario.from_dict(d)

    def test_unrecognized_key(self):
        d = load_shipped("helium_L30000.cfg").to_dict()
        d["grid.Nx"] = 5
        with pytest.raises(ValueError, match="unrecognized"):
            Scenario.from_dict(d)

    @pytest.mark.parametrize("key,value", [
        ("grid.N", 20.7),
        ("grid.Nv", True),
        ("run.steps", 1500.5),
        ("grid.N", "20"),
        ("gmres.max_iters", float("inf")),
    ] + [(key, value) for key in FLOAT_KEYS for _, value in BAD_FLOAT_WORDS])
    def test_rejects_coerced_values(self, key, value):
        d = load_shipped("helium_L30000.cfg").to_dict()
        d[key] = value
        with pytest.raises(ValueError, match=key):
            Scenario.from_dict(d)

    @pytest.mark.parametrize("key,text", [
        (k, t) for k, t in OUT_OF_RANGE if k.split(".")[0] not in ("gas", "cr", "gmres")
    ])
    def test_bound_error_names_key(self, key, text):
        d = load_shipped("helium_desk.cfg").to_dict()
        d.update(parse_config(f"{key} = {text}"))
        with pytest.raises(ValueError, match=f"config key '{key}' must be greater than"):
            Scenario.from_dict(d)

    def test_float_keys_are_the_float_fields(self):
        d = load_shipped("helium_L30000.cfg").to_dict()
        assert sorted(k for k, v in d.items() if type(v) is float) == sorted(FLOAT_KEYS)

    def test_shipped_config_hashes(self):
        # CSV headers carry these hashes; only a schema change may move them
        assert config_hash(load_shipped("helium_desk.cfg")) == "aec6397b3836a615"
        assert config_hash(load_shipped("helium_L30.cfg")) == "b7d39dd2bbe51b92"
        assert config_hash(load_shipped("helium_L30000.cfg")) == "caa71b2971408dfb"

    @pytest.mark.parametrize("name", ["helium_desk.cfg", "helium_L30.cfg", "helium_L30000.cfg"])
    def test_shipped_config_lists_every_key(self, name):
        text = scenario_path(name).read_text(encoding="utf-8")
        assert sorted(parse_config(text)) == sorted(f.metadata["key"] for f in fields(Scenario))

    def test_integral_float_accepted(self):
        d = load_shipped("helium_L30000.cfg").to_dict()
        d["grid.N"] = 20.0
        assert Scenario.from_dict(d).n_cells == 20

    def test_save_load_file(self, tmp_path):
        sc = load_shipped("helium_desk.cfg")
        p = tmp_path / "copy.cfg"
        write_config(sc, p)
        assert load_scenario(p) == sc


class TestScenarioDerived:
    def test_shipped_scenario_values(self):
        sc = load_shipped("helium_L30000.cfg")
        assert sc.surface_p == pytest.approx(sc.ambient_p / 0.3, rel=1e-12)
        assert sc.surface_T == pytest.approx(sc.ambient_T / 0.2, rel=1e-12)
        assert sc.u0 == pytest.approx(2496.389371885629, rel=1e-10)
        # printed bound in the scenario documentation: -9.9875e3 m/s
        assert 4 * sc.u0 == pytest.approx(9987.5, rel=2e-4)
        assert sc.mean_free_path == pytest.approx(2.8776465336299356e-07, rel=1e-10)
        assert sc.length == pytest.approx(30000 * sc.mean_free_path, rel=1e-12)
        n_a, _, T_a = sc.ambient
        assert n_a == pytest.approx(sc.ambient_p / (KB * T_a), rel=1e-12)
        assert sc.dt > 0
        assert sc.scale == sc.molecular_mass

    def test_short_domain_variant(self):
        long = load_shipped("helium_L30000.cfg")
        short = load_shipped("helium_L30.cfg")
        assert short.lambda_multiple == 30.0
        assert short.length == pytest.approx(long.length * 30 / 30000, rel=1e-10)

    def test_desk_variant(self):
        desk = load_shipped("helium_desk.cfg")
        assert (desk.n_cells, desk.n_velocities, desk.reference_steps) == (100, 24, 500)
        assert desk.lambda_multiple == 30000.0

    def test_boundary_states_must_fit_the_velocity_grid(self):
        # a boundary state loads exactly when its discrete equilibrium builds on
        # the scenario's velocity grid; the grid's bounds |u| < b and
        # k_B T / m < b^2 are necessary, not sufficient, so just inside them fails
        desk = load_shipped("helium_desk.cfg")
        b = desk.vgrid.v_max
        T_max = b * b * desk.molecular_mass / KB  # k_B T / m = b^2
        T_a = desk.ambient_T
        for u, T, loads in [(0.5 * b, T_a, True), (-0.8 * b, T_a, True), (0.0, 0.1 * T_max, True),
                            (0.99 * b, T_a, False), (-1.01 * b, T_a, False),
                            (0.0, 0.99 * T_max, False), (0.0, 1.01 * T_max, False),
                            (0.0, 1e-12, False)]:
            try:
                discrete_equilibrium(desk.ambient_p / (KB * T), u, T, desk.vgrid, desk.gas)
                builds = True
            except (ValueError, KliftError):
                builds = False
            assert builds == loads
            if loads:
                assert desk.with_overrides(ambient_u=u, ambient_T=T).ambient == (
                    desk.ambient_p / (KB * T), u, T)
            else:
                with pytest.raises(ValueError, match="^the ambient state: "):
                    desk.with_overrides(ambient_u=u, ambient_T=T)

    def test_initial_field_is_ambient_equilibrium(self):
        sc = load_shipped("helium_desk.cfg").with_overrides(n_cells=10)
        from klift import restrict

        macro = restrict(sc.initial_field(), sc.gas)
        n_a, u_a, T_a = sc.ambient
        np.testing.assert_allclose(macro.number_density, n_a, rtol=1e-10)
        np.testing.assert_allclose(macro.temperature, T_a, rtol=1e-10)


class TestSnapshots:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        sc = load_shipped("helium_desk.cfg").with_overrides(n_cells=6, n_velocities=16)
        field = sc.initial_field()
        field.values[:] *= 1 + 0.01 * rng.random(field.values.shape)
        p = tmp_path / "f.snap"
        write_snapshot(p, field)
        back = read_snapshot(p)
        assert np.array_equal(back.values, field.values)
        assert back.scale == field.scale
        assert back.time == field.time
        assert back.grid.dx == pytest.approx(field.grid.dx, rel=1e-15)
        np.testing.assert_allclose(back.vgrid.velocities, field.vgrid.velocities, rtol=1e-15)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.snap"
        p.write_bytes(b"NOTASNAPSHOT")
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "short.snap"
        p.write_bytes(b"KLIFT1\x01\x00")
        with pytest.raises(ValueError, match="short.snap.*header"):
            read_snapshot(p)

    def test_unsupported_version(self, tmp_path):
        sc = load_shipped("helium_desk.cfg").with_overrides(n_cells=4, n_velocities=16)
        p = tmp_path / "f.snap"
        write_snapshot(p, sc.initial_field())
        data = bytearray(p.read_bytes())
        data[6:8] = (2).to_bytes(2, "little")  # the u16 version after the 6-byte magic
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="f.snap: unsupported snapshot version 2"):
            read_snapshot(p)

    def test_truncated_payload(self, tmp_path, rng):
        sc = load_shipped("helium_desk.cfg").with_overrides(n_cells=4, n_velocities=16)
        p = tmp_path / "f.snap"
        write_snapshot(p, sc.initial_field())
        data = p.read_bytes()
        p.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="payload"):
            read_snapshot(p)


class TestCLI:
    def test_run_reference_zero_steps_is_initial_state(self, tmp_path):
        cfg, sc = tiny_config(tmp_path)
        out = tmp_path / "ref.snap"
        assert main(["run-reference", "--config", str(cfg), "--steps", "0",
                     "--out", str(out)]) == EXIT_OK
        field = read_snapshot(out)
        assert np.array_equal(field.values, sc.initial_field().values)

    def test_failed_snapshot_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def fails(path, field):
            Path(path).write_bytes(b"KLIFT1")  # a write cut short
            raise OSError("No space left on device")

        monkeypatch.setattr("klift.cli.write_snapshot", fails)
        cfg, _ = tiny_config(tmp_path)
        out = tmp_path / "ref.snap"
        assert main(["run-reference", "--config", str(cfg), "--steps", "2",
                     "--out", str(out)]) == EXIT_ARG
        assert capsys.readouterr().err == "error: No space left on device\n"
        assert not out.exists()
        assert not (tmp_path / "ref.snap.partial").exists()

    def test_run_reference_deterministic(self, tmp_path):
        cfg, _ = tiny_config(tmp_path)
        a, b = tmp_path / "a.snap", tmp_path / "b.snap"
        for out in (a, b):
            assert main(["run-reference", "--config", str(cfg), "--steps", "10",
                         "--out", str(out)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_run_reference_blocks_are_its_steps(self, tmp_path, capsys, monkeypatch):
        # 250 steps, no multiple of a block: the same reports and the same
        # snapshot bytes as 250 plain steps
        cfg = scenario_path("helium_desk.cfg")
        printed = {}
        for name in ("blocks", "steps"):
            with monkeypatch.context() as patch:
                if name == "steps":
                    patch.setattr("klift.cli.advance", plain_steps)
                assert main(["run-reference", "--config", str(cfg), "--steps", "250",
                             "--out", str(tmp_path / name)]) == EXIT_OK
            printed[name] = capsys.readouterr().out.splitlines()
        assert printed["blocks"][:-1] == printed["steps"][:-1]
        assert [line.split()[1] for line in printed["blocks"][1:-1]] == ["100", "200", "250"]
        assert (tmp_path / "blocks").read_bytes() == (tmp_path / "steps").read_bytes()

    def test_sweep_reference_blocks_are_its_steps(self, tmp_path, monkeypatch):
        cfg = scenario_path("helium_desk.cfg")
        states = []

        def recorded(field, gas, restrict=klift.cli.restrict):
            states.append(field.values.tobytes())
            return restrict(field, gas)

        def fails(*args, **kwargs):
            raise NumericalError("no lift")

        monkeypatch.setattr("klift.cli.restrict", recorded)
        monkeypatch.setattr("klift.cli.lift_macro", fails)
        argv = ["sweep", "--config", str(cfg), "--grid-sizes", "100", "--orders", "0",
                "--steps", "250", "--out", str(tmp_path / "sweep.csv")]
        assert main(argv) == EXIT_OK
        monkeypatch.setattr("klift.cli.advance", plain_steps)
        assert main(argv) == EXIT_OK
        assert len(states) == 2 and states[0] == states[1]

    def test_lift_outputs(self, tmp_path, capsys):
        cfg, _ = tiny_config(tmp_path)
        ref = tmp_path / "ref.snap"
        main(["run-reference", "--config", str(cfg), "--steps", "20", "--out", str(ref)])
        prefix = tmp_path / "lift"
        code = main(["lift", "--config", str(cfg), "--reference", str(ref),
                     "--order", "0", "--out", str(prefix)])
        assert code == EXIT_OK
        lifted = read_snapshot(f"{prefix}_lifted.snap")
        assert lifted.values.shape == (24, 16)
        rows = read_rows(f"{prefix}_norms.csv")
        assert rows[0] == ["label", "two_norm", "spectral_norm"]
        labels = [r[0] for r in rows[1:]]
        assert labels == ["equilibrium", "cr_m0"]
        assert 0.0 < float(rows[2][1]) and 0.0 < float(rows[1][1])
        cells = read_rows(f"{prefix}_cells.csv")
        assert len(cells) == 1 + 24
        report = read_rows(f"{prefix}_report.csv")
        assert report[0] == ["iter", "residual", "drift", "seconds"]
        relerr = read_rows(f"{prefix}_relerr.csv")
        assert len(relerr) == 1 + 24 * 16
        # the summary names the solver's counts and the lifted state's stored
        # rows, one per run of equal cell rows
        found = re.search(r"^\|f\(m=0\) - f_c\| = \S+ \(newton, (\d+) iterations, (\d+) GMRES "
                          r"iterations, (\d+) stored rows\)$", capsys.readouterr().out, re.M)
        assert found and 1 <= int(found[3]) <= 24

    def test_lift_relerr_rows(self, tmp_path, monkeypatch):
        cfg, _ = tiny_config(tmp_path)
        ref = tmp_path / "ref.snap"
        main(["run-reference", "--config", str(cfg), "--steps", "20", "--out", str(ref)])
        errors = []

        def with_exact_zeros(reference, lifted):
            lifted.values[::3, ::5] = reference.values[::3, ::5]
            errors.append(restrict_lift_error(reference, lifted))
            return errors[-1]

        monkeypatch.setattr("klift.cli.restrict_lift_error", with_exact_zeros)
        prefix = tmp_path / "lift"
        assert main(["lift", "--config", str(cfg), "--reference", str(ref),
                     "--order", "0", "--out", str(prefix)]) == EXIT_OK
        err = errors[-1]
        assert err.exact_zero.any() and not err.exact_zero.all()
        want = [["cell", "velocity_index", "log10_rel_err", "exact_zero"]]
        for j in range(24):
            for i in range(16):
                if err.exact_zero[j, i]:
                    want.append([str(j), str(i), "", "1"])
                else:
                    want.append([str(j), str(i), repr(float(np.log10(err.relative_error[j, i]))),
                                 "0"])
        assert read_rows(f"{prefix}_relerr.csv") == want

    def test_lift_grid_mismatch_is_arg_error(self, tmp_path):
        cfg, _ = tiny_config(tmp_path)
        ref = tmp_path / "ref.snap"
        main(["run-reference", "--config", str(cfg), "--steps", "0", "--out", str(ref)])
        other, _ = tiny_config(tmp_path, n_cells=12)
        other_path = tmp_path / "other.cfg"
        sc = load_scenario(cfg).with_overrides(n_cells=12)
        write_config(sc, other_path)
        assert main(["lift", "--config", str(other_path), "--reference", str(ref),
                     "--out", str(tmp_path / "x")]) == EXIT_ARG

    @pytest.mark.parametrize("command", ["lift", "restrict"])
    @pytest.mark.parametrize("mismatch", ["dx", "velocity grid", "scale"])
    def test_snapshot_mismatch_is_arg_error(self, tmp_path, capsys, command, mismatch):
        # a 0.3-mean-free-path domain gives dx = 3.6e-9 m, below np.isclose's default atol
        cfg, sc = tiny_config(tmp_path, lambda_multiple=0.3)
        f = sc.initial_field()
        grid, vgrid, values, scale = f.grid, f.vgrid, f.values, f.scale
        if mismatch == "dx":
            grid = sc.with_overrides(lambda_multiple=0.6).grid
        elif mismatch == "velocity grid":
            vgrid = build_velocity_grid(1.5 * vgrid.v_min, 1.5 * vgrid.v_max, vgrid.n_velocities)
        else:
            # physical values at scale 1, as configs without mass rescaling wrote them
            values, scale = values / scale, 1.0
        write_snapshot(tmp_path / "ref.snap", DistributionField(grid, vgrid, values, scale=scale))
        flag = "--reference" if command == "lift" else "--snapshot"
        assert main([command, "--config", str(cfg), flag, str(tmp_path / "ref.snap"),
                     "--out", str(tmp_path / "out")]) == EXIT_ARG
        err = capsys.readouterr().err
        assert err.startswith(f"error: snapshot {mismatch}") and "does not match" in err

    @pytest.mark.parametrize("argv", [["run-reference"],
                                      ["sweep", "--grid-sizes", "8", "--orders", "0"]],
                             ids=lambda argv: argv[0])
    def test_negative_steps_is_arg_error(self, tmp_path, capsys, argv):
        cfg, _ = tiny_config(tmp_path)
        out = tmp_path / "out"
        assert main([argv[0], "--config", str(cfg), *argv[1:], "--steps", "-5",
                     "--out", str(out)]) == EXIT_ARG
        assert "steps must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", STEPPING, ids=lambda argv: argv[0])
    def test_missing_out_dir_fails_before_any_step(self, tmp_path, capsys, monkeypatch, argv):
        cfg, sc = tiny_config(tmp_path)
        write_snapshot(tmp_path / "ref.snap", sc.initial_field())
        monkeypatch.setattr(BGKStepper, "step", no_step)
        out = tmp_path / "missing" / "out"
        argv = [a.replace("ref.snap", str(tmp_path / "ref.snap")) for a in argv]
        assert main([argv[0], "--config", str(cfg), *argv[1:], "--out", str(out)]) == EXIT_ARG
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out}: directory ") and "does not exist" in err

    @pytest.mark.parametrize("argv", STEPPING + [["restrict", "--snapshot", "ref.snap"]],
                             ids=lambda argv: argv[0])
    def test_empty_out_fails_before_any_step(self, tmp_path, capsys, monkeypatch, argv):
        # the directory of "" reads as ".", so only an explicit check stops it
        cfg, sc = tiny_config(tmp_path)
        write_snapshot(tmp_path / "ref.snap", sc.initial_field())
        monkeypatch.setattr(BGKStepper, "step", no_step)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        argv = [a.replace("ref.snap", str(tmp_path / "ref.snap")) for a in argv]
        assert main([argv[0], "--config", str(cfg), *argv[1:], "--out", ""]) == EXIT_ARG
        captured = capsys.readouterr()
        assert captured.err == "error: --out is empty\n"
        assert captured.out == ""
        assert not any(work.iterdir())

    @pytest.mark.parametrize("argv", OUT_FILE, ids=lambda argv: argv[0])
    def test_out_naming_a_directory_fails_before_any_step(self, tmp_path, capsys, monkeypatch,
                                                          argv):
        cfg, sc = tiny_config(tmp_path)
        write_snapshot(tmp_path / "ref.snap", sc.initial_field())
        monkeypatch.setattr(BGKStepper, "step", no_step)
        out = tmp_path / "outdir"
        out.mkdir()
        argv = [a.replace("ref.snap", str(tmp_path / "ref.snap")) for a in argv]
        assert main([argv[0], "--config", str(cfg), *argv[1:], "--out", str(out)]) == EXIT_ARG
        captured = capsys.readouterr()
        assert captured.err == f"error: --out {out} is a directory\n"
        assert captured.out == ""
        assert not any(out.iterdir())

    def test_lift_prefix_may_name_a_directory(self, tmp_path):
        cfg, sc = tiny_config(tmp_path)
        write_snapshot(tmp_path / "ref.snap", sc.initial_field())
        prefix = tmp_path / "lift"
        prefix.mkdir()
        assert main(["lift", "--config", str(cfg), "--reference", str(tmp_path / "ref.snap"),
                     "--order", "0", "--out", str(prefix)]) == EXIT_OK
        assert (tmp_path / "lift_relerr.csv").is_file()

    def test_spectrum_projector(self, tmp_path):
        cfg, _ = tiny_config(tmp_path)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", str(cfg), "--operator", "qr-projector",
                     "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert rows[0] == ["re", "im"]
        ev = np.array([[float(r[0]), float(r[1])] for r in rows[1:]])
        assert ev.shape == (16, 2)
        dev = np.minimum(np.abs(ev[:, 0]), np.abs(ev[:, 0] - 1.0))
        assert dev.max() < 1e-10

    def test_spectrum_cr_jacobian_radius(self, tmp_path):
        cfg, _ = tiny_config(tmp_path, n_cells=8, n_velocities=16)
        out = tmp_path / "crspec.csv"
        assert main(["spectrum", "--config", str(cfg),
                     "--operator", "cr-qr", "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        radius = max(math.hypot(float(r[0]), float(r[1])) for r in rows[1:])
        assert radius < 1.0

    def test_spectrum_cap_is_arg_error(self, tmp_path):
        cfg, _ = tiny_config(tmp_path, n_cells=400)
        assert main(["spectrum", "--config", str(cfg), "--operator", "cr-qr",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_ARG

    def test_spectrum_cap_checked_before_field(self, tmp_path, monkeypatch, capsys):
        def no_field(self):
            raise AssertionError("initial_field built before the cap check")

        monkeypatch.setattr(Scenario, "initial_field", no_field)
        assert main(["spectrum", "--config", str(scenario_path("helium_desk.cfg")),
                     "--operator", "cr-qr", "--n", "200000",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_ARG
        err = capsys.readouterr().err
        assert "dense cap 2000" in err and "--n" in err

    @pytest.mark.parametrize("operator, order", [("qr-projector", "99"),
                                                 ("naive-projector", "-3")])
    def test_spectrum_checks_order_for_every_operator(self, tmp_path, capsys, operator, order):
        cfg, _ = tiny_config(tmp_path)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", str(cfg), "--operator", operator,
                     "--order", order, "--out", str(out)]) == EXIT_ARG
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("text", [w for w, _ in BAD_FLOAT_WORDS])
    def test_bad_float_value_is_arg_error(self, tmp_path, capsys, key, text):
        cfg = config_with(tmp_path, key, text)
        assert main(["run-reference", "--config", str(cfg), "--steps", "0",
                     "--out", str(tmp_path / "o.snap")]) == EXIT_ARG
        assert key in capsys.readouterr().err

    def assert_config_value_is_arg_error(self, tmp_path, capsys, argv, key, text):
        """``argv`` on the desk config with ``key = text`` exits 2 naming the field."""
        # a valid snapshot, so that only the edited value can fail the command
        write_snapshot(tmp_path / "ref.snap",
                       load_shipped("helium_desk.cfg").initial_field())
        cfg = config_with(tmp_path, key, text)
        argv = [a.replace("ref.snap", str(tmp_path / "ref.snap")) for a in argv]
        assert main([argv[0], "--config", str(cfg), *argv[1:],
                     "--out", str(tmp_path / "out")]) == EXIT_ARG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key.split(".")[-1] in err
        return err

    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
    def test_unknown_solver_is_arg_error(self, tmp_path, capsys, argv):
        err = self.assert_config_value_is_arg_error(tmp_path, capsys, argv, "cr.solver", "bogus")
        assert "bogus" in err

    @pytest.mark.parametrize("key,text", [
        ("flux.scheme", "upwind"), ("field.mass_rescaled", "true"), ("cr.order_m", "0"),
        ("cr.order_m", "-1"), ("cr.order_m", "99"), ("run.cfl_safety", "0.9"),
        ("velocity.bound_multiple", "4.0"),
    ])
    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
    def test_removed_key_is_arg_error(self, tmp_path, capsys, argv, key, text):
        # upwind fluxes on mass-rescaled fields are the one discretization; the
        # order comes from --order, and the velocity bound and the CFL safety
        # factor are constants
        err = self.assert_config_value_is_arg_error(tmp_path, capsys, argv, key, text)
        assert "unrecognized config keys" in err and key in err

    @pytest.mark.parametrize("key,text", OUT_OF_RANGE, ids=[f"{k}={t}" for k, t in OUT_OF_RANGE])
    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
    def test_out_of_range_value_is_arg_error(self, tmp_path, capsys, argv, key, text):
        # checked when the config loads, whether or not the subcommand uses the key
        self.assert_config_value_is_arg_error(tmp_path, capsys, argv, key, text)

    @pytest.mark.parametrize("key,text", EXTREME, ids=[f"{k}={t}" for k, t in EXTREME])
    @pytest.mark.parametrize("argv", [
        ["run-reference", "--steps", "3"], ["spectrum", "--operator", "cr-qr", "--n", "6"],
        ["sweep", "--grid-sizes", "6", "--orders", "0", "--steps", "3"],
    ], ids=lambda argv: argv[0])
    def test_extreme_value_keeps_the_exit_contract(self, tmp_path, argv, key, text):
        # any RuntimeWarning on the way fails the test (pyproject's filterwarnings)
        cfg = config_with(tmp_path, key, text)
        assert main([argv[0], "--config", str(cfg), *argv[1:],
                     "--out", str(tmp_path / "out")]) in (EXIT_OK, EXIT_ARG, EXIT_NUMERICAL)

    def test_viscosity_overflow_is_arg_error(self, tmp_path, capsys):
        # mu(T) overflows to inf at both boundary states, so the gas would never relax
        cfg = config_with(tmp_path, "gas.viscosity_index", "1e300")
        assert main(["run-reference", "--config", str(cfg), "--steps", "3",
                     "--out", str(tmp_path / "o.snap")]) == EXIT_ARG
        err = capsys.readouterr().err
        assert "relaxation frequency" in err
        assert all(key in err for key in ("gas.mu_ref", "gas.T_ref", "gas.viscosity_index"))
        assert not (tmp_path / "o.snap").exists()

    def test_unstable_time_step_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(steppers, "CFL_SAFETY", 10.0)
        cfg = scenario_path("helium_desk.cfg")
        assert main(["run-reference", "--config", str(cfg),
                     "--out", str(tmp_path / "o.snap")]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "temperature" in err
        assert not (tmp_path / "o.snap").exists()

    def test_non_finite_totals_are_numerical_error(self, tmp_path, capsys, monkeypatch):
        # the step's output is finite, but its totals overflow once divided by the mass scale
        monkeypatch.setattr(steppers, "CFL_SAFETY", 1e300)
        cfg = scenario_path("helium_desk.cfg")
        assert main(["run-reference", "--config", str(cfg), "--steps", "1",
                     "--out", str(tmp_path / "o.snap")]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: non-finite totals after step 1")
        assert not (tmp_path / "o.snap").exists()

    def test_cold_ambient_is_arg_error(self, tmp_path, capsys):
        # a 1e-200 K ambient gas off the grid midpoint: the equilibrium built at
        # load names the state before its starting exponent can overflow
        d = load_shipped("helium_desk.cfg").to_dict()
        d.update({"ambient.u": 300.0, "ambient.T": 1e-200})
        cfg = tmp_path / "cold.cfg"
        cfg.write_text(serialize_config(d), encoding="utf-8")
        assert main(["run-reference", "--config", str(cfg), "--steps", "2",
                     "--out", str(tmp_path / "o.snap")]) == EXIT_ARG
        err = capsys.readouterr().err
        assert err.startswith("error: the ambient state: no discrete equilibrium on the velocity "
                              "grid in cell 0: ")
        assert not (tmp_path / "o.snap").exists()

    @pytest.mark.parametrize("state", NO_EQUILIBRIUM)
    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
    def test_boundary_state_without_equilibrium_is_arg_error(self, tmp_path, capsys, argv,
                                                             state):
        # checked when the config loads, so restrict, which builds no
        # equilibrium, refuses it too
        key, text = NO_EQUILIBRIUM[state]
        err = self.assert_config_value_is_arg_error(tmp_path, capsys, argv, key, text)
        assert err.startswith("error: the ambient state: ")
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
    def test_key_given_twice_is_arg_error(self, tmp_path, capsys, argv):
        # the desk config sets grid.N = 100 on line 17; a second value must not win
        write_snapshot(tmp_path / "ref.snap", load_shipped("helium_desk.cfg").initial_field())
        cfg = tmp_path / "twice.cfg"
        lines = scenario_path("helium_desk.cfg").read_text(encoding="utf-8").splitlines()
        cfg.write_text("\n".join(lines + ["grid.N = 7"]) + "\n", encoding="utf-8")
        argv = [a.replace("ref.snap", str(tmp_path / "ref.snap")) for a in argv]
        assert main([argv[0], "--config", str(cfg), *argv[1:],
                     "--out", str(tmp_path / "out")]) == EXIT_ARG
        assert capsys.readouterr().err == (
            f"error: config key 'grid.N' is given twice, on lines 17 and {len(lines) + 1}\n")
        assert not list(tmp_path.glob("out*"))

    # the monomial rows v^r overflow from Nv = 79 on the shipped bounds; the
    # QR reset reads only the conserved rows, and the naive projector refuses
    # the matrix before any step or solve
    @pytest.mark.parametrize("nv", [79, 96])
    @pytest.mark.parametrize("operator", ["qr-projector", "naive-projector", "cr-qr", "cr-naive"])
    def test_fine_velocity_grid_spectrum(self, tmp_path, capsys, monkeypatch, nv, operator):
        cfg, _ = tiny_config(tmp_path, n_cells=4, n_velocities=nv)
        out = tmp_path / "spec.csv"
        naive = operator in ("naive-projector", "cr-naive")
        if naive:
            monkeypatch.setattr(BGKStepper, "step", no_step)
        code = main(["spectrum", "--config", str(cfg), "--operator", operator,
                     "--out", str(out)])
        err = capsys.readouterr().err
        if naive:
            assert code == EXIT_NUMERICAL
            assert err == (f"numerical failure: the monomial moment matrix of q = {nv} velocities "
                           "overflows; the inverse-based projector needs every row finite\n")
            assert not out.exists()
        else:
            assert (code, err) == (EXIT_OK, "")
            assert len(read_rows(out)) == 1 + (nv if operator == "qr-projector" else 4 * (nv - 3))

    @pytest.mark.parametrize("nv", [79, 96])
    def test_fine_velocity_grid_lift(self, tmp_path, nv):
        cfg, _ = tiny_config(tmp_path, n_cells=20, n_velocities=nv)
        ref = tmp_path / "ref.snap"
        assert main(["run-reference", "--config", str(cfg), "--steps", "5",
                     "--out", str(ref)]) == EXIT_OK
        assert main(["lift", "--config", str(cfg), "--reference", str(ref), "--order", "1",
                     "--out", str(tmp_path / "lift")]) == EXIT_OK
        assert read_rows(tmp_path / "lift_norms.csv")[2][0] == "cr_m1"

    def test_sweep(self, tmp_path):
        cfg, _ = tiny_config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--grid-sizes", "8,12",
                     "--orders", "0,1", "--steps", "5", "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert rows[0] == ["N", "m", "gmres_iterations", "newton_iterations", "converged"]
        assert len(rows) == 1 + 4
        assert all(r[4] == "1" for r in rows[1:])

    def test_sweep_lifts_by_newton_on_a_picard_config(self, tmp_path):
        cfg, _ = tiny_config(tmp_path, solver="picard")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--grid-sizes", "8",
                     "--orders", "0,1", "--steps", "5", "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)[1:]
        assert len(rows) == 2 and all(r[4] == "1" and int(r[2]) > 0 for r in rows)

    def test_lift_solver_is_chosen_by_the_config_alone(self, tmp_path, capsys):
        cfg, _ = tiny_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["lift", "--config", str(cfg), "--reference", "ref.snap", "--solver", "picard",
                  "--out", str(tmp_path / "lift")])
        assert exc.value.code == EXIT_ARG
        assert "unrecognized arguments: --solver picard" in capsys.readouterr().err

    @pytest.mark.parametrize("grid_sizes, orders", [("8,12", "0,99"), ("8,-4", "0")])
    def test_sweep_checks_every_n_and_m_before_any_step(self, tmp_path, capsys, monkeypatch,
                                                         grid_sizes, orders):
        cfg, _ = tiny_config(tmp_path)
        monkeypatch.setattr(BGKStepper, "step", no_step)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--grid-sizes", grid_sizes,
                     "--orders", orders, "--steps", "5", "--out", str(out)]) == EXIT_ARG
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "N=" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("flag, text", [("--grid-sizes", "20,x"), ("--orders", "0,,1")])
    def test_sweep_bad_list_entry_names_the_flag(self, tmp_path, capsys, monkeypatch, flag,
                                                 text):
        cfg, _ = tiny_config(tmp_path)
        monkeypatch.setattr(BGKStepper, "step", no_step)
        lists = {"--grid-sizes": "8", "--orders": "0", flag: text}
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), *(a for kv in lists.items() for a in kv),
                  "--out", str(tmp_path / "sweep.csv")])
        assert exc.value.code == EXIT_ARG
        captured = capsys.readouterr()
        assert f"argument {flag}: " in captured.err and repr(text) in captured.err
        assert "N=" not in captured.out

    def test_sweep_failed_lift_counts_completed_newton_steps(self, tmp_path):
        # one GMRES iteration cannot reach rtol, so each lift fails in Newton step 0
        cfg, _ = tiny_config(tmp_path, gmres_max_iters=1)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--grid-sizes", "24", "--orders", "0,1",
                     "--steps", "20", "--out", str(out)]) == EXIT_OK
        assert read_rows(out)[1:] == [["24", "0", "", "0", "0"], ["24", "1", "", "0", "0"]]

    def test_sweep_failure_without_history_leaves_newton_count_empty(self, tmp_path,
                                                                     monkeypatch):
        def fails(*args, **kwargs):
            raise NumericalError("no history")

        monkeypatch.setattr("klift.cli.lift_macro", fails)
        cfg, _ = tiny_config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--grid-sizes", "8", "--orders", "0",
                     "--steps", "0", "--out", str(out)]) == EXIT_OK
        assert read_rows(out)[1:] == [["8", "0", "", "", "0"]]

    def test_restrict_export(self, tmp_path):
        cfg, sc = tiny_config(tmp_path)
        ref = tmp_path / "ref.snap"
        main(["run-reference", "--config", str(cfg), "--steps", "0", "--out", str(ref)])
        out = tmp_path / "macro.csv"
        assert main(["restrict", "--config", str(cfg), "--snapshot", str(ref),
                     "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert rows[0] == ["cell", "x", "number_density", "velocity", "temperature"]
        n_a, _, T_a = sc.ambient
        assert float(rows[1][2]) == pytest.approx(n_a, rel=1e-9)
        assert float(rows[1][4]) == pytest.approx(T_a, rel=1e-9)

    def test_restrict_truncated_snapshot_is_arg_error(self, tmp_path, capsys):
        cfg, _ = tiny_config(tmp_path)
        snap = tmp_path / "cut.snap"
        snap.write_bytes(b"KLIFT1\x01\x00")
        assert main(["restrict", "--config", str(cfg), "--snapshot", str(snap),
                     "--out", str(tmp_path / "macro.csv")]) == EXIT_ARG
        assert "cut.snap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["restrict", "lift"])
    def test_unphysical_snapshot_is_numerical_error(self, tmp_path, capsys, command):
        # a negative-density cell is named by restriction before any output
        cfg, sc = tiny_config(tmp_path)
        field = sc.initial_field()
        values = field.values.copy()
        values[7] *= -1.0
        snap = tmp_path / "bad.snap"
        write_snapshot(snap, field.with_values(values))
        flag = "--reference" if command == "lift" else "--snapshot"
        assert main([command, "--config", str(cfg), flag, str(snap),
                     "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure: unphysical state: cell 7 ")
        assert not list(tmp_path.glob("out*"))

    def test_restrict_grid_mismatch_is_arg_error(self, tmp_path):
        snap = tmp_path / "seven.snap"
        write_snapshot(snap, load_shipped("helium_desk.cfg").with_overrides(n_cells=7)
                       .initial_field())
        assert main(["restrict", "--config", str(scenario_path("helium_desk.cfg")),
                     "--snapshot", str(snap), "--out", str(tmp_path / "macro.csv")]) == EXIT_ARG

    def test_missing_config_is_arg_error(self, tmp_path):
        assert main(["run-reference", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o.snap")]) == EXIT_ARG

    def test_memory_error_is_arg_error(self, tmp_path, capsys, monkeypatch):
        def too_large(self):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(Scenario, "initial_field", too_large)
        cfg, _ = tiny_config(tmp_path)
        assert main(["run-reference", "--config", str(cfg),
                     "--out", str(tmp_path / "o.snap")]) == EXIT_ARG
        assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB for an array\n"

    def test_lift_nonconvergence_is_numerical_error(self, tmp_path):
        # an unreachable Picard tolerance forces a ConvergenceError; the
        # report CSV must still be persisted for post-mortem
        cfg, _ = tiny_config(tmp_path, n_cells=8, n_velocities=16,
                             solver="picard", picard_tol=1e-30)
        ref = tmp_path / "ref.snap"
        main(["run-reference", "--config", str(cfg), "--steps", "5", "--out", str(ref)])
        prefix = tmp_path / "fail"
        code = main(["lift", "--config", str(cfg), "--reference", str(ref),
                     "--out", str(prefix)])
        assert code == EXIT_NUMERICAL
        report = read_rows(f"{prefix}_report.csv")
        assert report[0] == ["iter", "residual", "drift", "seconds"]
        assert len(report) > 1

    def test_lift_scratch_out_of_memory_is_arg_error(self, tmp_path, monkeypatch, capsys):
        # the lift's buffer block and GMRES's basis are mappings of their own
        # (``cr._scratch``); one the kernel refuses reads as numpy's failure
        cfg, _ = tiny_config(tmp_path)
        ref = tmp_path / "ref.snap"
        main(["run-reference", "--config", str(cfg), "--steps", "5", "--out", str(ref)])

        def no_memory(*args, **kwargs):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(klift.cr, "mmap", SimpleNamespace(mmap=no_memory))
        capsys.readouterr()
        assert main(["lift", "--config", str(cfg), "--reference", str(ref),
                     "--out", str(tmp_path / "lift")]) == EXIT_ARG
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and "Traceback" not in err

    def test_csv_comment_headers_carry_hash(self, tmp_path):
        cfg, sc = tiny_config(tmp_path)
        out = tmp_path / "spec.csv"
        main(["spectrum", "--config", str(cfg), "--operator", "qr-projector",
              "--out", str(out)])
        first = out.read_text(encoding="utf-8").splitlines()[0]
        assert first == f"# config_hash = {config_hash(sc)}"


def package_env():
    """The environment with this checkout's klift first on PYTHONPATH, for subprocesses."""
    env = dict(os.environ)
    package_root = str(Path(klift.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


NO_SCIPY_LIFT = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import klift
from klift.cli import main
cfg = sys.argv[1]
code = main(["run-reference", "--config", cfg, "--steps", "20", "--out", "ref.snap"])
sys.exit(code or main(["lift", "--config", cfg, "--reference", "ref.snap",
                       "--order", "1", "--out", "lift1"]))
"""


def test_lift_runs_without_scipy(tmp_path):
    """numpy is klift's only runtime dependency: a desk lift needs no scipy."""
    env = package_env()
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_LIFT, str(scenario_path("helium_desk.cfg"))],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == EXIT_OK, done.stdout + done.stderr
    assert (tmp_path / "lift1_lifted.snap").exists()


def test_unallocatable_grid_is_arg_error(tmp_path):
    """A grid too large to allocate exits 2 with numpy's message, not a traceback.

    The address-space limit makes the allocation fail whatever the kernel's
    overcommit setting, before any memory is touched; never run this case
    without it.
    """
    resource = pytest.importorskip("resource")
    limit = 4 * 1024**3

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    cfg = config_with(tmp_path, "grid.N", "1000000000000")
    env = package_env()
    done = subprocess.run(
        [sys.executable, "-m", "klift.cli", "run-reference", "--config", str(cfg),
         "--out", str(tmp_path / "o.snap")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=limit_address_space,
    )
    assert done.returncode == EXIT_ARG, done.stdout + done.stderr
    assert done.stderr.startswith("error: Unable to allocate")
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "o.snap").exists()
