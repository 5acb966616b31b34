"""Command-line interface: exit codes, determinism, schemas, file outputs."""

import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import lamedn
from lamedn.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_THRESHOLD,
    ConfigError,
    load_config,
    main,
)
from lamedn.fem import load_matrix_json
from lamedn.ucp import ball_l2, kelvin_ensemble


def _cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config()
        assert cfg["mesh"]["N"] == 1
        assert cfg["seed"] == 0

    def test_seed_override(self):
        assert load_config(seed=77)["seed"] == 77

    def test_unknown_key_rejected(self, tmp_path):
        path = _cfg(tmp_path, "bad.json", {"bogus": 1})
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))

    def test_mesh_divisibility_enforced(self, tmp_path):
        path = _cfg(tmp_path, "mesh.json", {"mesh": {"N": 3, "n": 4}})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_q0_sample_set_rejected(self, tmp_path):
        path = _cfg(tmp_path, "q.json", {"q0": {"samples": "corners"}})
        with pytest.raises(ConfigError, match="q0 samples"):
            load_config(path)

    def test_nested_merge_keeps_defaults(self, tmp_path):
        path = _cfg(tmp_path, "m.json", {"tolerances": {"alessandrini": 1e-6}})
        cfg = load_config(path)
        assert cfg["tolerances"]["alessandrini"] == 1e-6
        assert cfg["tolerances"]["frechet_fd"] == 1e-5  # untouched default


class TestExitCodes:
    def test_config_error_exit(self, tmp_path, capsys):
        path = _cfg(tmp_path, "bad.json", {"bogus": 1})
        code = main(["forward", "--config", path, "--out", str(tmp_path / "o.json")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [{"q0": {"samplez": "vertices"}}, {"q0": 3},
                                         {"mesh": {"N": "x"}}, {"box": {"alpha0": "a"}},
                                         {"probe": {"num_pairs": "x"}},
                                         {"parameters": {"lambdas": ["x"], "mus": [1.0]}}])
    def test_bad_section_is_config_error(self, tmp_path, capsys, payload):
        path = _cfg(tmp_path, "bad.json", payload)
        code = main(["q0", "--config", path, "--out", str(tmp_path / "o.json")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error")
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("command", ["forward", "q0"])
    @pytest.mark.parametrize("payload", [
        {"mesh": {"N": 1, "n": 1}}, {"box": {"alpha0": 1.0}}, {"box": {"beta0": 2.5}},
        {"parameters": {"lambdas": [], "mus": []}},
        {"parameters": {"lambdas": [1e400], "mus": [1.0]}}])
    def test_out_of_range_is_config_error(self, tmp_path, capsys, command, payload):
        # the range rules are the constructors': build_layered_cube wants
        # n >= 2, AdmissibleBox alpha0 < 1 and beta0 < 2, LameVector N >= 1
        # finite values (json reads 1e400 as inf)
        path = _cfg(tmp_path, "bad.json", payload)
        code = main([command, "--config", path, "--out", str(tmp_path / "o.json")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error")
        assert not (tmp_path / "o.json").exists()

    def test_parameter_layer_mismatch_is_config_error(self, tmp_path, capsys):
        path = _cfg(tmp_path, "p.json",
                    {"parameters": {"lambdas": [1.0, 1.0], "mus": [1.0, 1.0]}})
        code = main(["forward", "--config", path, "--out", str(tmp_path / "o.json")])
        assert code == EXIT_CONFIG

    def test_threshold_failure_exit(self, tmp_path, capsys):
        path = _cfg(tmp_path, "t.json",
                    {"tolerances": {"alessandrini": 0.0}, "identity": {"num_pairs": 2}})
        code = main(["identity_check", "--config", path,
                     "--out", str(tmp_path / "o.json")])
        assert code == EXIT_THRESHOLD
        assert capsys.readouterr().err.startswith("FAIL alessandrini")
        # the report is still written, with pass = false
        rep = json.loads((tmp_path / "o.json").read_text())
        assert rep["pass"] is False

    def test_success_exit(self, tmp_path):
        code = main(["forward", "--out", str(tmp_path / "dn.json")])
        assert code == EXIT_OK


class TestForward:
    def test_writes_square_symmetric_matrix(self, tmp_path):
        out = tmp_path / "dn.json"
        assert main(["forward", "--out", str(out)]) == EXIT_OK
        m = load_matrix_json(out)
        assert m.shape[0] == m.shape[1]
        assert np.abs(m - m.T).max() < 1e-10

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["forward"]) == EXIT_OK
        assert (tmp_path / "lamedn_forward.json").exists()


class TestDeterminism:
    def test_identity_report_is_byte_stable(self, tmp_path):
        path = _cfg(tmp_path, "c.json", {"identity": {"num_pairs": 2}})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["identity_check", "--config", path, "--out", str(a)]) == EXIT_OK
        assert main(["identity_check", "--config", path, "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_q0_report_is_byte_stable(self, tmp_path):
        path = _cfg(tmp_path, "c.json", {"q0": {"num_samples": 2}})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["q0", "--config", path, "--out", str(a)]) == EXIT_OK
        assert main(["q0", "--config", path, "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_q0_vertex_report_is_byte_stable(self, tmp_path):
        # the 16 vertex vectors of N = 2 against the seeded default draws of
        # the same mesh: the soft-over-stiff vertex gives a q0 ten times
        # smaller than the two draws
        mesh = {"N": 2, "n": 4}
        path = _cfg(tmp_path, "c.json", {"mesh": mesh, "q0": {"samples": "vertices"}})
        a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
        assert main(["q0", "--config", path, "--out", str(a)]) == EXIT_OK
        assert main(["q0", "--config", path, "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        rep = json.loads(a.read_text())
        assert rep["samples"] == "vertices" and rep["num_samples"] == 16
        assert rep["inv_q0"] == 1.0 / rep["q0"]
        diag = rep["diagnostics"]
        assert np.abs(diag["h"]).max() == 1.0 and diag["h"][diag["face"]] == diag["sign"]
        vertices = {(0.0, 0.5), (2.0, 0.5), (2.0, 2.0), (-1.0, 2.0)}
        assert {(lam, mu) for lam, mu in zip(diag["L"][:2], diag["L"][2:])} <= vertices
        seeded = _cfg(tmp_path, "s.json", {"mesh": mesh})
        assert main(["q0", "--config", seeded, "--out", str(c)]) == EXIT_OK
        assert rep["q0"] < 0.2 * json.loads(c.read_text())["q0"]

    def test_reconstruct_report_is_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["reconstruct", "--out", str(a)]) == EXIT_OK
        assert main(["reconstruct", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_report(self, tmp_path):
        path = _cfg(tmp_path, "c.json", {"identity": {"num_pairs": 2}})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["identity_check", "--config", path, "--out", str(a), "--seed", "1"])
        main(["identity_check", "--config", path, "--out", str(b), "--seed", "2"])
        ra = json.loads(a.read_text())
        rb = json.loads(b.read_text())
        assert ra["residuals"] != rb["residuals"]

    def test_json_keys_sorted(self, tmp_path):
        path = _cfg(tmp_path, "c.json", {"identity": {"num_pairs": 2}})
        out = tmp_path / "a.json"
        main(["identity_check", "--config", path, "--out", str(out)])
        rep = json.loads(out.read_text())
        assert list(rep) == sorted(rep)


class TestChecksAndReports:
    def test_derivative_check(self, tmp_path):
        path = _cfg(tmp_path, "c.json", {"derivative": {"num_points": 1}})
        out = tmp_path / "d.json"
        assert main(["derivative_check", "--config", path, "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["pass"] is True
        assert rep["max_error"] <= rep["tolerance"]
        assert rep["gram"] == "spectral-half"

    def test_q0_report(self, tmp_path):
        path = _cfg(tmp_path, "c.json", {"q0": {"num_samples": 1}})
        out = tmp_path / "q.json"
        assert main(["q0", "--config", path, "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["q0"] > 0
        assert {"mesh", "gram", "q0", "ratios", "iterates", "diagnostics"} <= set(rep)
        diag = rep["diagnostics"]
        assert set(diag) == {"faces_solved", "faces_skipped", "faces_cut", "faces_certified",
                             "newton_steps", "lp_steps", "capped_centrings", "gap",
                             "sample", "L", "face", "sign", "v", "h"}
        assert (diag["faces_solved"] + diag["faces_skipped"] + diag["faces_certified"]
                == 2 * rep["mesh"]["N"])
        assert len(diag["newton_steps"]) == diag["faces_solved"]
        assert 0 <= diag["faces_cut"] < diag["faces_solved"]
        assert diag["capped_centrings"] >= 0

    def test_probe_report(self, tmp_path):
        path = _cfg(tmp_path, "c.json", {"probe": {"num_pairs": 3}})
        out = tmp_path / "p.json"
        assert main(["probe", "--config", path, "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert len(rep["ratios"]) == 3
        assert rep["max_ratio"] == max(rep["ratios"])
        assert len(rep["gram_hash"]) == 16

    def test_probe_in_a_wider_box_does_not_warn(self, tmp_path):
        # alpha0 = 0.2 admits shear moduli down to 0.2, below the default
        # box's 0.5; such samples are positive definite and assemble quietly
        path = _cfg(tmp_path, "c.json", {"mesh": {"N": 1, "n": 4},
                                         "box": {"alpha0": 0.2, "beta0": 1.0},
                                         "probe": {"num_pairs": 3}})
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            assert main(["probe", "--config", path,
                         "--out", str(tmp_path / "p.json")]) == EXIT_OK

    def test_reconstruct_report(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["reconstruct", "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["final_error"] <= rep["tolerance"]
        assert rep["iterates"][0]["k"] == 0
        assert {"k", "residual", "L"} <= set(rep["iterates"][0])
        assert rep["stop_reason"] == "step_tol"
        assert rep["diagnostics"] == {"rejected_candidates": 0}

    def test_kernels_csv(self, tmp_path):
        out = tmp_path / "k.csv"
        assert main(["kernels", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,x3,c,g13,g23,g33"
        # 9 x 5 grid minus the one point that coincides with the source
        assert len(lines) == 1 + 44
        vals = [float(v) for v in lines[1].split(",")]
        assert len(vals) == 7

    def test_ucp_report_and_csvs(self, tmp_path):
        path = _cfg(tmp_path, "c.json", {"ucp": {"count": 60}})
        out = tmp_path / "u.json"
        assert main(["ucp", "--config", path, "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert 0.0 < rep["three_sphere"]["theta0"] < 1.0
        assert rep["three_sphere"]["violation_rate"] <= 0.05
        assert rep["caccioppoli_max"] > 0
        assert rep["cone"]["max_C_impl"] > 0
        ts = (tmp_path / "u_three_sphere.csv").read_text().splitlines()
        cone = (tmp_path / "u_cone.csv").read_text().splitlines()
        assert ts[0] == "member_id,r1_int,r2_int,r3_int"
        assert len(ts) == 1 + rep["three_sphere"]["n_fit"] + rep["three_sphere"]["n_test"]
        member, r1_int = ts[1].split(",")[:2]
        m = kelvin_ensemble(60, radius=1.0, seed=0).members[int(member)]
        assert float(r1_int) == ball_l2(m, np.zeros(3), 0.25)
        assert cone[0] == "member_id,eps,E,value,C_impl"
        assert len(cone) == 1 + rep["cone"]["num_rows"]
        assert max(float(row.split(",")[4]) for row in cone[1:]) == rep["cone"]["max_C_impl"]


class TestThreads:
    """The BLAS cap only works if it is set before NumPy loads."""

    @staticmethod
    def _python(code, **env):
        src = str(Path(lamedn.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                              env=dict(os.environ, PYTHONPATH=path, **env),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    # Records OPENBLAS_NUM_THREADS at the moment NumPy is first imported.
    SPY = """
        import os, sys
        seen = []
        class Spy:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" and not seen:
                    seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        sys.meta_path.insert(0, Spy())
        from lamedn.cli import main
        """

    def test_cli_import_loads_no_numpy(self):
        out = self._python("""
            import sys
            import lamedn.cli
            print("numpy" in sys.modules, "scipy" in sys.modules)
            """)
        assert out == ["False", "False"]

    def test_explicit_threads_overrides_environment(self, tmp_path):
        out = self._python(self.SPY + f"""
        assert main(["forward", "--threads", "1", "--out", {str(tmp_path / "o.json")!r}]) == 0
        print(seen[0], os.environ["OPENBLAS_NUM_THREADS"])
        """, OPENBLAS_NUM_THREADS="2")
        assert out == ["1", "1"]

    def test_default_keeps_environment(self, tmp_path):
        out = self._python(self.SPY + f"""
        assert main(["forward", "--out", {str(tmp_path / "o.json")!r}]) == 0
        print(seen[0], os.environ["OPENBLAS_NUM_THREADS"])
        """, OPENBLAS_NUM_THREADS="2")
        assert out == ["2", "2"]
