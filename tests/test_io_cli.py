"""Matrix-file interchange and the command-line surface."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nclp import (AlgebraElement, BlockAlgebra, CutoffError,
                  DivergenceParams, DomainError, FileFormatError,
                  PositiveFunctional, TensorAlgebra, UsageError, d_tilde,
                  default_eps_rel, kron_element, lp_norm, q_tilde_alpha,
                  q_tilde_alpha_z)
from nclp import cli, io
from nclp.cli import main
from nclp.config import resolve_eps_rel
from nclp.suites import SUITE_NAMES

from _stacks import functional


def write_diag(path, entries, kind="functional"):
    alg = BlockAlgebra((len(entries),))
    io.save_matrix_file(path, alg.diagonal(entries), kind)
    return path


class TestMatrixFile:
    def test_roundtrip_semantically_identical(self, tmp_path):
        alg = BlockAlgebra((2, 3))
        rng = np.random.default_rng(71)
        x = AlgebraElement(alg, [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for n in alg.block_dims])
        path = tmp_path / "x.json"
        io.save_matrix_file(path, x, "element")
        back = io.load_matrix_file(path)
        assert back.kind == "element"
        assert (back.element - x).frobenius() == 0.0  # exact float roundtrip

    def test_functional_kind_validates_psd(self, tmp_path):
        path = tmp_path / "bad.json"
        alg = BlockAlgebra((2,))
        doc = io.matrix_document(alg.diagonal([-0.5, 1.0]), "functional")
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError):
            io.load_matrix_file(path)

    def test_functional_kind_validates_hermitian(self, tmp_path):
        path = tmp_path / "bad.json"
        alg = BlockAlgebra((2,))
        x = AlgebraElement(alg, [np.array([[1.0, 1.0], [0.0, 1.0]])])
        path.write_text(json.dumps(io.matrix_document(x, "functional")))
        with pytest.raises(FileFormatError):
            io.load_matrix_file(path)

    def test_rejects_bad_structures(self, tmp_path):
        cases = [
            "[]",
            '{"algebra": {"blocks": [2]}, "kind": "element"}',
            '{"algebra": {"blocks": [0]}, "matrix": {"blocks": []}, '
            '"kind": "element"}',
            '{"algebra": {"blocks": [2]}, "matrix": {"blocks": '
            '[{"re": [[1, 2]], "im": [[0, 0]]}]}, "kind": "element"}',
            '{"algebra": {"blocks": [1]}, "matrix": {"blocks": '
            '[{"re": [[1]], "im": [[0]]}]}, "kind": "wat"}',
        ]
        for i, text in enumerate(cases):
            path = tmp_path / f"bad{i}.json"
            path.write_text(text)
            with pytest.raises(FileFormatError):
                io.load_matrix_file(path)

    def test_rejects_nonfinite_literals(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(
            '{"algebra": {"blocks": [1]}, "matrix": {"blocks": '
            '[{"re": [[Infinity]], "im": [[0]]}]}, "kind": "element"}')
        with pytest.raises(FileFormatError):
            io.load_matrix_file(path)

    def test_report_is_json_with_inf_as_string(self):
        doc = io.build_run_report(config={"seed": 1},
                                  results={"v": math.inf, "r": 0.5},
                                  status="ok")
        text = io.dumps_report(doc)
        parsed = json.loads(text)
        assert parsed["results"] == {"v": "inf", "r": 0.5}
        assert parsed["residuals"] == {}
        assert parsed["config"]["log_base"] == "nat"
        assert parsed["config"]["prng"]
        assert parsed["config"]["eigensolver"]


class TestEpsRelEnv:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("NCLP_EPS_REL", raising=False)
        assert default_eps_rel() == 1e-12

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("NCLP_EPS_REL", "1e-9")
        assert default_eps_rel() == 1e-9

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("NCLP_EPS_REL", "-1")
        with pytest.raises(ValueError):
            default_eps_rel()


class TestCliDivergence:
    def test_identical_states(self, tmp_path, capsys):
        psi = write_diag(tmp_path / "psi.json", [0.5, 0.5])
        code = main(["divergence", "--kind", "sandwiched", "--alpha", "2",
                     "--psi", str(psi), "--phi", str(psi)])
        out = capsys.readouterr().out
        assert code == 0
        q_line, d_line = out.strip().splitlines()
        assert abs(float(q_line.split("=", 1)[1]) - 1.0) < 1e-10
        assert abs(float(d_line.split("=", 1)[1])) < 1e-10

    def test_classical_pair_alpha_z(self, tmp_path, capsys):
        psi = write_diag(tmp_path / "psi.json", [0.5, 0.5])
        phi = write_diag(tmp_path / "phi.json", [1 / 3, 2 / 3])
        code = main(["divergence", "--kind", "alpha-z", "--alpha", "2",
                     "--z", "2", "--psi", str(psi), "--phi", str(phi)])
        out = capsys.readouterr().out
        assert code == 0
        q_line, d_line = out.strip().splitlines()
        assert abs(float(q_line.split("=", 1)[1]) - 1.125) < 1e-12
        assert abs(float(d_line.split("=", 1)[1]) - math.log(9 / 8)) < 1e-12

    def test_orthogonal_supports_inf_exit_zero(self, tmp_path, capsys):
        psi = write_diag(tmp_path / "psi.json", [1.0, 0.0])
        phi = write_diag(tmp_path / "phi.json", [0.0, 1.0])
        code = main(["divergence", "--kind", "sandwiched", "--alpha", "2",
                     "--psi", str(psi), "--phi", str(phi)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Q=inf reason=support_violation" in out

    def test_overflowing_two_z_exit_two(self, tmp_path, capsys):
        # 2z = inf would collapse the sandwich exponents to 0 and print a
        # false Q=1.0 D=0.0; D_max of this pair is 0.288.
        psi = write_diag(tmp_path / "psi.json", [0.6, 0.4])
        phi = tmp_path / "phi.json"
        io.save_matrix_file(phi, AlgebraElement(BlockAlgebra((2,)), [
            np.array([[0.5, 0.1], [0.1, 0.5]])]), "functional")
        code = main(["divergence", "--kind", "alpha-z", "--alpha", "1e308",
                     "--z", "1e308", "--psi", str(psi), "--phi", str(phi)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "2z overflows" in captured.err

    def test_json_output(self, tmp_path, capsys):
        psi = write_diag(tmp_path / "psi.json", [0.5, 0.5])
        phi = write_diag(tmp_path / "phi.json", [1 / 3, 2 / 3])
        code = main(["divergence", "--kind", "alpha-z", "--alpha", "2",
                     "--psi", str(psi), "--phi", str(phi), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "ok"
        assert doc["results"]["Q"]["value"] == pytest.approx(1.125)
        assert doc["config"]["alpha"] == 2.0
        assert doc["config"]["eps_rel"] == 1e-12

    def test_exit_codes(self, tmp_path, capsys):
        psi = write_diag(tmp_path / "psi.json", [0.5, 0.5])
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        # malformed input -> 1
        assert main(["divergence", "--kind", "sandwiched", "--alpha", "2",
                     "--psi", str(bad), "--phi", str(psi)]) == 1
        # missing file -> 1
        assert main(["divergence", "--kind", "sandwiched", "--alpha", "2",
                     "--psi", str(tmp_path / "none.json"),
                     "--phi", str(psi)]) == 1
        # alpha = 1 -> precondition violation -> 2
        assert main(["divergence", "--kind", "sandwiched", "--alpha", "1",
                     "--psi", str(psi), "--phi", str(psi)]) == 2
        # psi = 0 -> 2
        zero = write_diag(tmp_path / "zero.json", [0.0, 0.0])
        assert main(["divergence", "--kind", "sandwiched", "--alpha", "2",
                     "--psi", str(zero), "--phi", str(psi)]) == 2
        # --z with sandwiched -> usage -> 1
        assert main(["divergence", "--kind", "sandwiched", "--alpha", "2",
                     "--z", "2", "--psi", str(psi), "--phi", str(psi)]) == 1
        capsys.readouterr()


class TestCliLpNorm:
    def test_plain_norm(self, tmp_path, capsys):
        x = write_diag(tmp_path / "x.json", [3.0, 4.0], kind="element")
        assert main(["lp-norm", "--p", "2", "--x", str(x)]) == 0
        out = capsys.readouterr().out
        assert abs(float(out.split("=", 1)[1]) - 5.0) < 1e-12

    def test_kosaki_p1_equals_trace_norm(self, tmp_path, capsys):
        x = write_diag(tmp_path / "x.json", [0.25, 0.5], kind="element")
        phi = write_diag(tmp_path / "phi.json", [0.5, 0.5])
        assert main(["lp-norm", "--p", "1", "--x", str(x), "--kosaki",
                     "--phi", str(phi), "--eta", "0.5"]) == 0
        out = capsys.readouterr().out
        assert abs(float(out.split("=", 1)[1]) - 0.75) < 1e-12

    def test_kosaki_state_norm_one(self, tmp_path, capsys):
        phi = write_diag(tmp_path / "phi.json", [0.5, 0.5])
        assert main(["lp-norm", "--p", "3", "--x", str(phi), "--kosaki",
                     "--phi", str(phi), "--eta", "0.25"]) == 0
        out = capsys.readouterr().out
        assert abs(float(out.split("=", 1)[1]) - 1.0) < 1e-11

    def test_conditioning_exit_code(self, tmp_path, capsys):
        x = write_diag(tmp_path / "x.json", [1.0, 1.0], kind="element")
        phi = write_diag(tmp_path / "phi.json", [1.0, 0.0])
        assert main(["lp-norm", "--p", "2", "--x", str(x), "--kosaki",
                     "--phi", str(phi)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("extra", [["--eta", "0.9"],
                                       ["--phi", "missing.json"],
                                       ["--eta", "0.9", "--phi",
                                        "missing.json"]])
    def test_kosaki_flags_without_kosaki_exit_one(self, tmp_path, capsys,
                                                  extra):
        x = write_diag(tmp_path / "x.json", [3.0, 4.0], kind="element")
        assert main(["lp-norm", "--p", "2", "--x", str(x), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "apply only with --kosaki" in captured.err

    def test_unparsable_exponent_exit_one(self, tmp_path, capsys):
        x = write_diag(tmp_path / "x.json", [1.0, 2.0], kind="element")
        assert main(["lp-norm", "--p", "abc", "--x", str(x)]) == 1
        assert "got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("p, norm", [("2", "1.4142135623730951e+308"),
                                         ("3", "1.2599210498948732e+308")])
    def test_entries_near_float_max(self, tmp_path, capsys, p, norm):
        x = write_diag(tmp_path / "x.json", [1e308, 1e308], kind="element")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["lp-norm", "--p", p, "--x", str(x)]) == 0
        assert capsys.readouterr().out == f"norm={norm}\n"

    @pytest.mark.parametrize("kosaki", [False, True])
    def test_norm_beyond_float_range_exit_two(self, tmp_path, capsys,
                                              kosaki):
        x = write_diag(tmp_path / "x.json", [1e308, 1e308], kind="element")
        argv = ["lp-norm", "--p", "1", "--x", str(x)]
        if kosaki:
            phi = write_diag(tmp_path / "phi.json", [0.3, 0.7])
            argv += ["--kosaki", "--phi", str(phi)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert "exceeds the float range" in capsys.readouterr().err


class TestCliTensor:
    def test_identity_product(self, tmp_path, capsys):
        a = write_diag(tmp_path / "a.json", [1.0, 1.0], kind="element")
        out = tmp_path / "prod.json"
        assert main(["tensor", "--left", str(a), "--right", str(a),
                     "-o", str(out)]) == 0
        product = io.load_matrix_file(out)
        assert product.algebra.block_dims == (4,)
        assert np.allclose(product.element.blocks[0], np.eye(4))
        capsys.readouterr()

    def test_diag_example(self, tmp_path, capsys):
        a = write_diag(tmp_path / "a.json", [1.0, 2.0], kind="element")
        b = write_diag(tmp_path / "b.json", [3.0], kind="element")
        out = tmp_path / "prod.json"
        assert main(["tensor", "--left", str(a), "--right", str(b),
                     "-o", str(out)]) == 0
        product = io.load_matrix_file(out)
        assert np.allclose(product.element.blocks[0], np.diag([3.0, 6.0]))
        capsys.readouterr()

    def test_roundtrip_norm_multiplicativity(self, tmp_path, capsys):
        rng = np.random.default_rng(72)
        alg = BlockAlgebra((3,))
        x = AlgebraElement(alg, [rng.standard_normal((3, 3))
                                 + 1j * rng.standard_normal((3, 3))])
        y = AlgebraElement(alg, [rng.standard_normal((3, 3))
                                 + 1j * rng.standard_normal((3, 3))])
        xp, yp = tmp_path / "x.json", tmp_path / "y.json"
        io.save_matrix_file(xp, x, "element")
        io.save_matrix_file(yp, y, "element")
        out = tmp_path / "k.json"
        assert main(["tensor", "--left", str(xp), "--right", str(yp),
                     "-o", str(out)]) == 0
        k = io.load_matrix_file(out).element
        assert lp_norm(k, 2) == pytest.approx(
            lp_norm(x, 2) * lp_norm(y, 2), rel=1e-10)
        capsys.readouterr()

    def test_functional_kind_propagates(self, tmp_path, capsys):
        a = write_diag(tmp_path / "a.json", [0.5, 0.5])
        out = tmp_path / "prod.json"
        assert main(["tensor", "--left", str(a), "--right", str(a),
                     "-o", str(out)]) == 0
        assert io.load_matrix_file(out).kind == "functional"
        capsys.readouterr()


class TestCliSuite:
    def test_suite_runs_green(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["suite", "--name", "theorem6", "--trials", "5",
                     "--seed", "1", "--dims", "2x2,3x2",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "ok"
        assert len(doc["results"]) == 10
        assert doc["config"]["eps_rel"] == 1e-12
        capsys.readouterr()

    def test_unknown_suite_exit_one(self, capsys):
        assert main(["suite", "--name", "nope", "--trials", "1",
                     "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert "unknown suite" in err

    def test_rerun_byte_identical(self, tmp_path, capsys):
        args = ["suite", "--name", "lemma9", "--trials", "4", "--seed", "9",
                "--dims", "2,3"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_tol_override_echoed_and_applied(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["suite", "--name", "theorem6", "--trials", "2",
                     "--seed", "1", "--dims", "2x2",
                     "--tol-override", "relative=0.5", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["tolerance_overrides"]["relative"] == 0.5
        capsys.readouterr()

    def test_usage_errors_exit_one(self, capsys):
        assert main(["suite", "--name", "theorem6", "--trials", "2",
                     "--seed", "1", "--dims", "bogus"]) == 1
        assert main(["no-such-command"]) == 1
        assert main(["suite"]) == 1  # missing --name
        capsys.readouterr()


class TestEpsRelValidation:
    """Every kernel cutoff is checked in config.resolve_eps_rel, whatever its
    source; a bad one is a usage error (exit 1), never a traceback."""

    def _divergence(self, tmp_path, *extra):
        psi = write_diag(tmp_path / "psi.json", [0.5, 0.5])
        return main(["divergence", "--kind", "sandwiched", "--alpha", "2",
                     "--psi", str(psi), "--phi", str(psi), *extra])

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_flag_rejected(self, tmp_path, capsys, value):
        assert self._divergence(tmp_path, "--eps-rel", value) == 1
        assert "eps_rel must be a positive finite number" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "abc"])
    def test_env_rejected(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("NCLP_EPS_REL", value)
        assert self._divergence(tmp_path) == 1
        assert "NCLP_EPS_REL" in capsys.readouterr().err
        with pytest.raises(CutoffError):
            default_eps_rel()

    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
    def test_api_rejected(self, value):
        alg = BlockAlgebra((2,))
        with pytest.raises(CutoffError):
            resolve_eps_rel(value)
        with pytest.raises(CutoffError):
            PositiveFunctional(alg.diagonal([0.5, 0.5]), eps_rel=value)

    def test_valid_flag_accepted(self, tmp_path, capsys):
        assert self._divergence(tmp_path, "--eps-rel", "1e-9") == 0
        capsys.readouterr()


class TestCliDivergenceDomain:
    @pytest.mark.parametrize("extra", [
        ["--kind", "sandwiched", "--alpha", "nan"],
        ["--kind", "sandwiched", "--alpha", "inf"],
        ["--kind", "alpha-z", "--alpha", "2", "--z", "nan"],
        ["--kind", "alpha-z", "--alpha", "2", "--z", "inf"],
        ["--kind", "alpha-z", "--alpha", "nan", "--z", "1"],
    ])
    def test_non_finite_parameters_exit_two(self, tmp_path, capsys, extra):
        psi = write_diag(tmp_path / "psi.json", [0.5, 0.5])
        assert main(["divergence", *extra, "--psi", str(psi),
                     "--phi", str(psi)]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha,z", [(float("nan"), None),
                                         (float("inf"), None),
                                         (2.0, float("nan")),
                                         (2.0, float("inf"))])
    def test_params_reject_non_finite(self, alpha, z):
        with pytest.raises(DomainError):
            DivergenceParams(alpha, z=z)

    @pytest.mark.parametrize("kind,alpha,z,psi_diag,phi_diag", [
        ("sandwiched", "2", None, [0.3, 0.7], [0.6, 0.4]),
        ("sandwiched", "0.5", None, [1.0, 0.0], [0.0, 1.0]),
        ("alpha-z", "1.5", "0.8", [0.2, 0.8], [0.5, 0.5]),
        ("alpha-z", "2", "1.5", [0.5, 0.5], [1.0, 0.0]),
    ])
    def test_plain_output_matches_api(self, tmp_path, capsys, kind, alpha, z,
                                      psi_diag, phi_diag):
        psi = write_diag(tmp_path / "psi.json", psi_diag)
        phi = write_diag(tmp_path / "phi.json", phi_diag)
        argv = ["divergence", "--kind", kind, "--alpha", alpha,
                "--psi", str(psi), "--phi", str(phi)]
        if z is not None:
            argv += ["--z", z]
        assert main(argv) == 0
        f_psi = io.load_functional(psi)
        f_phi = io.load_functional(phi)
        params = DivergenceParams(float(alpha),
                                  z=None if z is None else float(z))
        q = (q_tilde_alpha(f_psi, f_phi, params.alpha) if z is None
             else q_tilde_alpha_z(f_psi, f_phi, params))
        d = d_tilde(f_psi, f_phi, params)
        assert capsys.readouterr().out == f"Q={q}\nD={d}\n"


class TestLoadFunctionals:
    """The divergence command loads its two files as one stack, with the
    errors of two load_functional calls in file order: a file's payload is
    validated before a later file's error is raised."""

    @pytest.mark.parametrize("psi,phi", [
        ("bad", "missing"), ("bad", "good"), ("good", "bad"),
        ("bad", "wide"), ("element", "bad"), ("good", "element"),
        ("bad", "element")])
    def test_first_error_in_file_order(self, tmp_path, psi, phi):
        files = {"good": write_diag(tmp_path / "good.json", [0.5, 0.5]),
                 "bad": write_diag(tmp_path / "bad.json", [1.0, -1.0]),
                 "wide": write_diag(tmp_path / "wide.json", [1.0, 1.0, 1.0]),
                 "element": write_diag(tmp_path / "element.json",
                                       [0.5, 0.5], "element"),
                 "missing": tmp_path / "missing.json"}
        paths = [files[psi], files[phi]]
        with pytest.raises(FileFormatError) as one:
            [io.load_functional(path) for path in paths]
        with pytest.raises(FileFormatError) as stacked:
            io.load_functionals(paths)
        assert str(stacked.value) == str(one.value)

    def test_one_stack_equals_two_loads(self, tmp_path):
        alg = BlockAlgebra((2, 3))
        rng = np.random.default_rng(5)
        paths = [tmp_path / "psi.json", tmp_path / "phi.json"]
        for path in paths:
            io.save_matrix_file(path, functional(rng, alg).density,
                                "functional")
        for psi, path in zip(io.load_functionals(paths), paths):
            one = io.load_functional(path)
            for a, b in zip((*psi.density.blocks, *psi._spectrum.eigenvalues,
                             *psi._spectrum.eigenvectors),
                            (*one.density.blocks, *one._spectrum.eigenvalues,
                             *one._spectrum.eigenvectors)):
                assert a.tobytes() == b.tobytes()


class TestCliSuiteSmallCarrier:
    @pytest.mark.parametrize("name", ["lemma1", "lemma8", "lemma9"])
    def test_dims_one_exit_one(self, capsys, name):
        assert main(["suite", "--name", name, "--trials", "2", "--seed", "0",
                     "--dims", "1"]) == 1
        assert "carrier dimension >= 2" in capsys.readouterr().err


class TestCliOutputErrors:
    """A file that cannot be written is a typed error (exit 1) naming its
    path, never a traceback."""

    def test_suite_out_in_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "r.json"
        assert main(["suite", "--name", "theorem6", "--trials", "1",
                     "--dims", "2x2", "--out", str(target)]) == 1
        assert f"cannot write {target}" in capsys.readouterr().err

    def test_tensor_out_in_missing_directory(self, tmp_path, capsys):
        a = write_diag(tmp_path / "a.json", [1.0, 2.0], kind="element")
        target = tmp_path / "missing" / "x.json"
        assert main(["tensor", "--left", str(a), "--right", str(a),
                     "-o", str(target)]) == 1
        assert f"cannot write {target}" in capsys.readouterr().err

    def test_tensor_product_beyond_float_range_exit_two(self, tmp_path,
                                                         capsys):
        a = write_diag(tmp_path / "a.json", [1e308, 1.0], kind="element")
        target = tmp_path / "x.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["tensor", "--left", str(a), "--right", str(a),
                         "-o", str(target)]) == 2
        assert "exceed the float range" in capsys.readouterr().err
        assert not target.exists()


class TestCliTolOverrideValidation:
    def test_unknown_key_exit_one_lists_valid_keys(self, capsys):
        assert main(["suite", "--name", "theorem6", "--trials", "1",
                     "--dims", "2x2", "--tol-override", "typo=1"]) == 1
        err = capsys.readouterr().err
        assert "'typo'" in err and "relative, spanning" in err

    def test_nan_value_rejected_like_negative(self, capsys):
        for value in ("nan", "-1"):
            assert main(["suite", "--name", "theorem6", "--trials", "1",
                         "--dims", "2x2", "--tol-override",
                         f"relative={value}"]) == 2
            assert "tolerances must be positive" in capsys.readouterr().err

    def test_appendixA_multiset_override_applied(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["suite", "--name", "appendixA", "--trials", "1",
                     "--dims", "2x2", "--tol-override",
                     "eigenvalue_multiset=1e-3", "--out", str(out)]) == 0
        trial = json.loads(out.read_text())["results"][0]
        assert trial["tolerances"]["eigenvalue_multiset"] > 1e-3
        capsys.readouterr()


class TestCliEpsRelReachesEveryCheck:
    """--eps-rel and NCLP_EPS_REL give the same report: every check of the
    suite runs at the resolved cutoff, not at the default."""

    @pytest.mark.parametrize("name", ["lemma5", "appendixA"])
    def test_flag_equals_env(self, tmp_path, capsys, monkeypatch, name):
        args = ["suite", "--name", name, "--trials", "2", "--seed", "3"]
        flag, env = tmp_path / "flag.json", tmp_path / "env.json"
        monkeypatch.delenv("NCLP_EPS_REL", raising=False)
        code = main(args + ["--eps-rel", "0.3", "--out", str(flag)])
        monkeypatch.setenv("NCLP_EPS_REL", "0.3")
        assert main(args + ["--out", str(env)]) == code
        assert flag.read_bytes() == env.read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("name", ["lemma5", "appendixA"])
    def test_default_cutoff_flag_changes_nothing(self, tmp_path, capsys,
                                                 monkeypatch, name):
        monkeypatch.delenv("NCLP_EPS_REL", raising=False)
        args = ["suite", "--name", name, "--trials", "2", "--seed", "3"]
        plain, flag = tmp_path / "plain.json", tmp_path / "flag.json"
        assert main(args + ["--out", str(plain)]) == 0
        assert main(args + ["--eps-rel", repr(default_eps_rel()),
                            "--out", str(flag)]) == 0
        assert plain.read_bytes() == flag.read_bytes()
        capsys.readouterr()


class TestInvalidEnvWithValidFlag:
    """A valid --eps-rel is the cutoff even when NCLP_EPS_REL is invalid:
    the command exits 0 with the same output as without the variable."""

    def _both(self, argv, capsys, monkeypatch):
        monkeypatch.delenv("NCLP_EPS_REL", raising=False)
        assert main(argv) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("NCLP_EPS_REL", "abc")
        assert main(argv) == 0
        assert capsys.readouterr().out == plain

    def test_divergence(self, tmp_path, capsys, monkeypatch):
        f = write_diag(tmp_path / "f.json", [0.3, 0.7])
        self._both(["divergence", "--kind", "sandwiched", "--alpha", "2",
                    "--psi", str(f), "--phi", str(f), "--eps-rel", "1e-12"],
                   capsys, monkeypatch)

    def test_kosaki_lp_norm(self, tmp_path, capsys, monkeypatch):
        f = write_diag(tmp_path / "f.json", [0.3, 0.7])
        x = write_diag(tmp_path / "x.json", [1.0, 2.0], kind="element")
        self._both(["lp-norm", "--p", "2", "--x", str(x), "--kosaki",
                    "--phi", str(f), "--eps-rel", "1e-12"],
                   capsys, monkeypatch)

    def test_lp_norm_of_functional_file(self, tmp_path, capsys, monkeypatch):
        f = write_diag(tmp_path / "f.json", [0.3, 0.7])
        self._both(["lp-norm", "--p", "2", "--x", str(f), "--eps-rel",
                    "1e-12"], capsys, monkeypatch)

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_suite(self, capsys, monkeypatch, name):
        self._both(["suite", "--name", name, "--trials", "2", "--eps-rel",
                    "1e-12"], capsys, monkeypatch)


class TestTensorReadsNoCutoff:
    def test_functional_files_ignore_invalid_env(self, tmp_path, monkeypatch):
        """``tensor`` takes no cutoff, so an invalid NCLP_EPS_REL changes
        nothing: two functional files join to the same bytes."""
        left = write_diag(tmp_path / "l.json", [0.3, 0.7])
        right = write_diag(tmp_path / "r.json", [0.2, 0.3, 0.5])
        outs = []
        for env in (None, "abc"):
            if env is None:
                monkeypatch.delenv("NCLP_EPS_REL", raising=False)
            else:
                monkeypatch.setenv("NCLP_EPS_REL", env)
            out = tmp_path / f"out-{env}.json"
            assert main(["tensor", "--left", str(left), "--right", str(right),
                         "-o", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestFileInputsWithoutTraceback:
    """Each input that used to end in a traceback is a FileFormatError."""

    def test_deep_nesting(self):
        with pytest.raises(FileFormatError, match="nested too deeply"):
            io.loads_matrix("[" * 100_000)

    def test_integer_beyond_float_range(self):
        text = ('{"algebra": {"blocks": [1]}, "matrix": {"blocks": '
                '[{"re": [[' + "1" + "0" * 400 + ']], "im": [[0]]}]}, '
                '"kind": "element"}')
        with pytest.raises(FileFormatError, match="finite reals"):
            io.loads_matrix(text)

    @pytest.mark.parametrize("kind", [["sandwiched"],
                                      ["alpha-z", "--z", "1.5"]])
    def test_functional_that_overflows_exit_one(self, tmp_path, capsys,
                                                kind):
        big = tmp_path / "big.json"
        io.save_matrix_file(big, BlockAlgebra((2,)).diagonal([1e308, 1e308]),
                            "functional")
        assert main(["divergence", "--kind", *kind, "--alpha", "2",
                     "--psi", str(big), "--phi", str(big)]) == 1
        assert "non-finite eigenvalue" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [["sandwiched"], ["alpha-z"]])
    def test_q_that_underflows_exit_two(self, tmp_path, capsys, kind):
        psi = write_diag(tmp_path / "psi.json", [1e-200, 1e-200])
        phi = write_diag(tmp_path / "phi.json", [0.5, 0.5])
        assert main(["divergence", "--kind", *kind, "--alpha", "2",
                     "--psi", str(psi), "--phi", str(phi)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "underflows" in err


def _bits(blocks):
    """The bit patterns of complex blocks (so -0.0 differs from 0.0)."""
    return [np.ascontiguousarray(b).view(np.uint64) for b in blocks]


def _same_bits(x, y):
    return all(np.array_equal(a, b)
               for a, b in zip(_bits(x.blocks), _bits(y.blocks)))


def _document(grid, n=1):
    """An element file of one n x n block whose re part is ``grid``."""
    return {"algebra": {"blocks": [n]}, "kind": "element",
            "matrix": {"blocks": [{"re": grid, "im": [[0] * n] * n}]}}


class TestMatrixFileReaderAndWriter:
    """The reader converts each grid in one pass and keeps every rejection;
    the writer is compact and every value round-trips bit-exact."""

    EXTREMES = [-0.0, 5e-324, 1e-320, 1.7976931348623157e308,
                -1.7976931348623157e308]

    @pytest.mark.parametrize("entry", [
        "1e999", "-1e999", "1" + "0" * 400, "-1" + "0" * 400,
        # an int beyond the float maximum that float() rounds down to it
        str(int(sys.float_info.max) + 2 ** 969),
        "true", "null", '"1"', "[1]", "{}"])
    def test_rejected_entries(self, entry):
        text = json.dumps(_document([["ENTRY", 0], [0, 1]], 2))
        with pytest.raises(FileFormatError, match="finite reals"):
            io.loads_matrix(text.replace('"ENTRY"', entry))

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf,
                                       int(sys.float_info.max) + 1, False])
    def test_rejected_document_entries(self, entry):
        with pytest.raises(FileFormatError, match="finite reals"):
            io.parse_matrix_document(_document([[1.0, entry], [0, 1]], 2))

    @pytest.mark.parametrize("grid, message", [
        ([[1.0, 0.0]], "list of 2 rows"), ([[1.0], [0.0, 1.0]], "length 2"),
        ([[1.0, 0.0], (0.0, 1.0)], "length 2"), ("ab", "list of 2 rows")])
    def test_rejected_structures(self, grid, message):
        with pytest.raises(FileFormatError, match=message):
            io.parse_matrix_document(_document(grid, 2))

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        with pytest.raises(FileFormatError, match="cannot read"):
            io.load_matrix_file(bad)
        assert main(["lp-norm", "--p", "2", "--x", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read")

    def test_float_maximum_and_ints_accepted(self):
        top = int(sys.float_info.max)
        got = io.parse_matrix_document(
            _document([[top, -top], [2 ** 70, 3]], 2)).element.blocks[0]
        want = [[sys.float_info.max, -sys.float_info.max], [2.0 ** 70, 3.0]]
        assert np.array_equal(got.real, want) and not got.imag.any()

    def _element(self, dims, kind):
        """Entries cycling through EXTREMES (re and im) for an element; a
        diagonal density of tiny and signed-zero entries for a
        functional."""
        if kind == "element":
            values = iter(self.EXTREMES * 100)
            return AlgebraElement(BlockAlgebra(dims), [
                np.array([[complex(next(values), next(values))
                           for _ in range(n)] for _ in range(n)])
                for n in dims])
        values = iter([5e-324, 1e-320, -0.0, 1.0] * 10)
        return AlgebraElement(BlockAlgebra(dims), [
            np.diag([next(values) for _ in range(n)]).astype(complex)
            for n in dims])

    @pytest.mark.parametrize("dims", [(1,), (2, 3), (1, 1, 2)])
    @pytest.mark.parametrize("kind", ["element", "functional"])
    def test_compact_round_trip_is_bit_exact(self, dims, kind):
        x = self._element(dims, kind)
        text = io.dumps_matrix(x, kind)
        assert text.endswith("}\n") and text.count("\n") == 1
        assert " " not in text
        back = io.loads_matrix(text)
        assert back.kind == kind and _same_bits(back.element, x)

    @pytest.mark.parametrize("dims", [(1,), (2, 3), (1, 1, 2)])
    @pytest.mark.parametrize("kind", ["element", "functional"])
    def test_indented_file_loads_to_the_same_bits(self, dims, kind):
        # The layout matrix files had before they were written compact.
        x = self._element(dims, kind)
        indented = json.dumps(io.matrix_document(x, kind), sort_keys=True,
                              allow_nan=False, indent=2) + "\n"
        assert _same_bits(io.loads_matrix(indented).element,
                          io.loads_matrix(io.dumps_matrix(x, kind)).element)

    @pytest.mark.parametrize("kinds", [("element", "element"),
                                       ("functional", "functional"),
                                       ("functional", "element")])
    def test_tensor_output_loads_to_kron_bits(self, tmp_path, capsys, kinds):
        rng = np.random.default_rng(73)
        files = []
        for dims, kind in zip(((2, 3), (1, 2)), kinds):
            g = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                 for n in dims]
            if kind == "functional":
                g = [a @ a.conj().T for a in g]
                g = [(a + a.conj().T) / 2 for a in g]
            files.append(tmp_path / f"{len(files)}.json")
            io.save_matrix_file(files[-1], AlgebraElement(BlockAlgebra(dims),
                                                          g), kind)
        left, right = (io.load_matrix_file(f) for f in files)
        out = tmp_path / "out.json"
        assert main(["tensor", "--left", str(files[0]), "--right",
                     str(files[1]), "-o", str(out)]) == 0
        capsys.readouterr()
        want = kron_element(TensorAlgebra(left.algebra, right.algebra),
                            left.element, right.element)
        got = io.load_matrix_file(out)
        assert got.kind == ("functional" if kinds == ("functional",) * 2
                            else "element")
        assert got.algebra == want.algebra and _same_bits(got.element, want)


def _full_parse(argv, capsys):
    """What the full parser's parse_args gives for argv: ("args", the
    namespace), ("usage", the UsageError message) or ("exit", the
    SystemExit code and what it printed)."""
    try:
        return "args", vars(cli._parser().parse_args(argv))
    except UsageError as exc:
        return "usage", str(exc)
    except SystemExit as exc:
        return "exit", (exc.code, capsys.readouterr())


class TestDispatchParity:
    """main dispatches an argv that names a command straight to the
    command's parser; every argv ends as the full parser's parse_args
    would end it."""

    ARGVS = [
        [], ["-h"], ["bogus"], ["divergence"], ["divergence", "-h"],
        ["div", "--kind", "sandwiched"],
        ["tensor", "--left", "a.json", "--right", "b.json", "-o", "c.json",
         "--bogus"],
        ["tensor", "--left", "a.json", "--right", "b.json", "-o", "c.json",
         "extra", "--", "-x"],
        ["tensor", "--left", "a.json", "--right", "b.json", "-o", "c.json"],
        ["lp-norm", "--p", "2", "--x", "x.json", "--eps", "1e-9"],
        ["lp-norm", "--p", "2", "--x", "x.json", "--e", "1e-9"],
        ["divergence", "--kind", "alpha-z", "--alpha", "0.7", "--z", "1.3",
         "--psi", "p.json", "--phi", "f.json", "--json", "--eps-rel=1e-9"],
        ["suite", "--name", "lemma3", "--tol-override", "a=1",
         "--tol-override", "b=2", "--dims", "2"],
        ["suite", "--name", "lemma3", "--trials", "x"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_same_outcome_as_full_parser(self, argv, capsys, monkeypatch):
        want, value = _full_parse(argv, capsys)
        seen = []
        for name in cli._COMMANDS:
            monkeypatch.setitem(cli._COMMANDS, name,
                                lambda args: seen.append(vars(args)) or 0)
        if want == "exit":
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert (exc.value.code, capsys.readouterr()) == value
            return
        code = main(argv)
        err = capsys.readouterr().err
        if want == "usage":
            assert (code, err, seen) == (1, f"error: {value}\n", [])
        else:
            assert (code, err) == (0, "")
            assert seen == [value]

    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["nclp", "bogus"])
        assert main() == 1
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


class TestParserReuse:
    """main builds its parser once per process, and no call's arguments
    reach the next call."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every _Parser constructed from a cleared parser cache on."""
        built = []
        init = cli._Parser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        cli._parser.cache_clear()
        yield built
        cli._parser.cache_clear()

    def test_one_parser_for_many_calls(self, tmp_path, capsys, built):
        x = write_diag(tmp_path / "x.json", [3.0, 4.0], kind="element")
        assert main(["lp-norm", "--p", "2", "--x", str(x)]) == 0
        per_build = len(built)  # the top-level parser and one per command
        assert main(["lp-norm", "--p", "abc", "--x", str(x)]) == 1
        assert main(["suite", "--name", "theorem6", "--trials", "1",
                     "--dims", "2x2"]) == 0
        assert main(["no-such-command"]) == 1
        capsys.readouterr()
        assert len(built) == per_build
        assert [p.prog for p in built].count("nclp") == 1

    def test_tol_override_does_not_reach_next_call(self, capsys):
        argv = ["suite", "--name", "theorem6", "--trials", "1", "--dims",
                "2x2"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--tol-override", "relative=1e-300"]) == 4
        assert '"relative": 1e-300' in capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == plain


class TestEntryPoint:
    """``python -m nclp.cli`` in a fresh interpreter, as users run it."""

    SRC = Path(__file__).resolve().parents[1] / "src"

    def _run(self, *argv):
        env = {k: v for k, v in os.environ.items() if k != "NCLP_EPS_REL"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        return subprocess.run([sys.executable, "-m", "nclp.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    def test_help_exits_zero(self):
        proc = self._run("--help")
        assert proc.returncode == 0
        assert "usage: nclp" in proc.stdout

    def test_usage_error_exits_one_without_traceback(self):
        proc = self._run("suite", "--trials", "abc")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_suite_exits_zero(self):
        proc = self._run("suite", "--name", "lemma3", "--trials", "1",
                         "--dims", "2")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["status"] == "ok" and len(doc["results"]) == 1
