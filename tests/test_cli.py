"""Command-line interface: artifacts, exit codes, determinism, report consistency."""

import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xymeas import cli, fileio
from xymeas.fileio import (
    fmt_float,
    read_counts_file,
    read_document,
    read_povm_file,
    read_probs_file,
    write_probs_file,
)
from xymeas.analysis import (
    classicality_statistic,
    collapse_pair_counts,
    csquared_from_patterns,
    estimate_vx,
    estimate_vy,
    vsquared_from_patterns,
)
from xymeas.checks import CheckResult
from xymeas.povm import OUTCOMES4, VisibilityTriple, build_povm, outcome_probs
from xymeas.qubit import density, eigenstate
from xymeas.simulate import (
    BLOCK_SHOTS,
    RNG_ID,
    ExperimentConfig,
    run_eigenstate_experiment,
    run_pair_experiment,
)

SQ3 = 1.0 / np.sqrt(3.0)
SQ3_STR = fmt_float(SQ3)


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def simulate_all(tmp_path, v_str, shots, base_seed=100):
    paths = {}
    for role, extra, seed in (
        ("ex", ["--mode", "eigenstate", "--axis", "X", "--value", "+1"], base_seed),
        ("ey", ["--mode", "eigenstate", "--axis", "Y", "--value", "+1"], base_seed + 1),
        ("pair", ["--mode", "pair"], base_seed + 2),
    ):
        out = tmp_path / f"{role}.txt"
        code = run_cli(
            "simulate", *extra,
            "--vx", v_str[0], "--vy", v_str[1], "--vz", v_str[2],
            "--shots", shots, "--seed", seed, "--out", out,
        )
        assert code == 0
        paths[role] = out
    return paths


class TestBuildPovm:
    def test_writes_round_trippable_elements(self, tmp_path):
        out = tmp_path / "povm.txt"
        assert run_cli("build-povm", "--vx", SQ3_STR, "--vy", SQ3_STR, "--vz", SQ3_STR, "--out", out) == 0
        povm = read_povm_file(out)
        expected = build_povm(VisibilityTriple(SQ3, SQ3, SQ3))
        assert povm.visibilities == expected.visibilities
        assert np.array_equal(povm.elements, expected.elements)
        manifest = read_document(tmp_path / "povm.txt.manifest")
        assert manifest.header["command"] == "build-povm"
        assert ("povm.txt",) in manifest.section("artifacts")

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda lines, k: lines[:k] + lines[k + 1:], "no [elements] row for +1 +1 0 0"),
            (lambda lines, k: lines + [lines[k]], "duplicate [elements] row +1 +1 0 0"),
        ],
        ids=["missing", "duplicated"],
    )
    def test_element_row_cover_checked(self, tmp_path, mutate, message):
        out = tmp_path / "povm.txt"
        assert run_cli("build-povm", "--vx", 0.5, "--vy", 0.6, "--vz", 0.4, "--out", out) == 0
        lines = out.read_text().splitlines()
        first = lines.index("[elements]") + 1
        mutated = mutate(lines, first)
        out.write_text("\n".join(mutated) + "\n")
        # a missing row is reported at [elements], a duplicate at its own line
        lineno = first if message.startswith("no ") else len(mutated)
        with pytest.raises(ValueError, match=re.escape(f"{out}:{lineno}: {message}")):
            read_povm_file(out)

    @pytest.mark.parametrize(
        "column, token, message",
        [(0, "+2", "unknown key +2 +1 0 0"), (5, "i", "could not convert")],
        ids=["sign", "entry"],
    )
    def test_bad_element_token_located(self, tmp_path, column, token, message):
        out = tmp_path / "povm.txt"
        assert run_cli("build-povm", "--vx", 0.5, "--vy", 0.6, "--vz", 0.4, "--out", out) == 0
        lines = out.read_text().splitlines()
        k = lines.index("[elements]") + 1
        row = lines[k].split()
        row[column] = token
        lines[k] = " ".join(row)
        out.write_text("\n".join(lines) + "\n")
        # no command reads povm files; the CLI maps this ValueError to exit 1
        with pytest.raises(ValueError, match=re.escape(f"{out}:{k + 1}: [elements] row: {message}")):
            read_povm_file(out)

    def test_projective_x(self, tmp_path):
        out = tmp_path / "povm.txt"
        assert run_cli("build-povm", "--vx", 1, "--vy", 0, "--vz", 0, "--out", out) == 0
        povm = read_povm_file(out)
        assert np.allclose(povm.element(+1, +1), [[0.25, 0.25], [0.25, 0.25]], atol=1e-15)

    def test_positivity_violation_exits_2(self, tmp_path, capsys):
        out = tmp_path / "povm.txt"
        assert run_cli("build-povm", "--vx", 0.8, "--vy", 0.8, "--vz", 0, "--out", out) == 2
        assert "1.28" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_flags_exit_1(self):
        assert run_cli("build-povm", "--vx", "abc", "--vy", 0, "--vz", 0, "--out", "x") == 1


class TestSimulate:
    def test_eigenstate_counts_file(self, tmp_path):
        out = tmp_path / "counts.txt"
        code = run_cli(
            "simulate", "--mode", "eigenstate", "--axis", "X", "--value", "+1",
            "--vx", 1, "--vy", 0, "--vz", 0,
            "--shots", 10_000, "--seed", 7, "--out", out,
        )
        assert code == 0
        artifact = read_counts_file(out)
        counts = artifact.counts
        assert counts.total == 10_000
        assert counts.counts[(-1, +1)] == 0 and counts.counts[(-1, -1)] == 0
        assert artifact.visibilities == VisibilityTriple(1.0, 0.0, 0.0)

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate", "--mode", "pair",
            "--vx", SQ3_STR, "--vy", SQ3_STR, "--vz", SQ3_STR,
            "--shots", 300_000, "--seed", 11,
        ]
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run_cli(*args, "--out", out1) == 0
        assert run_cli(*args, "--out", out2) == 0
        body1 = out1.read_bytes().replace(b"a.txt", b"")
        body2 = out2.read_bytes().replace(b"b.txt", b"")
        assert body1 == body2

    def test_byte_identical_across_worker_counts(self, tmp_path):
        args = [
            "simulate", "--mode", "pair",
            "--vx", 0.5, "--vy", 0.5, "--vz", 0.5,
            "--shots", 200_000, "--seed", 12, "--out",
        ]
        out1, out2 = tmp_path / "w1.txt", tmp_path / "w4.txt"
        assert run_cli(*args, out1, "--workers", 1) == 0
        assert run_cli(*args, out2, "--workers", 4) == 0
        assert out1.read_bytes().replace(b"w1.txt", b"") == out2.read_bytes().replace(b"w4.txt", b"")

    def test_manifest_records_sampler_and_versions(self, tmp_path):
        out = tmp_path / "c.txt"
        assert run_cli(
            "simulate", "--mode", "pair", "--vx", 0.5, "--vy", 0.5, "--vz", 0.5,
            "--shots", 1000, "--seed", 3, "--workers", 2, "--out", out,
        ) == 0
        header = read_document(tmp_path / "c.txt.manifest").header
        assert header["rng"] == RNG_ID
        assert header["block_shots"] == str(BLOCK_SHOTS) == "65536"
        assert header["workers"] == "2"
        assert header["numpy_version"] == np.__version__
        assert header["python_version"] == platform.python_version()
        assert run_cli("estimate", out, "--allow-partial", "--out", tmp_path / "r.txt") == 0
        header = read_document(tmp_path / "r.txt.manifest").header
        assert header["numpy_version"] == np.__version__
        assert header["python_version"] == platform.python_version()
        assert "rng" not in header

    def test_invalid_mode_combinations_exit_1(self, tmp_path):
        out = tmp_path / "c.txt"
        base = ["--vx", 0.5, "--vy", 0.5, "--vz", 0, "--shots", 10, "--seed", 1, "--out", out]
        assert run_cli("simulate", "--mode", "eigenstate", *base) == 1
        assert run_cli("simulate", "--mode", "pair", "--axis", "X", "--value", "+1", *base) == 1
        assert run_cli("simulate", "--mode", "eigenstate", "--axis", "Z", "--value", "+1", *base) == 1
        assert run_cli("simulate", "--mode", "eigenstate", "--axis", "X", "--value", "+1",
                       "--werner-p", 0.5, *base) == 1
        assert run_cli("simulate", "--mode", "pair", "--randomize-flips", *base) == 1

    def test_value_must_be_a_written_sign(self, tmp_path):
        # "1" is not coerced to +1
        out = tmp_path / "c.txt"
        argv = ["--vx", 0.5, "--vy", 0.5, "--vz", 0, "--shots", 10, "--seed", 1, "--out", out]
        assert run_cli("simulate", "--mode", "eigenstate", "--axis", "X", "--value", "1", *argv) == 1
        assert not out.exists()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_exit_1(self, tmp_path, capsys, workers):
        out = tmp_path / "c.txt"
        code = run_cli(
            "simulate", "--mode", "pair", "--vx", 0.5, "--vy", 0.5, "--vz", 0,
            "--shots", 10, "--seed", 1, "--workers", workers, "--out", out,
        )
        assert code == 1
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_flips_flag_recorded(self, tmp_path):
        out = tmp_path / "c.txt"
        code = run_cli(
            "simulate", "--mode", "eigenstate", "--axis", "Y", "--value", "-1",
            "--vx", 0.4, "--vy", 0.7, "--vz", 0.2,
            "--shots", 5000, "--seed", 3, "--randomize-flips", "--out", out,
        )
        assert code == 0
        doc = read_document(out)
        assert doc.header["randomize_flips"] == "true"
        assert doc.header["value"] == "-1"


class TestEstimate:
    def test_symmetric_point_end_to_end(self, tmp_path, capsys):
        paths = simulate_all(tmp_path, (SQ3_STR, SQ3_STR, SQ3_STR), 1_000_000)
        report_path = tmp_path / "report.txt"
        assert run_cli("estimate", paths["ex"], paths["ey"], paths["pair"], "--out", report_path) == 0
        out = capsys.readouterr().out
        assert "non-classical" in out
        report = read_document(report_path)
        c2 = float(report.section_value("csquared", "value"))
        stderr = float(report.section_value("csquared", "stderr"))
        assert c2 == pytest.approx(-1 / 3, abs=0.01)
        assert c2 < -3 * stderr
        assert report.section_value("csquared", "classical") == "false"
        assert float(report.section_value("exact_reference", "csquared")) == pytest.approx(-1 / 3)

    def test_classical_device_verdict(self, tmp_path):
        paths = simulate_all(tmp_path, ("0.6", "0.8", "0"), 200_000, base_seed=200)
        report_path = tmp_path / "report.txt"
        assert run_cli("estimate", *paths.values(), "--out", report_path) == 0
        report = read_document(report_path)
        assert report.section_value("csquared", "classical") == "true"
        assert float(report.section_value("csquared", "value")) == pytest.approx(0.0, abs=0.01)

    def test_missing_pair_file_listed(self, tmp_path, capsys):
        paths = simulate_all(tmp_path, ("0.6", "0.8", "0"), 1000, base_seed=300)
        assert run_cli("estimate", paths["ex"], paths["ey"], "--out", tmp_path / "r.txt") == 1
        assert "pair" in capsys.readouterr().err

    def test_allow_partial(self, tmp_path):
        paths = simulate_all(tmp_path, ("0.6", "0.8", "0"), 1000, base_seed=400)
        report_path = tmp_path / "r.txt"
        assert run_cli(
            "estimate", paths["ex"], "--out", report_path, "--allow-partial"
        ) == 0
        report = read_document(report_path)
        assert "visibility_x" in report.sections
        assert "csquared" not in report.sections

    def test_duplicate_role_rejected(self, tmp_path):
        paths = simulate_all(tmp_path, ("0.6", "0.8", "0"), 1000, base_seed=500)
        assert run_cli(
            "estimate", paths["ex"], paths["ex"], "--out", tmp_path / "r.txt"
        ) == 1

    def test_report_recomputable_from_counts(self, tmp_path):
        paths = simulate_all(tmp_path, ("0.5", "0.5", "0.5"), 100_000, base_seed=600)
        report_path = tmp_path / "report.txt"
        assert run_cli("estimate", *paths.values(), "--out", report_path) == 0
        report = read_document(report_path)

        vx = estimate_vx(read_counts_file(paths["ex"]).counts)
        vy = estimate_vy(read_counts_file(paths["ey"]).counts)
        stats = collapse_pair_counts(read_counts_file(paths["pair"]).counts)
        vx2, vy2 = vsquared_from_patterns(stats)
        corr = csquared_from_patterns(stats)
        assert float(report.section_value("visibility_x", "value")) == pytest.approx(vx.value, abs=1e-12)
        assert float(report.section_value("visibility_x", "stderr")) == pytest.approx(vx.stderr, abs=1e-12)
        assert float(report.section_value("visibility_y", "value")) == pytest.approx(vy.value, abs=1e-12)
        assert float(report.section_value("vx_squared_pair", "value")) == pytest.approx(vx2.value, abs=1e-12)
        assert float(report.section_value("vy_squared_pair", "value")) == pytest.approx(vy2.value, abs=1e-12)
        assert float(report.section_value("csquared", "value")) == pytest.approx(corr.value, abs=1e-12)
        assert float(report.section_value("classicality", "statistic")) == pytest.approx(
            classicality_statistic(stats), abs=1e-12
        )

    def test_source_noise_correction(self, tmp_path):
        v = VisibilityTriple(0.5, 0.5, 0.5)
        out = tmp_path / "pair.txt"
        code = run_cli(
            "simulate", "--mode", "pair",
            "--vx", 0.5, "--vy", 0.5, "--vz", 0.5,
            "--shots", 1_000_000, "--seed", 19, "--werner-p", 0.8, "--out", out,
        )
        assert code == 0
        plain, corrected = tmp_path / "plain.txt", tmp_path / "corr.txt"
        assert run_cli("estimate", out, "--out", plain, "--allow-partial") == 0
        assert run_cli(
            "estimate", out, "--out", corrected, "--allow-partial", "--correct-source-noise"
        ) == 0
        c2_plain = float(read_document(plain).section_value("csquared", "value"))
        c2_corr = float(read_document(corrected).section_value("csquared", "value"))
        assert c2_plain == pytest.approx(-0.8 * v.vz ** 2, abs=0.01)
        assert c2_corr == pytest.approx(-v.vz ** 2, abs=0.01)

    def test_nonexistent_file_exit_1(self, tmp_path):
        assert run_cli("estimate", tmp_path / "nope.txt", "--out", tmp_path / "r.txt") == 1


class TestReconstruct:
    def test_exact_z_plus_table(self, tmp_path):
        v = VisibilityTriple(SQ3, SQ3, SQ3)
        probs = outcome_probs(build_povm(v), density(eigenstate("Z", +1)))
        probs_path = tmp_path / "zplus.txt"
        write_probs_file(probs_path, probs, state="Z+")
        out = tmp_path / "kd.txt"
        code = run_cli(
            "reconstruct", "--input", probs_path,
            "--vx", SQ3_STR, "--vy", SQ3_STR, "--vz", SQ3_STR, "--out", out,
        )
        assert code == 0
        report = read_document(out)
        rows = {(r[0], r[1]): (float(r[2]), float(r[3])) for r in report.section("kd")}
        assert rows[("+1", "+1")] == (pytest.approx(0.25, abs=1e-10), pytest.approx(0.25, abs=1e-10))
        assert rows[("+1", "-1")] == (pytest.approx(0.25, abs=1e-10), pytest.approx(-0.25, abs=1e-10))
        assert rows[("-1", "+1")] == (pytest.approx(0.25, abs=1e-10), pytest.approx(-0.25, abs=1e-10))
        assert rows[("-1", "-1")] == (pytest.approx(0.25, abs=1e-10), pytest.approx(0.25, abs=1e-10))
        assert float(report.section_value("kd_reference_deviation", "max_abs")) < 1e-10

    def test_uniform_input(self, tmp_path):
        probs_path = tmp_path / "mixed.txt"
        write_probs_file(probs_path, {o: 0.25 for o in OUTCOMES4}, state="mixed")
        out = tmp_path / "kd.txt"
        assert run_cli(
            "reconstruct", "--input", probs_path, "--vx", 0.7, "--vy", 0.5, "--vz", 0.3, "--out", out
        ) == 0
        report = read_document(out)
        for row in report.section("kd"):
            assert float(row[2]) == pytest.approx(0.25, abs=1e-12)
            assert float(row[3]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_vz_exits_2(self, tmp_path, capsys):
        probs_path = tmp_path / "p.txt"
        write_probs_file(probs_path, {o: 0.25 for o in OUTCOMES4})
        assert run_cli(
            "reconstruct", "--input", probs_path, "--vx", 0.6, "--vy", 0.8, "--vz", 0,
            "--out", tmp_path / "kd.txt",
        ) == 2
        assert "c" in capsys.readouterr().err

    def test_counts_input_with_reference(self, tmp_path):
        code = run_cli(
            "simulate", "--mode", "eigenstate", "--axis", "X", "--value", "+1",
            "--vx", 0.6, "--vy", 0.7, "--vz", 0.3,
            "--shots", 1_000_000, "--seed", 29, "--out", tmp_path / "c.txt",
        )
        assert code == 0
        out = tmp_path / "kd.txt"
        assert run_cli(
            "reconstruct", "--input", tmp_path / "c.txt",
            "--vx", 0.6, "--vy", 0.7, "--vz", 0.3, "--out", out,
        ) == 0
        report = read_document(out)
        assert report.section_value("kd_reference_deviation", "state") == "X+"
        assert float(report.section_value("kd_reference_deviation", "max_abs")) < 0.01

    @pytest.mark.parametrize("kind", ["counts", "probs"])
    def test_input_read_once(self, tmp_path, monkeypatch, kind):
        path = tmp_path / "in.txt"
        if kind == "counts":
            assert run_cli(
                "simulate", "--mode", "eigenstate", "--axis", "Y", "--value", "-1",
                "--vx", 0.6, "--vy", 0.7, "--vz", 0.3, "--shots", 1000, "--seed", 30, "--out", path,
            ) == 0
        else:
            write_probs_file(path, {o: 0.25 for o in OUTCOMES4}, state="mixed")
        reads = []

        def counting(p):
            reads.append(Path(p))
            return read_document(p)

        monkeypatch.setattr(cli, "read_document", counting)
        monkeypatch.setattr(fileio, "read_document", counting)
        assert run_cli(
            "reconstruct", "--input", path, "--vx", 0.6, "--vy", 0.7, "--vz", 0.3,
            "--out", tmp_path / "kd.txt",
        ) == 0
        assert reads == [path]

    def test_from_report_uses_estimated_visibilities(self, tmp_path):
        paths = simulate_all(tmp_path, (SQ3_STR, SQ3_STR, SQ3_STR), 400_000, base_seed=700)
        report_path = tmp_path / "report.txt"
        assert run_cli("estimate", *paths.values(), "--out", report_path) == 0
        probs = outcome_probs(
            build_povm(VisibilityTriple(SQ3, SQ3, SQ3)), density(eigenstate("Z", +1))
        )
        probs_path = tmp_path / "zplus.txt"
        write_probs_file(probs_path, probs, state="Z+")
        out = tmp_path / "kd.txt"
        assert run_cli(
            "reconstruct", "--input", probs_path, "--from-report", report_path, "--out", out
        ) == 0
        deviation = float(read_document(out).section_value("kd_reference_deviation", "max_abs"))
        assert deviation < 0.02

    def test_pair_counts_rejected(self, tmp_path, capsys):
        out = tmp_path / "pair.txt"
        run_cli(
            "simulate", "--mode", "pair", "--vx", 0.5, "--vy", 0.5, "--vz", 0,
            "--shots", 100, "--seed", 1, "--out", out,
        )
        capsys.readouterr()
        assert run_cli(
            "reconstruct", "--input", out, "--vx", 0.5, "--vy", 0.5, "--vz", 0.1,
            "--out", tmp_path / "kd.txt",
        ) == 1
        # located at the mode header
        lineno = out.read_text().splitlines().index("mode: pair") + 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {out}:{lineno}: reconstruct needs a single-qubit table")

    def test_conflicting_visibility_sources_rejected(self, tmp_path):
        probs_path = tmp_path / "p.txt"
        write_probs_file(probs_path, {o: 0.25 for o in OUTCOMES4})
        assert run_cli(
            "reconstruct", "--input", probs_path, "--vx", 0.5, "--vy", 0.5, "--vz", 0.5,
            "--from-report", tmp_path / "r.txt", "--out", tmp_path / "kd.txt",
        ) == 1


class TestVerify:
    def test_default_grid_passes(self, capsys):
        assert run_cli("verify", "--grid", 5, "--samples", 500) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_injected_failure_detected(self, monkeypatch, capsys):
        def sabotaged(grid, samples, seed):
            return [CheckResult("povm_family", False, "injected sign error")]

        monkeypatch.setattr(cli, "run_all_checks", sabotaged)
        assert run_cli("verify") == 3
        assert "FAIL" in capsys.readouterr().out

    def test_bad_flags(self):
        assert run_cli("verify", "--grid", 1) == 1
        assert run_cli("verify", "--samples", 0) == 1


class TestFileFormat:
    def test_float_round_trip_is_lossless(self, tmp_path):
        values = [1 / 3, np.pi / 7, 0.1, 1e-17, 123456.789012345678]
        for x in values:
            assert float(fmt_float(x)) == x

    def test_probs_round_trip(self, tmp_path):
        probs = {(1, 1): 0.1, (1, -1): 0.2, (-1, 1): 0.3, (-1, -1): 0.4}
        path = tmp_path / "p.txt"
        write_probs_file(path, probs, state="Y-")
        loaded, state = read_probs_file(path)
        assert loaded == probs
        assert state == "Y-"

    def test_counts_round_trip(self, tmp_path):
        config = ExperimentConfig(visibilities=VisibilityTriple(0.3, 0.4, 0.5), shots=5000, seed=77)
        path = tmp_path / "c.txt"
        assert run_cli(
            "simulate", "--mode", "pair", "--vx", 0.3, "--vy", 0.4, "--vz", 0.5,
            "--shots", 5000, "--seed", 77, "--werner-p", 0.9, "--out", path,
        ) == 0
        artifact = read_counts_file(path)
        assert artifact.counts == run_pair_experiment(config, werner_p=0.9)
        assert artifact.werner_p == 0.9
        assert artifact.visibilities == config.visibilities

    def test_eigenstate_counts_round_trip(self, tmp_path):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.3, 0.4, 0.5), shots=5000, seed=78
        )
        path = tmp_path / "c.txt"
        assert run_cli(
            "simulate", "--mode", "eigenstate", "--axis", "Y", "--value", "-1",
            "--vx", 0.3, "--vy", 0.4, "--vz", 0.5, "--shots", 5000, "--seed", 78, "--out", path,
        ) == 0
        artifact = read_counts_file(path)
        assert artifact.counts == run_eigenstate_experiment(config, "Y", -1)

    @pytest.mark.parametrize(
        "argv",
        [
            ["build-povm", "--vx", 0.5, "--vy", 0.6, "--vz", 0.4],
            ["simulate", "--mode", "eigenstate", "--axis", "Y", "--value", "-1", "--vx", 0.5,
             "--vy", 0.6, "--vz", 0.4, "--shots", 1000, "--seed", 4, "--randomize-flips"],
            ["simulate", "--mode", "pair", "--vx", 0.5, "--vy", 0.6, "--vz", 0.4,
             "--shots", 1000, "--seed", 5, "--werner-p", 0.9],
        ],
        ids=["build-povm", "eigenstate", "pair"],
    )
    def test_manifest_parameters_echo_result_header(self, tmp_path, argv):
        out = tmp_path / "a.txt"
        assert run_cli(*argv, "--out", out) == 0
        header = list(read_document(out).header.items())
        assert [key for key, _ in header[:3]] == ["schema", "command", "manifest"]
        assert header[1:3] == [("command", argv[0]), ("manifest", "a.txt.manifest")]
        parameters = read_document(tmp_path / "a.txt.manifest").section("parameters")
        assert parameters == header[3:]

    def test_duplicate_counts_row_rejected(self, tmp_path, capsys):
        paths = simulate_all(tmp_path, ("0.6", "0.8", "0"), 1000, base_seed=800)
        lines = paths["ex"].read_text().splitlines()
        paths["ex"].write_text("\n".join(lines + ["+1 +1 999999"]) + "\n")
        where = f"{paths['ex']}:{len(lines) + 1}:"
        with pytest.raises(ValueError, match="duplicate"):
            read_counts_file(paths["ex"])
        assert run_cli("estimate", *paths.values(), "--out", tmp_path / "r.txt") == 1
        assert where in capsys.readouterr().err

    def test_shots_header_disagreeing_with_counts_rejected(self, tmp_path, capsys):
        paths = simulate_all(tmp_path, ("0.6", "0.8", "0"), 1000, base_seed=900)
        lines = paths["pair"].read_text().splitlines()
        lineno = lines.index("shots: 1000") + 1
        lines[lineno - 1] = "shots: 5"
        paths["pair"].write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="shots"):
            read_counts_file(paths["pair"])
        assert run_cli("estimate", *paths.values(), "--out", tmp_path / "r.txt") == 1
        assert f"{paths['pair']}:{lineno}:" in capsys.readouterr().err

    def test_duplicate_header_key_rejected(self, tmp_path, capsys):
        paths = simulate_all(tmp_path, ("0.6", "0.8", "0"), 1000, base_seed=950)
        lines = paths["ex"].read_text().splitlines()
        lineno = lines.index("axis: X") + 2
        lines.insert(lineno - 1, "axis: Y")
        paths["ex"].write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"{paths['ex']}:{lineno}: duplicate header key 'axis'"):
            read_counts_file(paths["ex"])
        assert run_cli("estimate", *paths.values(), "--out", tmp_path / "r.txt") == 1
        assert f"{paths['ex']}:{lineno}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "prefix, replacement, message",
        [
            ("-1 -1 ", "-1 +2 250", "[counts] row: unknown key -1 +2"),
            ("+1 -1 ", "+1 -1 12.5", "[counts] row: invalid literal for int()"),
            ("+1 +1 ", "+1 +1 -368", "[counts] row: negative count -368"),
            ("+1 +1 ", "+1 +1 3_68", "[counts] row: count '3_68' is not written as 368"),
            ("+1 -1 ", None, "no [counts] row for +1 -1"),
            ("vx: ", "vx: 0.6x", "header vx: could not convert string to float: '0.6x'"),
            ("shots: ", "shots: 1e3", "header shots: invalid literal for int()"),
        ],
        ids=["sign", "count", "negative-count", "spelled-count", "missing-row", "header-float", "header-shots"],
    )
    def test_bad_token_located(self, tmp_path, capsys, prefix, replacement, message):
        paths = simulate_all(tmp_path, ("0.6", "0.8", "0"), 1000, base_seed=970)
        lines = paths["ex"].read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        if replacement is None:
            # a missing row is reported at its section's line, before any shots check
            del lines[k]
            k = lines.index("[counts]")
        else:
            lines[k] = replacement
        paths["ex"].write_text("\n".join(lines) + "\n")
        assert run_cli("estimate", *paths.values(), "--out", tmp_path / "r.txt") == 1
        assert f"error: {paths['ex']}:{k + 1}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["Q", "x", "Z"])
    def test_bad_axis_header_located(self, tmp_path, capsys, axis):
        # only X and Y eigenstate runs are written, and "x" is not the X run
        paths = simulate_all(tmp_path, ("0.6", "0.8", "0"), 1000, base_seed=975)
        lines = paths["ex"].read_text().splitlines()
        lineno = lines.index("axis: X") + 1
        lines[lineno - 1] = f"axis: {axis}"
        paths["ex"].write_text("\n".join(lines) + "\n")
        where = f"{paths['ex']}:{lineno}: header axis: expected one of X, Y, got {axis!r}"
        with pytest.raises(ValueError, match=re.escape(where)):
            read_counts_file(paths["ex"])
        assert run_cli("estimate", *paths.values(), "--out", tmp_path / "r.txt") == 1
        assert f"error: {where}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1", "+1.0", "-"])
    def test_bad_value_header_located(self, tmp_path, capsys, value):
        # a sign is read exactly as it is written, +1 or -1
        paths = simulate_all(tmp_path, ("0.6", "0.8", "0"), 1000, base_seed=975)
        lines = paths["ex"].read_text().splitlines()
        lineno = lines.index("value: +1") + 1
        lines[lineno - 1] = f"value: {value}"
        paths["ex"].write_text("\n".join(lines) + "\n")
        where = f"{paths['ex']}:{lineno}: header value: expected one of +1, -1, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(where)):
            read_counts_file(paths["ex"])
        assert run_cli("estimate", *paths.values(), "--out", tmp_path / "r.txt") == 1
        assert f"error: {where}" in capsys.readouterr().err

    def test_bad_state_header_located(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        write_probs_file(path, {o: 0.25 for o in OUTCOMES4}, state="mixed")
        text = path.read_text()
        lineno = text.splitlines().index("state: mixed") + 1
        path.write_text(text.replace("state: mixed", "state: Q+"))
        code = run_cli(
            "reconstruct", "--input", path, "--vx", 0.5, "--vy", 0.5, "--vz", 0.5,
            "--out", tmp_path / "kd.txt",
        )
        assert code == 1
        assert f"error: {path}:{lineno}: header state: expected one of Z+, " in capsys.readouterr().err

    def test_non_ascii_byte_located(self, tmp_path, capsys):
        paths = simulate_all(tmp_path, ("0.6", "0.8", "0"), 1000, base_seed=985)
        data = paths["ex"].read_bytes()
        # "\u00e9" is 0xc3 0xa9 in UTF-8
        paths["ex"].write_bytes(data.replace(b"randomize_flips", "randomiz\u00e9_flips".encode()))
        lineno = data[: data.index(b"randomize_flips")].count(b"\n") + 1
        assert run_cli("estimate", *paths.values(), "--out", tmp_path / "r.txt") == 1
        assert f"error: {paths['ex']}:{lineno}: non-ASCII byte 0xc3" in capsys.readouterr().err

    def test_missing_probs_row_located(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        write_probs_file(path, {o: 0.25 for o in OUTCOMES4}, state="mixed")
        lines = path.read_text().splitlines()
        section = lines.index("[probs]") + 1
        del lines[section]
        path.write_text("\n".join(lines) + "\n")
        code = run_cli(
            "reconstruct", "--input", path, "--vx", 0.5, "--vy", 0.5, "--vz", 0.5,
            "--out", tmp_path / "kd.txt",
        )
        assert code == 1
        assert f"error: {path}:{section}: no [probs] row for +1 +1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("+1 -1 ", "+1 -1 nan", "[probs] row: 'nan' is not finite"),
            ("-1 +1 ", "-1 +1 -inf", "[probs] row: '-inf' is not finite"),
            ("+1 +1 ", "+1 +1 0.5", "[probs] entries sum to 1.25, expected 1"),
            ("-1 -1 ", "-1 -1 0.2499", "[probs] entries sum to 0.9999, expected 1"),
        ],
        ids=["nan", "inf", "sum-high", "sum-low"],
    )
    def test_bad_probs_table_located(self, tmp_path, capsys, old, new, message):
        path = tmp_path / "p.txt"
        write_probs_file(path, {o: 0.25 for o in OUTCOMES4}, state="mixed")
        lines = path.read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith(old))
        lines[k] = new
        path.write_text("\n".join(lines) + "\n")
        # an entry is located at its row, a bad sum at the [probs] line
        lineno = lines.index("[probs]") + 1 if "sum" in message else k + 1
        with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: {message}")):
            read_probs_file(path)
        code = run_cli(
            "reconstruct", "--input", path, "--vx", 0.5, "--vy", 0.5, "--vz", 0.5,
            "--out", tmp_path / "kd.txt",
        )
        assert code == 1
        assert f"error: {path}:{lineno}: {message}" in capsys.readouterr().err

    def test_probs_sum_within_tolerance_accepted(self, tmp_path):
        path = tmp_path / "p.txt"
        write_probs_file(path, {(1, 1): 0.25 + 5e-10, (1, -1): 0.25, (-1, 1): 0.25, (-1, -1): 0.25})
        assert read_probs_file(path)[0][(1, 1)] == 0.25 + 5e-10

    def werner_counts(self, tmp_path, value):
        """A pair counts file written with ``--werner-p 0.9``, then its header set to ``value``."""
        paths = simulate_all(tmp_path, ("0.5", "0.6", "0.4"), 1000, base_seed=1020)
        assert run_cli(
            "simulate", "--mode", "pair", "--vx", 0.5, "--vy", 0.6, "--vz", 0.4,
            "--shots", 1000, "--seed", 1023, "--werner-p", 0.9, "--out", paths["pair"],
        ) == 0
        lines = paths["pair"].read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("werner_p: "))
        lines[lineno - 1] = f"werner_p: {value}"
        paths["pair"].write_text("\n".join(lines) + "\n")
        return paths, lineno

    @pytest.mark.parametrize("value", ["1.5", "-0.1", "nan", "inf"])
    def test_bad_werner_p_header_located(self, tmp_path, capsys, value):
        paths, lineno = self.werner_counts(tmp_path, value)
        where = f"{paths['pair']}:{lineno}: header werner_p: "
        with pytest.raises(ValueError, match=re.escape(where)):
            read_counts_file(paths["pair"])
        argv = ("estimate", paths["pair"], "--allow-partial", "--out", tmp_path / "r.txt")
        assert run_cli(*argv) == 1
        assert f"error: {where}" in capsys.readouterr().err

    def test_zero_werner_p_read_but_not_corrected(self, tmp_path, capsys):
        # werner_state accepts p = 0, so the reader does; dividing by it is refused
        paths, lineno = self.werner_counts(tmp_path, "0")
        assert read_counts_file(paths["pair"]).werner_p == 0.0
        report = tmp_path / "r.txt"
        assert run_cli("estimate", *paths.values(), "--out", report) == 0
        assert "werner_p 0" in report.read_text()
        code = run_cli("estimate", *paths.values(), "--correct-source-noise", "--out", report)
        assert code == 1
        err = capsys.readouterr().err
        assert f"usage error: {paths['pair']}:{lineno}: werner_p 0 leaves no singlet signal" in err

    def test_unrecorded_werner_p_not_corrected(self, tmp_path, capsys):
        paths, lineno = self.werner_counts(tmp_path, "0.9")
        lines = paths["pair"].read_text().splitlines()
        del lines[lineno - 1]
        paths["pair"].write_text("\n".join(lines) + "\n")
        assert read_counts_file(paths["pair"]).werner_p is None
        report = tmp_path / "r.txt"
        code = run_cli("estimate", *paths.values(), "--correct-source-noise", "--out", report)
        assert code == 1
        err = capsys.readouterr().err
        assert f"usage error: {paths['pair']}: pair counts file does not record werner_p" in err

    def test_out_of_family_header_visibilities_located(self, tmp_path, capsys):
        paths = simulate_all(tmp_path, ("0.5", "0.7", "0.3"), 1000, base_seed=980)
        lines = paths["ex"].read_text().splitlines()
        lineno = lines.index("vx: 0.5") + 1
        lines[lineno - 1] = "vx: 0.9"
        paths["ex"].write_text("\n".join(lines) + "\n")
        where = f"{paths['ex']}:{lineno}: visibilities: vx^2 + vy^2 + vz^2 = 1.39"
        with pytest.raises(ValueError, match=re.escape(where)):
            read_counts_file(paths["ex"])
        # a malformed input file is a usage error (1), not a domain error (2)
        assert run_cli("estimate", *paths.values(), "--out", tmp_path / "r.txt") == 1
        assert f"error: {where}" in capsys.readouterr().err

    def test_out_of_family_povm_header_located(self, tmp_path):
        out = tmp_path / "povm.txt"
        assert run_cli("build-povm", "--vx", 0.5, "--vy", 0.7, "--vz", 0.3, "--out", out) == 0
        lines = out.read_text().splitlines()
        lineno = lines.index("vx: 0.5") + 1
        lines[lineno - 1] = "vx: 0.9"
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{out}:{lineno}: visibilities: vx^2")):
            read_povm_file(out)

    @pytest.mark.parametrize(
        "section, old, new, message",
        [
            ("[visibility_x]", "value ", "value abc", "[visibility_x] value: could not convert string to float: 'abc'"),
            ("[visibility_y]", "value ", "value 0.6 0.7", "malformed [visibility_y] row ('value', '0.6', '0.7')"),
            ("[visibility_x]", "value ", "value -0.3 0.7", "malformed [visibility_x] row ('value', '-0.3', '0.7')"),
            ("[csquared]", "vz_magnitude ", None, "missing entry 'vz_magnitude' in section [csquared]"),
        ],
        ids=["bad-float", "extra-token", "two-values", "missing"],
    )
    def test_from_report_values_located(self, tmp_path, capsys, section, old, new, message):
        paths = simulate_all(tmp_path, ("0.5", "0.6", "0.4"), 1000, base_seed=990)
        report = tmp_path / "r.txt"
        assert run_cli("estimate", *paths.values(), "--out", report) == 0
        lines = report.read_text().splitlines()
        start = lines.index(section)
        k = next(i for i in range(start, len(lines)) if lines[i].startswith(old))
        # a missing row is reported at its section's line
        lineno = start + 1 if new is None else k + 1
        if new is None:
            del lines[k]
        else:
            lines[k] = new
        report.write_text("\n".join(lines) + "\n")
        code = run_cli(
            "reconstruct", "--input", paths["ex"], "--from-report", report, "--out", tmp_path / "kd.txt"
        )
        assert code == 1
        assert f"error: {report}:{lineno}: {message}" in capsys.readouterr().err

    def test_missing_header_key_names_file(self, tmp_path, capsys):
        paths = simulate_all(tmp_path, ("0.5", "0.6", "0.4"), 1000, base_seed=1000)
        lines = paths["ex"].read_text().splitlines()
        lines.remove("mode: eigenstate")
        paths["ex"].write_text("\n".join(lines) + "\n")
        assert run_cli("estimate", *paths.values(), "--out", tmp_path / "r.txt") == 1
        assert f"error: {paths['ex']}: missing header key 'mode'" in capsys.readouterr().err

    def test_section_value_rejects_extra_token(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("schema: xymeas-report/1\n[csquared]\nvalue -0.3 0.7\nclassical true\n")
        doc = read_document(path)
        assert doc.section_value("csquared", "classical") == "true"
        for parse in (str, float):
            with pytest.raises(ValueError, match=re.escape(f"{path}:3: malformed [csquared] row")):
                doc.section_value("csquared", "value", parse)

    def test_missing_report_section_names_file(self, tmp_path, capsys):
        paths = simulate_all(tmp_path, ("0.5", "0.6", "0.4"), 1000, base_seed=1010)
        report = tmp_path / "r.txt"
        assert run_cli("estimate", paths["ey"], paths["pair"], "--allow-partial", "--out", report) == 0
        assert "[visibility_x]" not in report.read_text()
        code = run_cli(
            "reconstruct", "--input", paths["ey"], "--from-report", report, "--out", tmp_path / "kd.txt"
        )
        assert code == 1
        assert f"error: {report}: missing section [visibility_x]" in capsys.readouterr().err

    def test_duplicate_probs_row_rejected(self, tmp_path):
        path = tmp_path / "p.txt"
        write_probs_file(path, {o: 0.25 for o in OUTCOMES4})
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + ["+1 +1 0.25"]) + "\n")
        with pytest.raises(ValueError, match=f"{path}:{len(lines) + 1}: duplicate"):
            read_probs_file(path)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("schema: other/9\n[counts]\n+1 +1 3\n")
        with pytest.raises(ValueError):
            read_counts_file(path)

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "xymeas" in capsys.readouterr().out


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_import_builds_no_parser(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = "import xymeas.cli; print(xymeas.cli.build_parser.cache_info().currsize)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"

    def test_no_flag_state_between_calls(self, tmp_path):
        args = [
            "simulate", "--mode", "eigenstate", "--axis", "X", "--value", "+1",
            "--vx", 0.6, "--vy", 0.3, "--vz", 0.5, "--shots", 5000, "--seed", 8, "--out",
        ]
        plain, flipped, again = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
        assert run_cli(*args, plain) == 0
        assert run_cli(*args, flipped, "--randomize-flips") == 0
        assert run_cli(*args, again) == 0
        assert read_document(flipped).header["randomize_flips"] == "true"
        assert again.read_bytes().replace(b"c.txt", b"") == plain.read_bytes().replace(b"a.txt", b"")

    def test_valid_call_after_usage_error(self, tmp_path):
        assert run_cli("simulate", "--mode", "pair", "--vx", "abc") == 1
        assert run_cli("verify", "--grid", 1) == 1
        out = tmp_path / "povm.txt"
        assert run_cli("build-povm", "--vx", 0.5, "--vy", 0.5, "--vz", 0, "--out", out) == 0
        assert out.exists()
