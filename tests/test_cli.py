"""Command-line interface: artifacts, exit codes, determinism, report consistency."""

import os
import platform
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import element, family_operators
from xymeas import cli, fileio
from xymeas.fileio import (
    ELEMENT_KEYS,
    fmt_float,
    fmt_sign,
    read_counts_document,
    read_document,
    read_probs_document,
    write_probs_file,
)
from xymeas.analysis import estimate_visibility, pattern_estimates
from xymeas.checks import CheckResult
from xymeas.povm import OUTCOMES4, OUTCOMES16, VisibilityTriple, build_povm, outcome_table
from xymeas.qubit import bloch_vector
from xymeas.simulate import (
    BLOCK_SHOTS,
    RNG_ID,
    ExperimentConfig,
    run_eigenstate_experiment,
    run_pair_experiment,
)

SQ3 = 1.0 / np.sqrt(3.0)
SQ3_STR = fmt_float(SQ3)
GOLDEN = Path(__file__).parent / "golden"


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


def read_povm_dump(path) -> tuple[VisibilityTriple, np.ndarray]:
    """The visibilities and operators of a ``build-povm`` dump; no command reads one back."""
    doc = read_document(path)
    assert doc.header["schema"] == "xymeas-povm/1"
    v = VisibilityTriple(*(float(doc.header[key]) for key in ("vx", "vy", "vz")))
    rows = doc.section("elements")
    # one row per operator entry, in ELEMENT_KEYS order: x y i j real imag
    assert [tuple(map(int, row[:4])) for row in rows] == list(ELEMENT_KEYS)
    entries = [complex(float(row[4]), float(row[5])) for row in rows]
    return v, np.array(entries).reshape(4, 2, 2)


def write_probs_rows(path, table):
    """A probs file holding ``table`` as written, bypassing `write_probs_file`'s checks."""
    rows = [f"{fmt_sign(x)} {fmt_sign(y)} {fmt_float(p)}" for (x, y), p in zip(OUTCOMES4, table)]
    path.write_text("\n".join(["schema: xymeas-probs/1", "[probs]", *rows]) + "\n")


@st.composite
def probs_tables(draw):
    """Four floats, most near a unit-sum table on the edges of the reader's bounds."""
    entry = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 0.25, -1e-12, -2e-12, 1.0 + 1e-12, 1.0 + 3e-12]),
        st.floats(0.0, 1.0),
        st.floats(),
    )
    head = draw(st.lists(entry, min_size=3, max_size=3))
    offset = draw(st.sampled_from([0.0, -0.0, 5e-10, -5e-10, 2e-9, -2e-9]))
    last = draw(st.one_of(st.just(1.0 - sum(head) + offset), entry))
    return [*head, last]


class TestBuildPovm:
    def test_writes_round_trippable_elements(self, tmp_path):
        out = tmp_path / "povm.txt"
        assert run_cli("build-povm", "--vx", SQ3_STR, "--vy", SQ3_STR, "--vz", SQ3_STR, "--out", out) == 0
        v, elements = read_povm_dump(out)
        assert v == VisibilityTriple(SQ3, SQ3, SQ3)
        assert np.array_equal(elements, family_operators(v))
        manifest = read_document(tmp_path / "povm.txt.manifest")
        assert manifest.header["command"] == "build-povm"
        assert ("povm.txt",) in manifest.section("artifacts")

    def test_projective_x(self, tmp_path):
        out = tmp_path / "povm.txt"
        assert run_cli("build-povm", "--vx", 1, "--vy", 0, "--vz", 0, "--out", out) == 0
        _, elements = read_povm_dump(out)
        assert np.allclose(element(elements, +1, +1), [[0.25, 0.25], [0.25, 0.25]], atol=1e-15)

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
        artifact = read_counts_document(read_document(out))
        counts = artifact.counts
        assert counts.total == 10_000
        # OUTCOMES4 order: (+1, +1), (+1, -1), (-1, +1), (-1, -1)
        assert counts.counts[2] == 0 and counts.counts[3] == 0
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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", -1], "--seed must lie in [0, 2^64), got -1"),
            (["--seed", 2 ** 64], f"--seed must lie in [0, 2^64), got {2 ** 64}"),
            (["--shots", 0], "--shots must be at least 1, got 0"),
            (["--werner-p", 1.5], "--werner-p must lie in [0, 1], got 1.5"),
            (["--werner-p", "nan"], "--werner-p must lie in [0, 1], got nan"),
        ],
    )
    def test_bad_run_flags_name_the_flag(self, tmp_path, capsys, flags, message):
        out = tmp_path / "c.txt"
        base = ["--vx", 0.5, "--vy", 0.5, "--vz", 0, "--shots", 10, "--seed", 1, "--out", out]
        # the last of a repeated flag wins
        assert run_cli("simulate", "--mode", "pair", *base, *flags) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
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

    def test_exact_reference_at_zero_vz_has_no_negative_zero(self, tmp_path):
        paths = simulate_all(tmp_path, ("0.6", "0.8", "0"), 1000, base_seed=250)
        report_path = tmp_path / "report.txt"
        assert run_cli("estimate", *paths.values(), "--out", report_path) == 0
        assert read_document(report_path).section_value("exact_reference", "csquared") == "0"

    def test_zero_csquared_gives_unsigned_vz_magnitude(self, tmp_path, capsys):
        # one shot per pattern class: c^2 is exactly 0.0, whose negation is -0.0
        rows = "".join(f"{' '.join(map(fmt_sign, o))} {int(o[0] == o[1] == +1)}\n" for o in OUTCOMES16)
        counts = tmp_path / "pair.counts"
        counts.write_text("schema: xymeas-counts/1\nmode: pair\n[counts]\n" + rows)
        report = tmp_path / "r.txt"
        assert run_cli("estimate", counts, "--allow-partial", "--out", report) == 0
        doc = read_document(report)
        assert doc.section_value("csquared", "value") == "0"
        assert doc.section_value("csquared", "vz_magnitude") == "0"
        assert "|vz| = 0.000000," in capsys.readouterr().out

    def test_single_pair_shot_is_consistent_with_classical(self, tmp_path, capsys):
        # one shot in pattern (0, 1) reads c^2 = -1, with the rule-of-three stderr 6 of one shot
        rows = "".join(f"{' '.join(map(fmt_sign, o))} {int(o == (+1, +1, -1, +1))}\n" for o in OUTCOMES16)
        counts = tmp_path / "pair.counts"
        counts.write_text("schema: xymeas-counts/1\nmode: pair\n[counts]\n" + rows)
        report = tmp_path / "r.txt"
        assert run_cli("estimate", counts, "--allow-partial", "--out", report) == 0
        doc = read_document(report)
        assert doc.section_value("csquared", "value") == "-1"
        assert doc.section_value("csquared", "stderr") == "6"
        assert doc.section_value("csquared", "classical") == "true"
        assert doc.section_value("classicality", "stderr") == "1.5"
        # the full pattern class, like the three empty ones, reads stderr 3/N of a cell's 4 outcomes
        assert [row[3] for row in doc.section("patterns")] == ["0.75"] * 4
        assert "c^2 = -1.000000 +- 6 (consistent with classical errors)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "axis, flags",
        [("X", ("--vx", 1, "--vy", 0, "--vz", 0, "--value", "+1")),
         ("Y", ("--vx", 0, "--vy", 1, "--vz", 0, "--value", "-1"))],
        ids=["X+", "Y-"],
    )
    def test_one_sided_eigenstate_run_gets_rule_of_three(self, tmp_path, capsys, axis, flags):
        # an ideal device puts all 5 shots on the input's side: stderr 6/5, not 0
        counts, report = tmp_path / "e.counts", tmp_path / "r.txt"
        assert run_cli("simulate", "--mode", "eigenstate", "--axis", axis, *flags,
                       "--shots", 5, "--seed", 1, "--out", counts) == 0
        assert run_cli("estimate", counts, "--allow-partial", "--out", report) == 0
        section = f"visibility_{axis.lower()}"
        assert read_document(report).section_value(section, "stderr") == "1.2"
        assert f"v{axis.lower()} = 1.000000 +- 1.2" in capsys.readouterr().out

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

        vx = estimate_visibility(read_counts_document(read_document(paths["ex"])).counts)
        vy = estimate_visibility(read_counts_document(read_document(paths["ey"])).counts)
        pair = read_counts_document(read_document(paths["pair"])).counts
        vx2, vy2, corr = pattern_estimates(pair)
        assert float(report.section_value("visibility_x", "value")) == pytest.approx(vx.value, abs=1e-12)
        assert float(report.section_value("visibility_x", "stderr")) == pytest.approx(vx.stderr, abs=1e-12)
        assert float(report.section_value("visibility_y", "value")) == pytest.approx(vy.value, abs=1e-12)
        assert float(report.section_value("vx_squared_pair", "value")) == vx2.value
        assert float(report.section_value("vy_squared_pair", "value")) == vy2.value
        assert float(report.section_value("csquared", "value")) == corr.value
        for name, est in (("vx_squared_pair", vx2), ("vy_squared_pair", vy2), ("csquared", corr)):
            assert float(report.section_value(name, "stderr")) == pytest.approx(est.stderr, abs=1e-15)
        # S = -c^2 / 4, value and stderr
        assert float(report.section_value("classicality", "statistic")) == 0.0 - corr.value / 4.0
        assert float(report.section_value("classicality", "stderr")) == corr.stderr / 4.0

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
        # the sampled row and its spread are divided by werner_p
        se_plain = float(read_document(plain).section_value("csquared", "stderr"))
        se_corr = float(read_document(corrected).section_value("csquared", "stderr"))
        assert se_plain == pytest.approx(np.sqrt((1.0 - c2_plain ** 2) / 1_000_000), rel=1e-12)
        assert se_corr == pytest.approx(se_plain / 0.8, rel=1e-12)

    @pytest.mark.parametrize("werner_p", [0.1, 0.15])
    def test_corrected_patterns_may_leave_the_unit_range(self, tmp_path, werner_p):
        # 20 shots at strong noise: dividing by p takes entries below 0 and above 1/4
        out = tmp_path / "pair.txt"
        assert run_cli(
            "simulate", "--mode", "pair", "--vx", 0.5, "--vy", 0.5, "--vz", 0.5,
            "--shots", 20, "--seed", 3, "--werner-p", werner_p, "--out", out,
        ) == 0
        report = tmp_path / "r.txt"
        argv = ("estimate", out, "--allow-partial", "--correct-source-noise", "--out", report)
        assert run_cli(*argv) == 0
        e = [float(row[2]) for row in read_document(report).section("patterns")]
        assert min(e) < 0.0 and max(e) > 0.25
        assert sum(e) == pytest.approx(0.25, abs=1e-12)

    def test_nonexistent_file_exit_1(self, tmp_path):
        assert run_cli("estimate", tmp_path / "nope.txt", "--out", tmp_path / "r.txt") == 1

    def test_source_noise_correction_needs_pair_file(self, tmp_path, capsys):
        # without a pair run there is nothing to correct, so the flag is refused
        out = tmp_path / "r.txt"
        argv = ("estimate", GOLDEN / "x.counts", "--allow-partial", "--correct-source-noise")
        assert run_cli(*argv, "--out", out) == 1
        assert "usage error: --correct-source-noise applies to a pair counts file only" in (
            capsys.readouterr().err
        )
        assert not out.exists()


class TestReconstruct:
    def test_exact_z_plus_table(self, tmp_path):
        v = VisibilityTriple(SQ3, SQ3, SQ3)
        probs = outcome_table(build_povm(v), bloch_vector("Z", +1))
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
        write_probs_file(probs_path, [0.25] * 4, state="mixed")
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
        write_probs_file(probs_path, [0.25] * 4)
        assert run_cli(
            "reconstruct", "--input", probs_path, "--vx", 0.6, "--vy", 0.8, "--vz", 0,
            "--out", tmp_path / "kd.txt",
        ) == 2
        assert "c" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "table, vx, vy, vz",
        [("zplus.probs", 1e-5, 1e-5, 1e-5), ("x.counts", 2e-5, 0.5, 0.4)],
        ids=["probs", "counts"],
    )
    def test_small_visibility_exits_2(self, tmp_path, capsys, table, vx, vy, vz):
        # below kirkwood.SINGULAR_VISIBILITY, not an unlocated KD sum error
        code = run_cli(
            "reconstruct", "--input", GOLDEN / table, "--vx", vx, "--vy", vy, "--vz", vz,
            "--out", tmp_path / "kd.txt",
        )
        assert code == 2
        assert "domain error: visibility parameter vx = " in capsys.readouterr().err

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
            write_probs_file(path, [0.25] * 4, state="mixed")
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
        probs = outcome_table(build_povm(VisibilityTriple(SQ3, SQ3, SQ3)), bloch_vector("Z", +1))
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

    @pytest.mark.parametrize(
        "vx, vy, vz, code, message",
        [
            (5, 0.5, 0.5, 1, "error: vx must lie in [0, 1], got 5.0"),
            (-0.5, 0.5, 0.5, 1, "error: vx must lie in [0, 1], got -0.5"),
            ("nan", 0.5, 0.5, 1, "error: vx must be finite, got nan"),
            (0.5, 0.5, "inf", 1, "error: vz must be finite, got inf"),
            (0.9, 0.9, 0.9, 2, "domain error: vx^2 + vy^2 + vz^2 = 2.43 exceeds 1"),
        ],
    )
    def test_flags_outside_the_family_rejected(self, tmp_path, capsys, vx, vy, vz, code, message):
        # as build-povm and simulate reject the same triples
        out = tmp_path / "kd.txt"
        assert run_cli(
            "reconstruct", "--input", GOLDEN / "zplus.probs",
            "--vx", vx, "--vy", vy, "--vz", vz, "--out", out,
        ) == code
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_report_estimates_just_outside_the_family_accepted(self, tmp_path):
        # estimates are noisy: a report whose norm exceeds 1 still reconstructs
        text = (GOLDEN / "estimate.report").read_text()
        assert "value 0.49886000000000003\n" in text
        report = tmp_path / "r.txt"
        report.write_text(text.replace("value 0.49886000000000003", "value 0.7", 1))
        assert 0.7 ** 2 + 0.6014 ** 2 + 0.3926 ** 2 > 1
        assert run_cli(
            "reconstruct", "--input", GOLDEN / "x.counts", "--from-report", report,
            "--out", tmp_path / "kd.txt",
        ) == 0

    def test_conflicting_visibility_sources_rejected(self, tmp_path):
        probs_path = tmp_path / "p.txt"
        write_probs_file(probs_path, [0.25] * 4)
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

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_64_bits_exits_1(self, capsys, seed):
        assert run_cli("verify", "--grid", 3, "--samples", 10, "--seed", seed) == 1
        assert capsys.readouterr().err == f"usage error: --seed must lie in [0, 2^64), got {seed}\n"

    def test_largest_seed_runs(self, capsys):
        assert run_cli("verify", "--grid", 3, "--samples", 10, "--seed", 2 ** 64 - 1) == 0


class TestFileFormat:
    def test_float_round_trip_is_lossless(self, tmp_path):
        values = [1 / 3, np.pi / 7, 0.1, 1e-17, 123456.789012345678]
        for x in values:
            assert float(fmt_float(x)) == x

    def test_probs_round_trip(self, tmp_path):
        probs = [0.1, 0.2, 0.3, 0.4]
        path = tmp_path / "p.txt"
        write_probs_file(path, probs, state="Y-")
        loaded, state = read_probs_document(read_document(path))
        assert loaded.tolist() == probs
        assert state == "Y-"

    def test_counts_round_trip(self, tmp_path):
        config = ExperimentConfig(visibilities=VisibilityTriple(0.3, 0.4, 0.5), shots=5000, seed=77)
        path = tmp_path / "c.txt"
        assert run_cli(
            "simulate", "--mode", "pair", "--vx", 0.3, "--vy", 0.4, "--vz", 0.5,
            "--shots", 5000, "--seed", 77, "--werner-p", 0.9, "--out", path,
        ) == 0
        artifact = read_counts_document(read_document(path))
        assert np.array_equal(artifact.counts.counts, run_pair_experiment(config, werner_p=0.9).counts)
        assert artifact.werner_p[0] == 0.9
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
        counts = read_counts_document(read_document(path)).counts
        expected = run_eigenstate_experiment(config, "Y", -1)
        assert np.array_equal(counts.counts, expected.counts)
        assert (counts.input_axis, counts.input_value) == (expected.input_axis, expected.input_value)

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
            read_counts_document(read_document(paths["ex"]))
        assert run_cli("estimate", *paths.values(), "--out", tmp_path / "r.txt") == 1
        assert where in capsys.readouterr().err

    def test_shots_header_disagreeing_with_counts_rejected(self, tmp_path, capsys):
        paths = simulate_all(tmp_path, ("0.6", "0.8", "0"), 1000, base_seed=900)
        lines = paths["pair"].read_text().splitlines()
        lineno = lines.index("shots: 1000") + 1
        lines[lineno - 1] = "shots: 5"
        paths["pair"].write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="shots"):
            read_counts_document(read_document(paths["pair"]))
        assert run_cli("estimate", *paths.values(), "--out", tmp_path / "r.txt") == 1
        assert f"{paths['pair']}:{lineno}:" in capsys.readouterr().err

    def test_duplicate_header_key_rejected(self, tmp_path, capsys):
        paths = simulate_all(tmp_path, ("0.6", "0.8", "0"), 1000, base_seed=950)
        lines = paths["ex"].read_text().splitlines()
        lineno = lines.index("axis: X") + 2
        lines.insert(lineno - 1, "axis: Y")
        paths["ex"].write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"{paths['ex']}:{lineno}: duplicate header key 'axis'"):
            read_counts_document(read_document(paths["ex"]))
        assert run_cli("estimate", *paths.values(), "--out", tmp_path / "r.txt") == 1
        assert f"{paths['ex']}:{lineno}:" in capsys.readouterr().err

    def test_repeated_section_heading_rejected(self, tmp_path, capsys):
        paths = simulate_all(tmp_path, ("0.6", "0.8", "0"), 1000, base_seed=955)
        lines = paths["ex"].read_text().splitlines()
        first = lines.index("[counts]") + 1
        # a second heading between the second and third of the four rows
        lineno = first + 3
        lines.insert(lineno - 1, "[counts]")
        paths["ex"].write_text("\n".join(lines) + "\n")
        message = f"{paths['ex']}:{lineno}: duplicate section [counts] (first on line {first})"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_document(paths["ex"])
        assert run_cli("estimate", paths["ex"], "--allow-partial", "--out", tmp_path / "r.txt") == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "prefix, replacement, message",
        [
            ("-1 -1 ", "-1 +2 250", "[counts] row: unknown key -1 +2"),
            ("+1 -1 ", "+1 -1 12.5", "[counts] row: invalid literal for int()"),
            ("+1 +1 ", "+1 +1 -368", "[counts] row: negative count -368"),
            ("+1 +1 ", "+1 +1 3_68", "[counts] row: count '3_68' is not written as 368"),
            ("+1 -1 ", None, "no [counts] row for +1 -1"),
            ("+1 -1 ", "+1 -1 12 5", "malformed [counts] row ('+1', '-1', '12', '5')"),
            ("vx: ", "vx: 0.6x", "header vx: could not convert string to float: '0.6x'"),
            ("shots: ", "shots: 1e3", "header shots: invalid literal for int()"),
        ],
        ids=[
            "sign", "count", "negative-count", "spelled-count", "missing-row", "malformed-row",
            "header-float", "header-shots",
        ],
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
            read_counts_document(read_document(paths["ex"]))
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
            read_counts_document(read_document(paths["ex"]))
        assert run_cli("estimate", *paths.values(), "--out", tmp_path / "r.txt") == 1
        assert f"error: {where}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fixture, line, message",
        [
            ("x.counts", "werner_p: 0.5", "werner_p: not written in eigenstate files"),
            ("pair.counts", "axis: X", "axis: not written in pair files"),
            ("pair.counts", "value: +1", "value: not written in pair files"),
            ("x.counts", "randomize_flips: maybe", "randomize_flips: expected one of true, false, got 'maybe'"),
            ("pair.counts", "randomize_flips: maybe", "randomize_flips: expected one of false, got 'maybe'"),
            ("pair.counts", "randomize_flips: true", "randomize_flips: expected one of false, got 'true'"),
        ],
        ids=["x-werner_p", "pair-axis", "pair-value", "x-flips", "pair-flips", "pair-flips-true"],
    )
    def test_other_mode_header_located(self, tmp_path, capsys, fixture, line, message):
        # the writer never puts these in a file of the fixture's mode: a key is added before
        # [counts], randomize_flips is rewritten in place
        lines = (GOLDEN / fixture).read_text().splitlines()
        key = line.split(":")[0]
        written = [i for i, row in enumerate(lines) if row.startswith(f"{key}: ")]
        if written:
            (k,) = written
            lines[k] = line
        else:
            k = lines.index("[counts]")
            lines.insert(k, line)
        path = tmp_path / fixture
        path.write_text("\n".join(lines) + "\n")
        where = f"{path}:{k + 1}: header {message}"
        with pytest.raises(ValueError, match=re.escape(where)):
            read_counts_document(read_document(path))
        assert run_cli("estimate", path, "--allow-partial", "--out", tmp_path / "r.txt") == 1
        assert f"error: {where}" in capsys.readouterr().err

    def test_bad_state_header_located(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        write_probs_file(path, [0.25] * 4, state="mixed")
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

    @pytest.mark.parametrize(
        "byte", [0x0D, 0x0B, 0x0C, 0x1C, 0x1D, 0x1E], ids=["CR", "VT", "FF", "FS", "GS", "RS"]
    )
    def test_control_byte_located_at_its_own_line(self, tmp_path, byte):
        # each of these also ends a line for str.splitlines, which would shift the line count
        lines = (GOLDEN / "x.counts").read_bytes().split(b"\n")
        path = tmp_path / "x.counts"
        for lineno in (1, 5, 8, 15):
            mutated = list(lines)
            mutated[lineno - 1] = mutated[lineno - 1][:3] + bytes([byte]) + mutated[lineno - 1][3:]
            path.write_bytes(b"\n".join(mutated))
            with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: control byte 0x{byte:02x}")):
                read_document(path)

    def test_missing_probs_row_located(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        write_probs_file(path, [0.25] * 4, state="mixed")
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
        write_probs_file(path, [0.25] * 4, state="mixed")
        lines = path.read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith(old))
        lines[k] = new
        path.write_text("\n".join(lines) + "\n")
        # an entry is located at its row, a bad sum at the [probs] line
        lineno = lines.index("[probs]") + 1 if "sum" in message else k + 1
        with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: {message}")):
            read_probs_document(read_document(path))
        code = run_cli(
            "reconstruct", "--input", path, "--vx", 0.5, "--vy", 0.5, "--vz", 0.5,
            "--out", tmp_path / "kd.txt",
        )
        assert code == 1
        assert f"error: {path}:{lineno}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "table, key, token",
        [
            ([1.25, -0.25, 0.0, 0.0], "+1 +1", "1.25"),
            ([0.5, 0.5, 0.25, -0.25], "-1 -1", "-0.25"),
        ],
        ids=["above-1", "below-0"],
    )
    def test_probs_entry_outside_unit_range_located(self, tmp_path, capsys, table, key, token):
        path = tmp_path / "p.txt"
        write_probs_rows(path, table)
        lineno = next(i for i, line in enumerate(path.read_text().splitlines(), 1) if line.startswith(key))
        message = f"{path}:{lineno}: [probs] row: '{token}' is not in [-1e-12, 1.000000000001]"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_probs_document(read_document(path))
        code = run_cli(
            "reconstruct", "--input", path, "--vx", 0.5, "--vy", 0.5, "--vz", 0.5,
            "--out", tmp_path / "kd.txt",
        )
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_probs_entries_within_tolerance_of_the_range_accepted(self, tmp_path):
        path = tmp_path / "p.txt"
        write_probs_file(path, [1.0 + 5e-13, -5e-13, 0.0, 0.0])
        assert read_probs_document(read_document(path))[0].tolist() == [1.0 + 5e-13, -5e-13, 0.0, 0.0]

    def test_probs_sum_within_tolerance_accepted(self, tmp_path):
        path = tmp_path / "p.txt"
        write_probs_file(path, [0.25 + 5e-10, 0.25, 0.25, 0.25])
        assert read_probs_document(read_document(path))[0][0] == 0.25 + 5e-10

    @pytest.mark.parametrize(
        "table, message",
        [
            ([1.25, -0.25, 0.0, 0.0], "probs: entry out of [-1e-12, 1.000000000001]"),
            ([0.5] * 4, "probs: entries sum to 2.0, expected 1.0"),
        ],
        ids=["outside-unit-range", "sum-not-1"],
    )
    def test_writer_refuses_a_table_the_reader_rejects(self, tmp_path, table, message):
        path = tmp_path / "p.txt"
        with pytest.raises(ValueError, match=re.escape(message)):
            write_probs_file(path, table)
        assert not path.exists()

    @settings(max_examples=300, deadline=None)
    @given(table=probs_tables())
    @example(table=[1.0 + 1e-12, -1e-12, 0.0, -0.0])
    @example(table=[0.25 + 5e-10, 0.25, 0.25, 0.25 + 5e-10])
    def test_writer_accepts_exactly_what_the_reader_reads_back(self, table):
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "p.txt"
            try:
                write_probs_file(path, table)
            except ValueError:
                # the same rows written past the writer's checks are rejected too
                write_probs_rows(path, table)
                with pytest.raises(ValueError):
                    read_probs_document(read_document(path))
                return
            read = read_probs_document(read_document(path))[0]
        # bit for bit, so a signed zero must come back with its sign
        assert read.view(np.uint64).tolist() == np.array(table, dtype=float).view(np.uint64).tolist()

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
            read_counts_document(read_document(paths["pair"]))
        argv = ("estimate", paths["pair"], "--allow-partial", "--out", tmp_path / "r.txt")
        assert run_cli(*argv) == 1
        assert f"error: {where}" in capsys.readouterr().err

    def test_zero_werner_p_read_but_not_corrected(self, tmp_path, capsys):
        # werner_state accepts p = 0, so the reader does; dividing by it is refused
        paths, lineno = self.werner_counts(tmp_path, "0")
        assert read_counts_document(read_document(paths["pair"])).werner_p == (0.0, lineno)
        report = tmp_path / "r.txt"
        assert run_cli("estimate", *paths.values(), "--out", report) == 0
        assert "werner_p 0" in report.read_text()
        code = run_cli("estimate", *paths.values(), "--correct-source-noise", "--out", report)
        assert code == 1
        err = capsys.readouterr().err
        assert f"usage error: {paths['pair']}:{lineno}: werner_p 0 leaves no singlet signal" in err

    def small_werner_estimate(self, tmp_path, werner_p):
        """Exit code of a corrected estimate of a 1000-shot pair run at ``werner_p``, and the header line."""
        pair = tmp_path / "pair.counts"
        assert run_cli(
            "simulate", "--mode", "pair", "--vx", 0.5, "--vy", 0.5, "--vz", 0.5,
            "--shots", 1000, "--seed", 3, "--werner-p", werner_p, "--out", pair,
        ) == 0
        lines = pair.read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("werner_p: "))
        argv = ("estimate", pair, "--allow-partial", "--correct-source-noise", "--out", tmp_path / "r.txt")
        return run_cli(*argv), f"{pair}:{lineno}"

    @pytest.mark.parametrize("werner_p", ["1e-9", "1e-12"])
    def test_werner_p_below_the_floor_refused_at_its_line(self, tmp_path, capsys, werner_p):
        # dividing by it would push the corrected table's rounding past the sum tolerance
        code, where = self.small_werner_estimate(tmp_path, werner_p)
        assert code == 1
        message = f"usage error: {where}: werner_p {float(werner_p):g} leaves no singlet signal"
        assert message in capsys.readouterr().err

    def test_werner_p_at_the_floor_corrected(self, tmp_path):
        code, _ = self.small_werner_estimate(tmp_path, "1e-6")
        assert code == 0
        assert ("source_noise_corrected", "true") in read_document(tmp_path / "r.txt").section("pair_run")

    def test_unrecorded_werner_p_not_corrected(self, tmp_path, capsys):
        paths, lineno = self.werner_counts(tmp_path, "0.9")
        lines = paths["pair"].read_text().splitlines()
        del lines[lineno - 1]
        paths["pair"].write_text("\n".join(lines) + "\n")
        assert read_counts_document(read_document(paths["pair"])).werner_p is None
        report = tmp_path / "r.txt"
        code = run_cli("estimate", *paths.values(), "--correct-source-noise", "--out", report)
        assert code == 1
        err = capsys.readouterr().err
        assert f"usage error: {paths['pair']}: pair counts file does not record werner_p" in err

    @pytest.mark.parametrize(
        "role, command",
        [("ex", "estimate"), ("pair", "estimate"), ("ex", "reconstruct")],
        ids=["eigenstate-estimate", "pair-estimate", "eigenstate-reconstruct"],
    )
    def test_zero_count_table_located(self, tmp_path, capsys, role, command):
        # simulate refuses --shots < 1, and the reader refuses a table that holds no shot
        paths = simulate_all(tmp_path, ("0.5", "0.6", "0.4"), 1000, base_seed=1040)
        path = paths[role]
        lines = path.read_text().splitlines()
        lineno = lines.index("[counts]") + 1
        header = ["shots: 0" if line.startswith("shots: ") else line for line in lines[:lineno]]
        rows = [" ".join(line.split()[:-1] + ["0"]) for line in lines[lineno:]]
        path.write_text("\n".join(header + rows) + "\n")
        message = f"{path}:{lineno}: [counts] rows sum to 0 shots"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_counts_document(read_document(path))
        if command == "estimate":
            argv = ("estimate", path, "--allow-partial")
        else:
            argv = ("reconstruct", "--input", path, "--vx", 0.5, "--vy", 0.6, "--vz", 0.4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(*argv, "--out", tmp_path / "r.txt") == 1
        assert caught == []
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["vx", "vy", "vz"])
    def test_partial_header_visibilities_name_the_missing_key(self, tmp_path, capsys, key):
        # a file with some visibility headers must hold all three, or the reference is lost
        paths = simulate_all(tmp_path, ("0.5", "0.7", "0.3"), 1000, base_seed=990)
        lines = paths["pair"].read_text().splitlines()
        lines = [line for line in lines if not line.startswith(f"{key}: ")]
        paths["pair"].write_text("\n".join(lines) + "\n")
        message = f"{paths['pair']}: missing header key {key!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_counts_document(read_document(paths["pair"]))
        assert run_cli("estimate", *paths.values(), "--out", tmp_path / "r.txt") == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["1_000", "+1000", "01000"])
    def test_shots_header_not_written_as_a_count_located(self, tmp_path, capsys, token):
        paths = simulate_all(tmp_path, ("0.6", "0.8", "0"), 1000, base_seed=910)
        lines = paths["ex"].read_text().splitlines()
        lineno = lines.index("shots: 1000") + 1
        lines[lineno - 1] = f"shots: {token}"
        paths["ex"].write_text("\n".join(lines) + "\n")
        message = f"{paths['ex']}:{lineno}: header shots: count {token!r} is not written as 1000"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_counts_document(read_document(paths["ex"]))
        assert run_cli("estimate", *paths.values(), "--out", tmp_path / "r.txt") == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_out_of_family_header_visibilities_located(self, tmp_path, capsys):
        paths = simulate_all(tmp_path, ("0.5", "0.7", "0.3"), 1000, base_seed=980)
        lines = paths["ex"].read_text().splitlines()
        lineno = lines.index("vx: 0.5") + 1
        lines[lineno - 1] = "vx: 0.9"
        paths["ex"].write_text("\n".join(lines) + "\n")
        where = f"{paths['ex']}:{lineno}: visibilities: vx^2 + vy^2 + vz^2 = 1.39"
        with pytest.raises(ValueError, match=re.escape(where)):
            read_counts_document(read_document(paths["ex"]))
        # a malformed input file is a usage error (1), not a domain error (2)
        assert run_cli("estimate", *paths.values(), "--out", tmp_path / "r.txt") == 1
        assert f"error: {where}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, old, new, message",
        [
            ("[visibility_x]", "value ", "value abc", "[visibility_x] value: could not convert string to float: 'abc'"),
            ("[visibility_y]", "value ", "value 0.6 0.7", "malformed [visibility_y] row ('value', '0.6', '0.7')"),
            ("[visibility_x]", "value ", "value -0.3 0.7", "malformed [visibility_x] row ('value', '-0.3', '0.7')"),
            ("[csquared]", "vz_magnitude ", None, "missing entry 'vz_magnitude' in section [csquared]"),
            ("[visibility_x]", "value ", "value nan", "[visibility_x] value: 'nan' is not finite"),
            ("[csquared]", "vz_magnitude ", "vz_magnitude inf", "[csquared] vz_magnitude: 'inf' is not finite"),
            ("[csquared]", "vz_magnitude ", "vz_magnitude -0.5", "[csquared] vz_magnitude: '-0.5' is negative"),
        ],
        ids=["bad-float", "extra-token", "two-values", "missing", "nan", "inf", "negative-magnitude"],
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

    def test_section_value_rejects_repeated_row(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("schema: xymeas-report/1\n[visibility_x]\nvalue 0.5\nvalue 0.9\n")
        doc = read_document(path)
        message = f"{path}:4: duplicate [visibility_x] row 'value' (first on line 3)"
        with pytest.raises(ValueError, match=re.escape(message)):
            doc.section_value("visibility_x", "value", float)

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
        write_probs_file(path, [0.25] * 4)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + ["+1 +1 0.25"]) + "\n")
        with pytest.raises(ValueError, match=f"{path}:{len(lines) + 1}: duplicate"):
            read_probs_document(read_document(path))

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("schema: other/9\n[counts]\n+1 +1 3\n")
        with pytest.raises(ValueError):
            read_counts_document(read_document(path))

    @pytest.mark.parametrize(
        "argv, wrong, expected",
        [
            (("estimate", GOLDEN / "zplus.probs"), "zplus.probs", "xymeas-counts/1"),
            (
                ("reconstruct", "--input", GOLDEN / "estimate.report", "--vx", 0.5, "--vy", 0.5, "--vz", 0.5),
                "estimate.report",
                "xymeas-counts/1, xymeas-probs/1",
            ),
            (
                ("reconstruct", "--input", GOLDEN / "zplus.probs", "--from-report", GOLDEN / "x.counts"),
                "x.counts",
                "xymeas-report/1",
            ),
        ],
        ids=["estimate", "reconstruct-input", "reconstruct-from-report"],
    )
    def test_wrong_schema_located(self, tmp_path, capsys, argv, wrong, expected):
        assert run_cli(*argv, "--out", tmp_path / "r.txt") == 1
        path = GOLDEN / wrong
        found = read_document(path).header["schema"]
        assert f"error: {path}:1: header schema: expected one of {expected}, got {found!r}" in (
            capsys.readouterr().err
        )

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
