"""Command-line surface: subcommands, exit codes, end-to-end flow."""

import struct
from pathlib import Path

import numpy as np
import pytest

from irzone import io_formats as io
from irzone import pipeline
from irzone.cli import main
from irzone.phantom import generate_phantom
from irzone.zones import Mode, ZoneLabel, ZoneMask

from conftest import small_config, write_model_block


def write_leaf_model(path, mode=Mode.ON):
    """A cascade whose stages are one-leaf forests that say 0.5."""
    from irzone.features import FEATURE_DIM, Standardizer
    from irzone.models.cascade import CascadeModel, stages_for_mode
    from irzone.models.rf import RFConfig, RFModel, Tree

    leaf = Tree(feature=np.array([-1]), threshold=np.zeros(1), left=np.array([-1]),
                right=np.array([-1]), leaf_frac=np.array([0.5]))
    forest = RFModel(config=RFConfig(n_trees=1), trees=[leaf], n_features=FEATURE_DIM, seed=0)
    io.write_model(path, CascadeModel(
        mode=mode, backend="rf",
        standardizer=Standardizer(np.zeros(FEATURE_DIM), np.ones(FEATURE_DIM)),
        stages=dict.fromkeys(stages_for_mode(mode), forest),
    ))
    return path


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_argument_is_usage_error(self, capsys):
        assert main(["gen"]) == 1

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        code = main(["preprocess", "--in", str(tmp_path / "nope.irts")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_mask_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"not a mask")
        assert main(["eval", "--pred", str(bad), "--ref", str(bad)]) == 2

    def test_truncated_model_block_is_data_error(self, tmp_path, capsys):
        model = write_model_block(tmp_path / "bad.izm", b"I\x01")
        code = main(["infer", "--model", str(model), "--in", str(tmp_path / "seq.irts"),
                     "--out-mask", str(tmp_path / "pred.pgm")])
        assert code == 2
        assert "ends inside a value" in capsys.readouterr().err


    def test_malformed_manifest_is_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("a.irts\ta.pgm\tOn\tNWA 5 NA_DM\n")
        code = main(["train", "--manifest", str(manifest),
                     "--model-out", str(tmp_path / "model.izm")])
        assert code == 2
        assert "malformed manifest line" in capsys.readouterr().err
        assert not (tmp_path / "model.izm").exists()

    def test_manifest_that_is_not_utf8_is_data_error_naming_it(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_bytes(b"a.irts\ta\xff.pgm\n")
        code = main(["train", "--manifest", str(manifest),
                     "--model-out", str(tmp_path / "model.izm")])
        assert code == 2
        assert f"{manifest}: manifest is not text: " in capsys.readouterr().err
        assert not (tmp_path / "model.izm").exists()

    def test_model_header_without_magic_is_data_error(self, tmp_path, capsys):
        model = write_model_block(tmp_path / "bad.izm", io._pack({"kind": "cascade"}))
        model.write_text(model.read_text().replace("irzone-model 1", "Irzone-model 1"))
        code = main(["infer", "--model", str(model), "--in", str(tmp_path / "seq.irts"),
                     "--out-mask", str(tmp_path / "pred.pgm")])
        assert code == 2
        assert "irzone-model 1" in capsys.readouterr().err

    def test_model_with_an_edited_seed_line_is_data_error_naming_it(self, tmp_path, capsys):
        model = write_leaf_model(tmp_path / "leaf.izm")
        model.write_text(model.read_text().replace("\nseed 0\n", "\nseed 999\n"))
        code = main(["infer", "--model", str(model), "--in", str(tmp_path / "seq.irts"),
                     "--out-mask", str(tmp_path / "pred.pgm")])
        assert code == 2
        assert f"{model}: header seed '999' is not the model's '0'" in capsys.readouterr().err

    def test_model_state_without_fields_is_data_error(self, tmp_path, capsys):
        model = write_model_block(tmp_path / "bad.izm", io._pack({"kind": "cascade"}))
        code = main(["infer", "--model", str(model), "--in", str(tmp_path / "seq.irts"),
                     "--out-mask", str(tmp_path / "pred.pgm")])
        assert code == 2
        assert "lacks" in capsys.readouterr().err

    def test_self_loop_tree_is_data_error(self, tmp_path, capsys):
        from irzone.features import FEATURE_DIM, Standardizer
        from irzone.models.cascade import CascadeModel
        from irzone.models.rf import RFConfig, RFModel, Tree
        from irzone.zones import Mode

        loop = Tree(feature=np.array([0, -1]), threshold=np.zeros(2), left=np.array([0, -1]),
                    right=np.array([1, -1]), leaf_frac=np.array([0.5, 1.0]))
        forest = RFModel(config=RFConfig(n_trees=1), trees=[loop], n_features=FEATURE_DIM, seed=0)
        cascade = CascadeModel(
            mode=Mode.ON, backend="rf",
            standardizer=Standardizer(np.zeros(FEATURE_DIM), np.ones(FEATURE_DIM)),
            stages={"C1": forest, "C4": forest},
        )
        model = tmp_path / "loop.izm"
        io.write_model(model, cascade)
        code = main(["infer", "--model", str(model), "--in", str(tmp_path / "seq.irts"),
                     "--out-mask", str(tmp_path / "pred.pgm")])
        assert code == 2
        assert "point forward" in capsys.readouterr().err


    def test_model_of_other_feature_width_is_data_error(self, tmp_path, capsys):
        from irzone.features import FEATURE_DIM, Standardizer
        from irzone.models.cascade import CascadeModel
        from irzone.models.rf import RFConfig, RFModel, Tree
        from irzone.zones import Mode

        leaf = Tree(feature=np.array([-1]), threshold=np.zeros(1), left=np.array([-1]),
                    right=np.array([-1]), leaf_frac=np.array([0.5]))
        forest = RFModel(config=RFConfig(n_trees=1), trees=[leaf], n_features=FEATURE_DIM - 2,
                         seed=0)
        cascade = CascadeModel(
            mode=Mode.ON, backend="rf",
            standardizer=Standardizer(np.zeros(FEATURE_DIM), np.ones(FEATURE_DIM)),
            stages={"C1": forest, "C4": forest},
        )
        model = tmp_path / "narrow.izm"
        io.write_model(model, cascade)
        code = main(["infer", "--model", str(model), "--in", str(tmp_path / "seq.irts"),
                     "--out-mask", str(tmp_path / "pred.pgm")])
        assert code == 2
        assert f"takes {FEATURE_DIM - 2} features, not {FEATURE_DIM}" in capsys.readouterr().err


class TestGen:
    def test_zero_sequences_succeeds_with_empty_manifest(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["gen", "--n", "0", "--out", str(out)]) == 0
        assert (out / "manifest.txt").read_text() == ""

    def test_a_manifest_written_with_a_relative_out_trains_from_any_directory(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "_FEATURE_CACHE", {})
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "--n", "2", "--out", "data", "--width", "96", "--height", "72",
                     "--frames", "20", "--seed", "3"]) == 0
        for entry in pipeline.read_manifest(tmp_path / "data" / "manifest.txt"):
            assert entry.seq_path == str(tmp_path / "data" / Path(entry.seq_path).name)
            assert entry.mask_path == str(tmp_path / "data" / Path(entry.mask_path).name)
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        (tmp_path / "small.cfg").write_text("rf.n_trees = 5\nmax_train_pixels = 2000\n")
        model = tmp_path / "model.izm"
        assert main(["train", "--manifest", str(tmp_path / "data" / "manifest.txt"),
                     "--config", str(tmp_path / "small.cfg"), "--model-out", str(model)]) == 0
        assert io.load_cascade(model).mode == Mode.ON

    def test_mode_mix_writes_combined_manifest(self, tmp_path):
        out = tmp_path / "mix"
        code = main([
            "gen", "--mode-mix", "On=1,Off=1", "--out", str(out),
            "--width", "48", "--height", "36", "--frames", "10", "--seed", "3",
        ])
        assert code == 0
        lines = (out / "manifest.txt").read_text().splitlines()
        assert lines == [f"{out}/seq_{i:04d}.irts\t{out}/mask_{i:04d}.pgm" for i in range(2)]
        # each mask's sidecar holds its mode
        assert [io.read_mask(line.split("\t")[1])[1].value for line in lines] == ["On", "Off"]
        # one flat directory, numbered across modes
        assert sorted(p.name for p in out.glob("*.irts")) == ["seq_0000.irts", "seq_0001.irts"]

    @pytest.mark.parametrize("mix, mode", [("On=1,on=0", "On"), ("Off=1,In=1,OFF=2", "Off")])
    def test_mode_mix_naming_a_mode_twice_is_data_error(self, tmp_path, capsys, mix, mode):
        out = tmp_path / "mix"
        assert main(["gen", "--mode-mix", mix, "--out", str(out)]) == 2
        assert f"names mode {mode} more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_n_with_mode_mix_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "mix"
        assert main(["gen", "--n", "2", "--mode-mix", "On=1", "--out", str(out)]) == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["Off", "On"])
    def test_mode_with_mode_mix_is_usage_error(self, tmp_path, capsys, mode):
        out = tmp_path / "mix"
        assert main(["gen", "--mode", mode, "--mode-mix", "On=1", "--out", str(out)]) == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, text", [
        ("--n", "1_0"), ("--n", "+1"), ("--n", "-1"), ("--n", "\u0663"), ("--n", "1.0"),
        ("--width", " 9_6 "), ("--width", "96 "), ("--seed", "\uff17"), ("--frames", ""),
    ])
    def test_integer_flag_takes_ascii_digits_only(self, tmp_path, capsys, flag, text):
        out = tmp_path / "ds"
        args = {"--n": "1", "--width": "48", "--height": "36", "--frames": "10",
                "--seed": "0", flag: text}
        assert main(["gen", "--out", str(out), *(x for kv in args.items() for x in kv)]) == 1
        assert f"argument {flag}: invalid integer value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mix", ["On=\u0663", "On=1_0", "On=+1", "On= 1", "On"])
    def test_mode_mix_count_takes_ascii_digits_only(self, tmp_path, capsys, mix):
        out = tmp_path / "mix"
        assert main(["gen", "--mode-mix", mix, "--out", str(out), "--width", "48",
                     "--height", "36", "--frames", "10"]) == 2
        assert "is not an integer written in digits 0-9" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One small generated dataset reused across the flow tests."""
    root = tmp_path_factory.mktemp("cliflow")
    code = main([
        "gen", "--n", "3", "--out", str(root / "train"),
        "--width", "96", "--height", "72", "--frames", "25", "--seed", "17",
    ])
    assert code == 0
    return root


class TestFlow:
    def test_eval_identical_masks_reports_unit_sensitivities(self, workspace, capsys):
        mask = workspace / "train" / "mask_0000.pgm"
        assert main(["eval", "--pred", str(mask), "--ref", str(mask)]) == 0
        out = capsys.readouterr().out
        assert "Model  95% CI Ac" in out
        assert "1.0000  1.0000  1.0000" in out

    def test_preprocess_registers_and_cleans_without_fitting(self, tmp_path, capsys,
                                                           monkeypatch):
        # a jump past the search window at frame 9 and an occluder on frame 17
        from irzone import preprocess
        from irzone.phantom import OccluderSpec, generate_phantom

        schedule = [(0.45 * i % 2.4, -0.3 * i % 1.6) for i in range(30)]
        schedule[9] = (7.0, -1.0)
        seq, _ = generate_phantom(small_config(noise_sigma=0.03, shift_schedule=schedule,
                                               damaged_frames={17: OccluderSpec()}), seed=22)
        io.write_sequence(tmp_path / "seq.irts", seq)
        registered, report = preprocess.register_sequence(seq)
        _, report = preprocess.remove_damaged_frames(registered, report)

        def fit(*args):
            raise AssertionError("the stage report needs no recovery-curve fit")

        monkeypatch.setattr(preprocess, "fit_recovery_batch", fit)
        monkeypatch.setattr(pipeline, "fit_recovery_batch", fit)
        assert main(["preprocess", "--in", str(tmp_path / "seq.irts")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == report.lines()
        assert lines[0] == "kept 28 deleted 2"
        assert lines[10].startswith("frame 9 ") and lines[10].endswith(" FATAL")
        assert lines[-2:] == ["deleted 9 fatal shift", "deleted 17 foreign object"]

    def test_preprocess_writes_stage_report(self, workspace):
        report = workspace / "pre.txt"
        code = main([
            "preprocess", "--in", str(workspace / "train" / "seq_0000.irts"),
            "--report", str(report),
        ])
        assert code == 0
        assert report.read_text().startswith("kept ")

    def test_train_infer_render_round_trip(self, workspace, tmp_path):
        overrides = tmp_path / "overrides.txt"
        overrides.write_text("rf.n_trees = 10\nmax_train_pixels = 4000\n")
        model = tmp_path / "model.izm"
        code = main([
            "train", "--manifest", str(workspace / "train" / "manifest.txt"),
            "--backend", "rf", "--mode", "On", "--config", str(overrides),
            "--seed", "17", "--model-out", str(model),
        ])
        assert code == 0
        assert io.load_cascade(model).mode.value == "On"

        pred = tmp_path / "pred.pgm"
        code = main([
            "infer", "--model", str(model),
            "--in", str(workspace / "train" / "seq_0000.irts"),
            "--zpr", "auto",
            "--calib", str(workspace / "train" / "manifest.txt"),
            "--out-mask", str(pred),
            "--out-probs", str(tmp_path / "probs.irts"),
        ])
        assert code == 0
        mask, mode = io.read_mask(pred)
        assert mode.value == "On"
        probs = io.read_sequence(tmp_path / "probs.irts")
        total = probs.data.astype(np.float64).sum(axis=0)
        assert np.max(np.abs(total - 1.0)) < 1e-5  # probability planes stored as f32

        overlay = tmp_path / "overlay.ppm"
        code = main([
            "render", "--seq", str(workspace / "train" / "seq_0000.irts"),
            "--ref", str(workspace / "train" / "mask_0000.pgm"),
            "--alg", str(pred), "--out", str(overlay),
        ])
        assert code == 0
        assert overlay.read_bytes().startswith(b"P6\n")

    def test_train_config_override_reaches_model(self, workspace, tmp_path):
        overrides = tmp_path / "overrides.txt"
        overrides.write_text("# small forest\nrf.n_trees = 3\nrf.min_leaf = 7\n")
        model = tmp_path / "model.izm"
        assert main([
            "train", "--manifest", str(workspace / "train" / "manifest.txt"),
            "--config", str(overrides), "--seed", "17", "--model-out", str(model),
        ]) == 0
        for stage in io.load_cascade(model).stages.values():
            assert (stage.config.n_trees, stage.config.min_leaf) == (3, 7)
            assert stage.config.max_depth == 12  # untouched default

    def test_train_unknown_config_key_is_data_error(self, workspace, tmp_path, capsys):
        overrides = tmp_path / "overrides.txt"
        overrides.write_text("rf.n_tree = 5\n")
        assert main([
            "train", "--manifest", str(workspace / "train" / "manifest.txt"),
            "--config", str(overrides), "--model-out", str(tmp_path / "model.izm"),
        ]) == 2
        assert "'rf.n_tree'" in capsys.readouterr().err
        assert not (tmp_path / "model.izm").exists()

    def test_train_repeated_config_key_is_data_error(self, workspace, tmp_path, capsys):
        overrides = tmp_path / "overrides.txt"
        overrides.write_text("rf.n_trees = 3\nrf.n_trees = 2\n")
        assert main([
            "train", "--manifest", str(workspace / "train" / "manifest.txt"),
            "--config", str(overrides), "--model-out", str(tmp_path / "model.izm"),
        ]) == 2
        assert f"{overrides}: repeated config key 'rf.n_trees'" in capsys.readouterr().err
        assert not (tmp_path / "model.izm").exists()

    def test_train_config_that_is_not_utf8_is_data_error(self, workspace, tmp_path, capsys):
        overrides = tmp_path / "overrides.txt"
        overrides.write_bytes(b"rf.n_trees = 3 \xff\n")
        assert main([
            "train", "--manifest", str(workspace / "train" / "manifest.txt"),
            "--config", str(overrides), "--model-out", str(tmp_path / "model.izm"),
        ]) == 2
        assert f"{overrides}: config file is not text: " in capsys.readouterr().err
        assert not (tmp_path / "model.izm").exists()

    def test_train_zero_trees_is_data_error(self, workspace, tmp_path, capsys):
        overrides = tmp_path / "overrides.txt"
        overrides.write_text("rf.n_trees = 0\n")
        assert main([
            "train", "--manifest", str(workspace / "train" / "manifest.txt"),
            "--config", str(overrides), "--model-out", str(tmp_path / "model.izm"),
        ]) == 2
        assert "n_trees must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "model.izm").exists()

    @pytest.mark.parametrize("backend, line, fragment", [
        ("sdae", "sdae.finetune_epochs = 0", "finetune_epochs"),
        ("sdae", "max_train_pixels = 1", "max_train_pixels"),
        ("rf", "pixels_per_seq = -5", "pixels_per_seq"),
        ("rf", "rf.n_trees = ten", "'rf.n_trees'"),
        ("rf", "rf.max_depth = 0", "'rf.max_depth'"),
        ("rf", "rf.min_leaf = 0", "'rf.min_leaf'"),
        ("sdae", "sdae.lr = -1", "'sdae.lr'"),
        # numbers as written: ASCII digits, and finite unsigned decimals
        ("sdae", "sdae.lr = inf", "'sdae.lr'"),
        ("sdae", "sdae.lr = 1e999", "'sdae.lr'"),
        ("sdae", "sdae.lr = 5_0e-3", "'sdae.lr'"),
        ("sdae", "sdae.corruption = \u0660.5", "'sdae.corruption'"),
        ("rf", "rf.n_trees = 1_0", "'rf.n_trees'"),
        ("rf", "rf.n_trees = +3", "'rf.n_trees'"),
        ("rf", "pixels_per_seq = \u0663", "'pixels_per_seq'"),
        ("sdae", "sdae.corruption = 1.0", "corruption must be in [0, 1)"),
        # a key of the other backend would have no effect
        ("rf", "sdae.lr = 0.5", "applies only to --backend sdae"),
        ("sdae", "rf.n_trees = 3", "applies only to --backend rf"),
    ])
    def test_train_bad_config_value_names_its_key(self, workspace, tmp_path, capsys,
                                                   monkeypatch, backend, line, fragment):
        # a bad value must fail before any sequence is preprocessed; an empty
        # cache makes every feature load preprocess
        def preprocess_sequence(seq):
            raise AssertionError("a sequence was preprocessed before the error")

        monkeypatch.setattr(pipeline, "_FEATURE_CACHE", {})
        monkeypatch.setattr(pipeline, "preprocess_sequence", preprocess_sequence)
        overrides = tmp_path / "overrides.txt"
        overrides.write_text(line + "\n")
        assert main([
            "train", "--manifest", str(workspace / "train" / "manifest.txt"),
            "--backend", backend, "--config", str(overrides),
            "--model-out", str(tmp_path / "model.izm"),
        ]) == 2
        err = capsys.readouterr().err
        assert f"config key {line.partition('=')[0].strip()!r}" in err
        assert fragment in err
        assert not (tmp_path / "model.izm").exists()

    @pytest.mark.parametrize("args, message", [
        (["--backends", ","], "backends must name at least one backend"),
        (["--backends", "svm"], "unknown backend 'svm'"),
        (["--n-test", "0"], "n_test must be >= 1"),
        (["--backends", "rf,rf"], "backends must not repeat, got rf,rf"),
    ], ids=["no-backend", "unknown-backend", "no-test-sequence", "repeated-backend"])
    def test_e2e_bad_setting_writes_nothing(self, tmp_path, capsys, args, message):
        out = tmp_path / "e2e"
        assert main(["e2e", "--out", str(out), *args]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_calibration_without_the_model_mode_is_data_error(self, workspace, tmp_path,
                                                               capsys):
        overrides = tmp_path / "overrides.txt"
        overrides.write_text("rf.n_trees = 2\nmax_train_pixels = 2000\n")
        model = tmp_path / "model.izm"
        assert main([
            "train", "--manifest", str(workspace / "train" / "manifest.txt"),
            "--config", str(overrides), "--model-out", str(model),
        ]) == 0
        off = tmp_path / "off"
        assert main(["gen", "--mode", "Off", "--n", "1", "--out", str(off),
                     "--width", "48", "--height", "36", "--frames", "10"]) == 0
        pred = tmp_path / "pred.pgm"
        assert main([
            "infer", "--model", str(model),
            "--in", str(workspace / "train" / "seq_0000.irts"),
            "--calib", str(off / "manifest.txt"), "--out-mask", str(pred),
        ]) == 2
        assert "manifest has no On-mode sequences" in capsys.readouterr().err
        assert not pred.exists()

    def test_infer_without_calibration_uses_neutral_threshold(self, workspace, tmp_path):
        overrides = tmp_path / "overrides.txt"
        overrides.write_text("rf.n_trees = 5\nmax_train_pixels = 3000\n")
        model = tmp_path / "model.izm"
        assert main([
            "train", "--manifest", str(workspace / "train" / "manifest.txt"),
            "--backend", "rf", "--config", str(overrides),
            "--seed", "17", "--model-out", str(model),
        ]) == 0
        pred = tmp_path / "pred.pgm"
        assert main([
            "infer", "--model", str(model),
            "--in", str(workspace / "train" / "seq_0001.irts"),
            "--out-mask", str(pred),
        ]) == 0
        io.read_mask(pred)

    @pytest.mark.parametrize("args, flag", [
        (["--alpha", "7"], "--alpha"),
        (["--beta", "0"], "--beta"),
        (["--alpha", "0", "--calib"], "--alpha"),
        (["--beta", "nan", "--calib"], "--beta"),
        (["--alpha", "0.0_5"], "--alpha"),
        (["--beta", "\u0660.05"], "--beta"),
        (["--alpha", "5e-2 "], "--alpha"),
    ], ids=["alpha-7", "beta-0", "alpha-0-calib", "beta-nan-calib", "alpha-underscore",
            "beta-arabic-indic-digit", "alpha-trailing-space"])
    def test_infer_bad_rate_names_its_flag(self, workspace, tmp_path, capsys, monkeypatch,
                                           args, flag):
        # the rates are checked before any sequence is preprocessed, with or
        # without calibration data; an empty cache makes every load preprocess
        def preprocess_sequence(seq):
            raise AssertionError("a sequence was preprocessed before the error")

        model = write_leaf_model(tmp_path / "leaf.izm")
        monkeypatch.setattr(pipeline, "_FEATURE_CACHE", {})
        monkeypatch.setattr(pipeline, "preprocess_sequence", preprocess_sequence)
        if args[-1] == "--calib":
            args = [*args, str(workspace / "train" / "manifest.txt")]
        pred = tmp_path / "pred.pgm"
        assert main([
            "infer", "--model", str(model),
            "--in", str(workspace / "train" / "seq_0001.irts"),
            "--out-mask", str(pred), *args,
        ]) == 2
        assert f"{flag} must be in (0, 1)" in capsys.readouterr().err
        assert not pred.exists()

    @pytest.mark.parametrize("command", ["train", "infer-calib"])
    def test_mask_of_another_size_than_its_sequence_is_data_error(self, workspace, tmp_path,
                                                                 capsys, command):
        # the manifest's first sequence is 80x48, its mask 96x72
        assert main(["gen", "--n", "1", "--out", str(tmp_path / "small"), "--width", "80",
                     "--height", "48", "--frames", "10", "--seed", "3"]) == 0
        small = tmp_path / "small" / "seq_0000.irts"
        lines = (workspace / "train" / "manifest.txt").read_text().splitlines()
        mask_path = lines[0].split("\t")[1]
        lines[0] = "\t".join([str(small), *lines[0].split("\t")[1:]])
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        if command == "train":
            args = ["train", "--manifest", str(manifest), "--model-out", str(out)]
        else:
            args = ["infer", "--model", str(write_leaf_model(tmp_path / "leaf.izm")),
                    "--in", str(workspace / "train" / "seq_0001.irts"),
                    "--calib", str(manifest), "--out-mask", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"mask {mask_path} is 96x72, but sequence {small} is 80x48" in err
        assert not out.exists()


class TestMismatchedInputs:
    """A mask that does not fit the sequence, the model or the other mask, or
    a sequence too short to register, is a data error naming its file, and
    infer reports a mask before calibrating."""

    @pytest.fixture
    def nothing_preprocessed(self, monkeypatch):
        # an empty cache makes every load preprocess
        def preprocess_sequence(seq):
            raise AssertionError("a sequence was preprocessed before the error")

        monkeypatch.setattr(pipeline, "_FEATURE_CACHE", {})
        monkeypatch.setattr(pipeline, "preprocess_sequence", preprocess_sequence)

    @staticmethod
    def write_mask(path, labels, mode=Mode.ON):
        io.write_mask(path, ZoneMask(labels, 250e-6), mode)
        return path

    def infer(self, workspace, tmp_path, model, zpr, calib=True):
        pred = tmp_path / "pred.pgm"
        args = ["infer", "--model", str(model), "--zpr", str(zpr), "--out-mask", str(pred),
                "--in", str(workspace / "train" / "seq_0001.irts")]
        if calib:
            args += ["--calib", str(workspace / "train" / "manifest.txt")]
        code = main(args)
        assert not pred.exists()
        return code

    def test_auto_zpr_with_a_two_layer_model_is_data_error(self, workspace, tmp_path, capsys,
                                                          nothing_preprocessed):
        model = write_leaf_model(tmp_path / "in.izm", Mode.IN)
        assert self.infer(workspace, tmp_path, model, "auto", calib=False) == 2
        assert "--zpr auto draws one tissue layer, but mode In has two" in capsys.readouterr().err

    def test_zpr_of_another_frame_size_is_reported_before_calibration(
            self, workspace, tmp_path, capsys, nothing_preprocessed):
        zpr = self.write_mask(tmp_path / "small.pgm", np.zeros((64, 80), dtype=np.uint8))
        model = write_leaf_model(tmp_path / "leaf.izm")
        assert self.infer(workspace, tmp_path, model, zpr) == 2
        seq = workspace / "train" / "seq_0001.irts"
        assert f"mask {zpr} is 80x64, but sequence {seq} is 96x72" in capsys.readouterr().err

    def test_zpr_of_another_mode_is_reported_before_calibration(
            self, workspace, tmp_path, capsys, nothing_preprocessed):
        labels = np.zeros((72, 96), dtype=np.uint8)
        labels[10:60, 10:50] = int(ZoneLabel.NA_BC)
        labels[20:30, 20:30] = int(ZoneLabel.HA_BC)
        zpr = self.write_mask(tmp_path / "in.pgm", labels, Mode.IN)
        model = write_leaf_model(tmp_path / "leaf.izm")
        assert self.infer(workspace, tmp_path, model, zpr) == 2
        assert (f"--zpr mask {zpr} has labels ['HA_BC', 'NA_BC'] illegal in mode On"
                in capsys.readouterr().err)

    def test_eval_of_masks_of_other_sizes_names_both(self, workspace, tmp_path, capsys):
        pred = self.write_mask(tmp_path / "pred.pgm", np.zeros((64, 80), dtype=np.uint8))
        ref = workspace / "train" / "mask_0000.pgm"
        assert main(["eval", "--pred", str(pred), "--ref", str(ref)]) == 2
        assert f"mask {pred} is 80x64, but mask {ref} is 96x72" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--ref", "--alg"])
    def test_render_with_a_mask_of_another_size_names_both(self, workspace, tmp_path, capsys,
                                                            flag):
        mask = self.write_mask(tmp_path / "small.pgm", np.zeros((64, 80), dtype=np.uint8))
        seq, out = workspace / "train" / "seq_0000.irts", tmp_path / "o.ppm"
        assert main(["render", "--seq", str(seq), flag, str(mask), "--out", str(out)]) == 2
        assert f"mask {mask} is 80x64, but sequence {seq} is 96x72" in capsys.readouterr().err
        assert not out.exists()

    def test_render_of_a_sequence_without_frames_is_data_error(self, tmp_path, capsys):
        seq, out = tmp_path / "empty.irts", tmp_path / "o.ppm"
        io.write_sequence(seq, io.ThermalSequence(np.zeros((0, 72, 96)), np.zeros(0), 0.5))
        assert main(["render", "--seq", str(seq), "--out", str(out)]) == 2
        assert f"sequence {seq} has no frames to render" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("h, w", [(0, 20), (20, 0)])
    def test_render_of_frames_without_pixels_is_data_error_naming_it(self, tmp_path, capsys,
                                                                     h, w):
        seq, out = tmp_path / "flat.irts", tmp_path / "o.ppm"
        seq.write_bytes(io.MAGIC + struct.pack("<HIIId", io.VERSION, w, h, 3, 0.5)
                        + np.arange(3.0).astype("<f8").tobytes())
        assert main(["render", "--seq", str(seq), "--out", str(out)]) == 2
        assert f"{seq}: frame size {w}x{h} is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_sequence_with_an_infinite_timestamp_is_data_error_naming_it(self, tmp_path,
                                                                         capsys):
        seq, out = tmp_path / "inf.irts", tmp_path / "out.pgm"
        io.write_sequence(seq, generate_phantom(small_config(), seed=1)[0])
        raw = bytearray(seq.read_bytes())
        last = len(raw) - 4 * 48 * 64 - 8  # the last frame's timestamp
        raw[last : last + 8] = struct.pack("<d", float("inf"))
        seq.write_bytes(bytes(raw))
        args = ["infer", "--model", str(write_leaf_model(tmp_path / "leaf.izm")),
                "--in", str(seq), "--out-mask", str(out)]
        assert main(args) == 2
        assert f"{seq}: non-finite timestamps" in capsys.readouterr().err
        assert not out.exists()

    def test_a_non_finite_feature_is_data_error_naming_the_sequence(self, workspace, tmp_path,
                                                                     capsys, monkeypatch):
        extract = pipeline.extract_features_batch

        def one_nan(*args):
            x = extract(*args)
            x[np.flatnonzero(x[:, -1] < 0.5)[0], 0] = np.nan  # a pixel the cascade reads
            return x

        monkeypatch.setattr(pipeline, "extract_features_batch", one_nan)
        seq, out = workspace / "train" / "seq_0001.irts", tmp_path / "out.pgm"
        args = ["infer", "--model", str(write_leaf_model(tmp_path / "leaf.izm")),
                "--in", str(seq), "--out-mask", str(out)]
        assert main(args) == 2
        assert (f"sequence {seq}: 1 pixels have a non-finite feature"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("frames", [0, 1])
    @pytest.mark.parametrize("command", ["preprocess", "infer", "train"])
    def test_sequence_too_short_to_register_is_data_error_naming_it(self, tmp_path, capsys,
                                                                    command, frames):
        seq = tmp_path / "short.irts"
        io.write_sequence(seq, io.ThermalSequence(np.full((frames, 72, 96), 30.0),
                                                  np.arange(float(frames)), 0.5))
        out = tmp_path / "out"
        if command == "preprocess":
            args = ["preprocess", "--in", str(seq), "--report", str(out)]
        elif command == "infer":
            args = ["infer", "--model", str(write_leaf_model(tmp_path / "leaf.izm")),
                    "--in", str(seq), "--out-mask", str(out)]
        else:
            mask = self.write_mask(tmp_path / "mask.pgm", np.zeros((72, 96), dtype=np.uint8))
            pipeline.write_manifest(tmp_path / "manifest.txt",
                                    [pipeline.ManifestEntry(str(seq), str(mask))])
            args = ["train", "--manifest", str(tmp_path / "manifest.txt"),
                    "--model-out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"sequence {seq}: need at least 2 frames to register" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("command, where", [
        ("preprocess", "here"), ("infer", "here"), ("train", "here"), ("train", "in-a-worker")])
    def test_frames_below_16x16_are_a_data_error_naming_the_sequence(
            self, workspace, tmp_path, capsys, monkeypatch, command, where):
        from irzone import forked

        seq = tmp_path / "tiny.irts"
        io.write_sequence(seq, io.ThermalSequence(np.full((5, 12, 12), 30.0), np.arange(5.0),
                                                  0.5))
        out = tmp_path / "out"
        if command == "preprocess":
            args = ["preprocess", "--in", str(seq), "--report", str(out)]
        elif command == "infer":
            args = ["infer", "--model", str(write_leaf_model(tmp_path / "leaf.izm")),
                    "--in", str(seq), "--out-mask", str(out)]
        else:  # a manifest whose other sequence is preprocessed first, in this process
            monkeypatch.setattr(pipeline, "_FEATURE_CACHE", {})
            monkeypatch.setattr(forked, "_cpu_count", lambda: 2)
            tiny = pipeline.ManifestEntry(
                str(seq), str(self.write_mask(tmp_path / "tiny.pgm", np.zeros((12, 12), np.uint8))))
            other = pipeline.ManifestEntry(str(workspace / "train" / "seq_0000.irts"),
                                           str(workspace / "train" / "mask_0000.pgm"))
            pipeline.write_manifest(tmp_path / "manifest.txt",
                                    [other, tiny] if where == "in-a-worker" else [tiny, other])
            args = ["train", "--manifest", str(tmp_path / "manifest.txt"),
                    "--model-out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"sequence {seq}: frames must be at least 16x16" in err, err
        assert not out.exists()
