"""Command-line surface. Exit codes: 0 success, 1 usage error, 2 data error."""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import evaluation
from . import io_formats as io
from .models.cascade import CascadeConfig
from .phantom import default_config_sampler
from .pipeline import (
    E2EConfig,
    auto_zpr,
    calibrate_thresholds,
    check_frame_size,
    infer_sequence,
    make_dataset,
    run_e2e,
    train_from_manifest,
)
from .postprocess import DecisionThresholds
from .preprocess import naming_sequence, register_sequence, remove_damaged_frames
from .zones import LEAF_LABELS, Mode


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def integer(text: str) -> int:
    """`text` as an int: ASCII digits only, no sign, `_`, space or other script's digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not an integer written in digits 0-9")
    return int(text)


def number(text: str) -> float:
    """`text` as a finite float: an unsigned decimal numeral (`io_formats._NUMERAL`)."""
    value = float(text) if io._NUMERAL.fullmatch(text) else math.nan
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite unsigned decimal number")
    return value


def _parse_mode_mix(text: str) -> dict[str, int]:
    mix = {}
    for part in text.split(","):
        name, _, count = part.partition("=")
        mode = Mode.parse(name).value
        if mode in mix:
            raise ValueError(f"--mode-mix names mode {mode} more than once")
        mix[mode] = integer(count)
    return mix


def _build_parser() -> _Parser:
    p = _Parser(prog="irzone", description="Zone identification for active IR-thermal sequences")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a labeled phantom dataset")
    size = g.add_mutually_exclusive_group()
    size.add_argument("--n", type=integer, default=None, help="number of sequences (single mode)")
    size.add_argument("--mode-mix", default=None, help="e.g. On=28,In=42,Off=1")
    g.add_argument("--mode", default=None, help="mode of every sequence (default On)")
    g.add_argument("--seed", type=integer, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--width", type=integer, default=320)
    g.add_argument("--height", type=integer, default=240)
    g.add_argument("--frames", type=integer, default=60)

    pp = sub.add_parser("preprocess", help="register one sequence and drop its damaged frames")
    pp.add_argument("--in", dest="input", required=True)
    pp.add_argument("--report", default=None, help="write the stage report here")

    t = sub.add_parser("train", help="train a cascade on a dataset manifest")
    t.add_argument("--manifest", required=True)
    t.add_argument("--backend", choices=("rf", "sdae"), default="rf")
    t.add_argument("--mode", default="On")
    t.add_argument("--config", default=None, help="key=value overrides file")
    t.add_argument("--seed", type=integer, default=0)
    t.add_argument("--model-out", required=True)

    i = sub.add_parser("infer", help="predict a zone mask for one sequence")
    i.add_argument("--model", required=True)
    i.add_argument("--in", dest="input", required=True)
    i.add_argument("--zpr", default="auto", help="a priori mask file or 'auto'")
    i.add_argument("--alpha", default="0.05")  # checked by _cmd_infer, a data error
    i.add_argument("--beta", default="0.05")
    i.add_argument("--calib", default=None, help="labeled manifest for threshold fitting")
    i.add_argument("--out-mask", required=True)
    i.add_argument("--out-probs", default=None)

    e = sub.add_parser("eval", help="compare predicted and reference masks")
    e.add_argument("--pred", required=True)
    e.add_argument("--ref", required=True)
    e.add_argument("--format", choices=("table", "kv"), default="table")

    r = sub.add_parser("render", help="overlay mask boundaries on a mean frame")
    r.add_argument("--seq", required=True)
    r.add_argument("--ref", default=None)
    r.add_argument("--alg", default=None)
    r.add_argument("--out", required=True)

    z = sub.add_parser("e2e", help="full pipeline on seeded phantoms, with report")
    z.add_argument("--seed", type=integer, default=0)
    z.add_argument("--out", required=True)
    z.add_argument("--n-train", type=integer, default=8)
    z.add_argument("--n-test", type=integer, default=4)
    z.add_argument("--backends", default="rf,sdae")
    return p


def _read_config_overrides(path) -> dict:
    out = {}
    for line in io.read_text(path, "config file").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = (part.strip() for part in line.partition("="))
        if key in out:
            raise io.FormatError(f"{path}: repeated config key {key!r}")
        out[key] = val
    return out


def _cmd_gen(args) -> int:
    if args.mode is not None and args.mode_mix is not None:
        raise _UsageError("argument --mode: not allowed with argument --mode-mix")
    mode = Mode.ON if args.mode is None else Mode.parse(args.mode)
    if args.mode_mix is not None:
        mix = _parse_mode_mix(args.mode_mix)
    else:
        mix = {mode.value: args.n if args.n is not None else 1}
    # make_dataset sets each sampled config's mode, so one sampler serves all
    sampler = default_config_sampler(
        mode, width=args.width, height=args.height, n_frames=args.frames
    )
    entries = make_dataset(args.out, mode_mix=mix, config_sampler=sampler,
                           seed=args.seed)
    print(f"wrote {len(entries)} sequences to {args.out}")
    return 0


def _cmd_preprocess(args) -> int:
    seq = io.read_sequence(args.input)
    with naming_sequence(args.input):
        registered, report = register_sequence(seq)
        _, report = remove_damaged_frames(registered, report)
    text = "\n".join(report.lines()) + "\n"
    if args.report:
        io._atomic_write(args.report, [text.encode()])
    else:
        sys.stdout.write(text)
    return 0


# `--config` keys: "rf.n_trees" sets CascadeConfig.rf.n_trees (--backend rf only)
# and so on; pixels_per_seq is train_from_manifest's max_pixels_per_seq
_CONFIG_KEYS = (
    "rf.n_trees", "rf.max_depth", "rf.min_leaf",
    "sdae.corruption", "sdae.lr", "sdae.finetune_epochs",
    "max_train_pixels", "pixels_per_seq",
)


def _override(obj, path: list[str], text: str):
    """Copy of dataclass `obj` with the field at `path` parsed from `text` as
    an integer or a number, as the value it replaces is."""
    old = getattr(obj, path[0])
    parse = integer if isinstance(old, int) else number
    new = _override(old, path[1:], text) if path[1:] else parse(text)
    return dataclasses.replace(obj, **{path[0]: new})


def _cmd_train(args) -> int:
    mode = Mode.parse(args.mode)
    overrides = _read_config_overrides(args.config) if args.config else {}
    config = CascadeConfig(backend=args.backend)
    kwargs = {}
    for key, text in overrides.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}; known: {', '.join(_CONFIG_KEYS)}")
        scope, dot, _ = key.partition(".")
        if dot and scope != args.backend:
            raise ValueError(f"config key {key!r} applies only to --backend {scope}")
        try:
            if key == "pixels_per_seq":
                kwargs["max_pixels_per_seq"] = integer(text)
            else:
                config = _override(config, key.split("."), text)
        except ValueError as e:
            raise ValueError(f"config key {key!r}: {e}") from None
    model = train_from_manifest(args.manifest, mode, config, seed=args.seed, **kwargs)
    io.write_model(args.model_out, model)
    print(f"wrote model to {args.model_out}")
    return 0


def _rate(flag: str, text: str) -> float:
    """The value of --alpha or --beta: a number in (0, 1)."""
    try:
        value = number(text)
    except ValueError:
        value = math.nan
    if not 0 < value < 1:
        raise ValueError(f"{flag} must be in (0, 1), got {text}")
    return value


def _cmd_infer(args) -> int:
    alpha, beta = _rate("--alpha", args.alpha), _rate("--beta", args.beta)
    model = io.load_cascade(args.model)
    seq = io.read_sequence(args.input)
    h, w = seq.frame_shape
    if args.zpr == "auto":
        z_pr = auto_zpr((h, w), seq.pixel_size, model.mode)
    else:  # checked against the sequence and the model before anything is calibrated
        z_pr, _ = io.read_mask(args.zpr)
        check_frame_size(args.zpr, z_pr, args.input, (h, w))
        model.mode.check_labels(z_pr.labels, f"--zpr mask {args.zpr} has labels")
    if args.calib:
        thresholds = calibrate_thresholds(model, args.calib, alpha, beta)
    else:
        # no calibration data: neutral threshold, no achieved-rate estimates
        thresholds = DecisionThresholds(alpha=alpha, beta=beta,
                                        theta_ha=0.5, achieved_alpha=0.0,
                                        achieved_beta=0.0)
    with naming_sequence(args.input):
        res = infer_sequence(model, seq, z_pr, thresholds)
    io.write_mask(args.out_mask, res.z_ps, model.mode)
    if args.out_probs:
        # leaf probability planes stored in the sequence container,
        # one plane per leaf label in LEAF_LABELS order
        planes = np.stack([res.prob_maps[l] for l in LEAF_LABELS]).astype(np.float32)
        probs_seq = io.ThermalSequence(planes, np.arange(len(LEAF_LABELS), dtype=float),
                                       seq.pixel_size)
        io.write_sequence(args.out_probs, probs_seq)
    print(f"wrote mask to {args.out_mask}")
    return 0


def _cmd_eval(args) -> int:
    pred, _ = io.read_mask(args.pred)
    ref, _ = io.read_mask(args.ref)
    check_frame_size(args.pred, pred, args.ref, ref.shape, other="mask")
    results = {"MODEL": [(Path(args.pred).stem, pred, ref)]}
    report = evaluation.report if args.format == "table" else evaluation.report_kv
    sys.stdout.write(report(results))
    return 0


def _cmd_render(args) -> int:
    seq = io.read_sequence(args.seq)
    if seq.n_frames == 0:
        raise ValueError(f"sequence {args.seq} has no frames to render")
    background = seq.data.mean(axis=0)
    masks = {path: io.read_mask(path)[0] for path in (args.ref, args.alg) if path}
    for path, mask in masks.items():
        check_frame_size(path, mask, args.seq, seq.frame_shape)
    img = io.render_overlay(background, masks.get(args.ref), masks.get(args.alg))
    io.write_ppm(args.out, img)
    print(f"wrote overlay to {args.out}")
    return 0


def _cmd_e2e(args) -> int:
    config = E2EConfig(
        n_train=args.n_train,
        n_test=args.n_test,
        backends=tuple(b.strip() for b in args.backends.split(",") if b.strip()),
    )
    out = run_e2e(args.out, seed=args.seed, config=config)
    sys.stdout.write(out["report"])
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "preprocess": _cmd_preprocess,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "render": _cmd_render,
    "e2e": _cmd_e2e,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as e:  # FormatError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
