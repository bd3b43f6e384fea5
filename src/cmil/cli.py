"""Command-line pipeline: gen-data, train, predict, explain, eval.

Exit codes are a stable contract: 0 ok, 2 configuration, 3 I/O or malformed
data, 4 numeric divergence, 5 shape mismatch.  Every artifact embeds the
resolved configuration and content hashes of its inputs; nothing depends on
wall-clock time, so identical seeds reproduce identical bytes.
"""

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .bagio import (_read_json, _sidecar, content_hash, dump_json, file_hash,
                    read_bag, read_concepts, read_split)
from .embed2d import MIN_POINTS
from .errors import (CmilError, ConfigError, DataValidationError, ShapeError,
                     TrainingDivergedError, config_from_dict)
from .evaluation import evaluate_split
from .explain import SCHEMA_VERSION, explain_slide
from .render import write_global_report, write_local_report
from .synthgen import SynthConfig, gen_dataset
from .trainer import MODES, TrainConfig, load_checkpoint, predict, save_checkpoint, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_SHAPE = 5
EXIT_CODES = ((ConfigError, EXIT_CONFIG), (TrainingDivergedError, EXIT_DIVERGED),
              (ShapeError, EXIT_SHAPE))


def _parse_set(pairs) -> dict:
    """--set key=value overrides; dotted keys nest (topk.K=10), values parse as JSON."""
    out: dict = {}
    for item in pairs or []:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        cursor = out
        parts = key.split(".")
        for depth, p in enumerate(parts[:-1], 1):
            cursor = cursor.setdefault(p, {})
            if not isinstance(cursor, dict):
                raise ConfigError(f"--set {key}: {'.'.join(parts[:depth])} was already set "
                                  "to a value that is not an object")
        cursor[parts[-1]] = value
    return out


def _deep_update(base: dict, extra: dict) -> dict:
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            _deep_update(base[k], v)
        else:
            base[k] = v
    return base


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


def _resolve(cls, args, *flags):
    """The config from --config's object, then each --set in order, then each named flag given."""
    doc = _deep_update(_load_config_file(args.config), _parse_set(args.set))
    doc.update({f: getattr(args, f) for f in flags if getattr(args, f) is not None})
    return config_from_dict(cls, doc)


def _config_hash(doc: dict) -> str:
    import hashlib

    raw = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()


def _dataset_files(data_dir: Path, split) -> list:
    return split.all_paths() + [data_dir / "concepts.ccpt", data_dir / "split.json"]


def _checked_dataset_hash(data_dir: Path, split) -> str:
    """The dataset's content hash; a directory holding gen-data's run.json must
    still hash to the dataset_hash recorded there."""
    data_hash = content_hash(_dataset_files(data_dir, split))
    run = data_dir / "run.json"
    if run.exists():
        recorded = _read_json(run).get("dataset_hash")
        if recorded != data_hash:
            raise DataValidationError(
                f"{run}: dataset_hash {recorded} does not match the files, which hash to "
                f"{data_hash}; the dataset changed after gen-data wrote it")
    return data_hash


# -- commands ----------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = _resolve(SynthConfig, args, "seed")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    split = gen_dataset(cfg, out)
    resolved = asdict(cfg)
    dump_json({
        "schema_version": SCHEMA_VERSION,
        "command": "gen-data",
        "config": resolved,
        "config_hash": _config_hash(resolved),
        "dataset_hash": content_hash(_dataset_files(out, split)),
    }, out / "run.json")
    n = cfg.num_bags
    print(f"wrote {n} bags to {out} "
          f"(train/val/test = {len(split.train)}/{len(split.val)}/{len(split.test)}, "
          f"D={cfg.D}, C={cfg.C})")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _resolve(TrainConfig, args, "seed", "epochs", "mode")
    out = Path(args.out)
    if _sidecar(out) == out:
        raise ConfigError(f"--out {out} would be overwritten by its own sidecar; "
                          f"name the checkpoint with another suffix, such as .cmck")

    data = Path(args.data)
    split = read_split(data / "split.json")
    data_hash = _checked_dataset_hash(data, split)
    concepts = read_concepts(data / "concepts.ccpt")

    try:
        model, log = train(split, concepts, cfg)
    except TrainingDivergedError as exc:
        last_good = "none" if exc.epoch in (None, 0) else str(exc.epoch - 1)
        print(f"error: training diverged at epoch {exc.epoch}: {exc} "
              f"(last good epoch: {last_good})", file=sys.stderr)
        return EXIT_DIVERGED

    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out, model, cfg, epoch=cfg.epochs - 1, data_hash=data_hash)

    log_path = out.with_suffix(".log.jsonl")
    with open(log_path, "w", encoding="utf-8") as f:
        header = {"command": "train", "config": asdict(cfg), "data_hash": data_hash,
                  "schema_version": SCHEMA_VERSION}
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for record in log:
            f.write(json.dumps(record, sort_keys=True) + "\n")

    final_auc = log[-1]["val_auc"]
    auc_text = "n/a" if final_auc is None else f"{final_auc:.4f}"
    print(f"trained {cfg.epochs} epochs (mode {cfg.mode}); final val AUC {auc_text}; "
          f"wrote {out} and {log_path}")
    return EXIT_OK


def _predict_one(args):
    model, cfg, header = load_checkpoint(args.ckpt)
    bag = read_bag(args.bag)
    pred = predict(bag, model)
    print(f"{pred.slide_id}\t{pred.prob:.6f}\t{pred.decision}")
    return model, cfg, bag, pred


def cmd_predict(args) -> int:
    model, cfg, bag, pred = _predict_one(args)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        dump_json({
            "schema_version": SCHEMA_VERSION,
            "command": "predict",
            "config": asdict(cfg),
            "inputs": {"checkpoint_sha256": file_hash(args.ckpt),
                       "bag_sha256": file_hash(args.bag)},
            "prediction": {
                "slide_id": pred.slide_id,
                "prob": pred.prob,
                "prob_concept": pred.prob_concept,
                "prob_image": pred.prob_image,
                "decision": pred.decision,
                "topk_indices": [int(i) for i in pred.hard_indices],
            },
        }, out / f"{pred.slide_id}.predict.json")
    return EXIT_OK


def cmd_explain(args) -> int:
    model, cfg, bag, pred = _predict_one(args)
    exp = explain_slide(bag, model, pred)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    json_path, svg_path = write_local_report(exp, out)
    print(f"wrote {json_path} and {svg_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    min_points = MIN_POINTS[args.projection]
    if args.seed < 0 or args.max_patch_points < min_points:
        raise ConfigError(f"--seed must be >= 0 and --max-patch-points >= {min_points} with "
                          f"--projection {args.projection}, got {args.seed} and {args.max_patch_points}")
    model, cfg, header = load_checkpoint(args.ckpt)
    data = Path(args.data)
    split = read_split(data / "split.json")
    data_hash = _checked_dataset_hash(data, split)
    paths = getattr(split, args.split)
    if not paths:
        raise DataValidationError(f"split {args.split!r} is empty")

    result, g, _ = evaluate_split(
        (read_bag(p) for p in paths), model, projection=args.projection, seed=args.seed,
        group_by=args.group_by, max_patch_points=args.max_patch_points)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "eval",
        "config": {
            "train": asdict(cfg),
            "split": args.split,
            "projection": args.projection,
            "seed": args.seed,
            "group_by": args.group_by,
            "max_patch_points": args.max_patch_points,
        },
        "inputs": {"checkpoint_sha256": file_hash(args.ckpt),
                   "dataset_hash": data_hash},
        "results": result.to_dict(),
    }
    dump_json(doc, out)
    # named after --out's stem, so evals into one directory keep their own reports
    report_dir = out.with_name(f"{out.stem}_global")
    report_dir.mkdir(exist_ok=True)
    write_global_report(g, report_dir)
    loc = "n/a" if result.localization_mean is None else f"{result.localization_mean:.4f}"
    print(f"eval[{args.split}] accuracy {result.accuracy:.4f}, AUC {result.auc:.4f}, "
          f"localization {loc}; wrote {out}")
    return EXIT_OK


# -- parser / entry ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmil",
        description="Concept-based MIL pipeline over bags of patch embeddings.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--config", help="SynthConfig JSON file")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--seed", type=int)
    g.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable; dotted keys nest)")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train on a generated dataset")
    t.add_argument("--data", required=True, help="dataset directory")
    t.add_argument("--config", help="TrainConfig JSON file")
    t.add_argument("--out", required=True, help="checkpoint path (.cmck)")
    t.add_argument("--seed", type=int)
    t.add_argument("--epochs", type=int)
    t.add_argument("--mode", choices=MODES)
    t.add_argument("--set", action="append", metavar="KEY=VALUE")
    t.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify one bag")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--bag", required=True)
    p.add_argument("--out", help="directory for the prediction JSON (optional)")
    p.set_defaults(func=cmd_predict)

    e = sub.add_parser("explain", help="classify one bag and write its report")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--bag", required=True)
    e.add_argument("--out", default=".", help="report directory (default: cwd)")
    e.set_defaults(func=cmd_explain)

    v = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    v.add_argument("--ckpt", required=True)
    v.add_argument("--data", required=True)
    v.add_argument("--out", required=True,
                   help="eval JSON path; the global report goes to <stem>_global/ beside it")
    v.add_argument("--split", choices=["train", "val", "test"], default="test")
    v.add_argument("--projection", choices=["pca", "tsne"], default="tsne")
    v.add_argument("--seed", type=int, default=0, help="projection seed")
    v.add_argument("--group-by", choices=["predicted", "truth"], default="predicted")
    v.add_argument("--max-patch-points", type=int, default=2000)
    v.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CmilError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # any other package error, and an OSError, is an I/O or data problem
        return next((code for kind, code in EXIT_CODES if isinstance(exc, kind)), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
