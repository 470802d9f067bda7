"""corpus-forge command line: one subcommand per pipeline stage plus `run`."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import alignment as align_mod
from . import bpe, dedup, embeddings, fluency, parallel, schedule, synth
from .config import ConfigValidationError, config_keys, load_section
from .documents import (
    DocumentFile,
    Extraction,
    canonicalize,
    corpus_stats,
    read_documents,
    write_documents,
    write_json,
)
from .filters import FilterConfig, filter_documents, write_drop_report
from .pipeline import PipelineConfig, StageError, run_pipeline, validate_config

log = logging.getLogger("corpus_forge")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_STAGE = 2


def _read_many(paths: list[str]):
    for path in paths:
        yield from read_documents(path)


def _require(args, attr: str, flag: str):
    value = getattr(args, attr, None)
    if value is None:
        raise ValueError(f"missing required {flag}")
    return value


def _seed(args) -> int:
    return 0 if args.seed is None else args.seed


def _section(cls, args):
    """Section `cls` from the flags given, whose dests are its field names."""
    keys = config_keys(cls)
    given = {k: v for k, v in vars(args).items() if k in keys}
    return load_section(cls, given, args.command, Path.cwd())


def _cmd_ingest(args) -> int:
    out = _require(args, "out", "--out")
    extraction = Extraction(args.extraction) if args.extraction else None
    docs = canonicalize(_read_many(args.inputs), args.dataset, args.language, extraction)
    n = write_documents(out, docs)
    print(f"ingested {n} documents -> {out}")
    return EXIT_OK


def _cmd_filter(args) -> int:
    out = _require(args, "out", "--out")
    cfg = _section(FilterConfig, args).with_wordlists()
    dropped = []
    kept_n = write_documents(out, filter_documents(_read_many(args.inputs), cfg, dropped))
    if args.report:
        write_drop_report(args.report, dropped)
    print(f"kept {kept_n}, dropped {len(dropped)} -> {out}")
    return EXIT_OK


def _cmd_fluency_train(args) -> int:
    out = _require(args, "out", "--out")
    cfg = _section(fluency.FluencyConfig, args)
    lm = fluency.train_ngram_lm(_read_many(args.inputs), order=cfg.order,
                                holdout_fraction=cfg.holdout_fraction, seed=_seed(args))
    fluency.write_model(lm, out)
    print(f"trained order-{lm.order} model, h_ref={lm.h_ref:.4f} nats/char -> {out}")
    return EXIT_OK


def _cmd_fluency_score(args) -> int:
    out = _require(args, "out", "--out")
    lm = fluency.read_model(args.model)
    dropped = []
    kept_n = write_documents(
        out, fluency.drop_disfluent(lm, _read_many(args.inputs), args.drop_below, dropped)
    )
    print(f"scored {kept_n + len(dropped)} documents, dropped {len(dropped)} -> {out}")
    return EXIT_OK


def _parse_dataset_args(entries: list[str]) -> list[tuple[str, Path]]:
    out = []
    for entry in entries:
        name, sep, path = entry.partition("=")
        if not sep:
            raise ValueError(f"--in expects name=path, got {entry!r}")
        out.append((name, Path(path)))
    return out


def _cmd_dedup_run(args) -> int:
    out = _require(args, "out", "--out")
    specs = _parse_dataset_args(args.inputs)
    cfg = replace(_section(dedup.DedupConfig, args), seed=_seed(args))
    skip = set(args.skip_intra or [])
    if args.stage == "cross":
        skip = {name for name, _ in specs}
    datasets = [(name, DocumentFile(path)) for name, path in specs]
    result = dedup.dedup_corpus(datasets, cfg, skip_intra=skip)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stages = ("intra", "cross") if args.stage == "both" else (args.stage,)
    dedup.write_dedup_outputs(lambda name: out_dir / name, result, stages)
    removed = result.removed_indices(("intra",) if args.stage == "intra" else ("intra", "cross"))
    write_documents(out_dir / "survivors.jsonl", dedup.kept_documents(datasets, removed))
    for st in stages:
        summary = result.reports[st].summary()
        print(f"{st}: input={summary['input']} removed={summary['removed']} "
              f"clusters={summary['clusters']}")
    return EXIT_OK


def _cmd_parallel_dedup(args) -> int:
    out = _require(args, "out", "--out")
    kept, report = parallel.dedup_parallel(parallel.read_pairs(args.inp))
    parallel.write_pairs(out, kept)
    print(json.dumps(report))
    return EXIT_OK


def _cmd_parallel_filter(args) -> int:
    out = _require(args, "out", "--out")
    cfg = _section(parallel.ParallelFilterConfig, args)
    pairs = list(parallel.read_pairs(args.inp))
    kept = parallel.threshold_filter(pairs, cfg)
    parallel.write_pairs(out, kept)
    print(f"kept {len(kept)} of {len(pairs)} pairs -> {out}")
    return EXIT_OK


def _cmd_tok_train(args) -> int:
    out = _require(args, "out", "--out")
    vocab = bpe.train_bpe(_read_many(args.inputs), args.target)
    bpe.save_vocab(vocab, out)
    print(f"{len(vocab.merges)} merges, vocab size {len(vocab.tokens)} -> {out}")
    return EXIT_OK


def _cmd_tok_extend(args) -> int:
    out = _require(args, "out", "--out")
    base = bpe.load_vocab(args.base)
    learned = bpe.load_vocab(args.learned)
    if isinstance(base, bpe.ExtendedVocab) or isinstance(learned, bpe.ExtendedVocab):
        raise ValueError("tok extend expects two base vocabularies")
    ext = bpe.extend_vocab(base, learned)
    bpe.save_vocab(ext, out)
    print(f"base {len(base.tokens)} + {len(ext.added_tokens)} added = {ext.total_size} -> {out}")
    return EXIT_OK


def _cmd_tok_encode(args) -> int:
    vocab = bpe.load_vocab(args.vocab)
    if args.text is not None:
        ids = vocab.encode(args.text)
        print(" ".join(map(str, ids)))
    else:
        for doc in _read_many(args.inputs):
            print(" ".join(map(str, vocab.encode(doc.text))))
    return EXIT_OK


def _cmd_tok_fertility(args) -> int:
    vocab = bpe.load_vocab(args.vocab)
    (tokens,), words = bpe.fertility_counts([vocab], _read_many(args.inputs))
    fertility = bpe.tokens_per_word(tokens, words)
    print(f"tokens={tokens} words={words} fertility={fertility:.6f}")
    return EXIT_OK


def _cmd_embed_init(args) -> int:
    out = _require(args, "out", "--out")
    base = embeddings.read_matrix(args.base_matrix)
    base_vocab = bpe.load_vocab(args.base_vocab)
    ext = bpe.load_vocab(args.ext_vocab)
    if not isinstance(ext, bpe.ExtendedVocab):
        raise ValueError("--ext-vocab must be an extended vocabulary file")
    if isinstance(base_vocab, bpe.ExtendedVocab):
        raise ValueError("--base-vocab must be a base vocabulary file")
    grown = embeddings.init_new_embeddings(base, base_vocab, ext)
    embeddings.write_matrix(grown, out)
    print(f"{base.rows} -> {grown.rows} rows -> {out}")
    return EXIT_OK


def _cmd_embed_pad(args) -> int:
    out = _require(args, "out", "--out")
    multiple = _section(embeddings.EmbeddingConfig, args).pad_multiple
    matrix = embeddings.read_matrix(args.inp)
    padded = embeddings.pad_to_multiple(matrix, multiple)
    embeddings.write_matrix(padded, out)
    print(f"{matrix.rows} -> {padded.rows} rows (multiple of {multiple}) -> {out}")
    return EXIT_OK


def _cmd_embed_info(args) -> int:
    print(json.dumps(embeddings.matrix_info(embeddings.read_matrix(args.inp)), indent=2))
    return EXIT_OK


def _cmd_plan_show(args) -> int:
    for name, plan in schedule.builtin_plans().items():
        desc = schedule.plan_descriptor(plan)
        sched = plan.schedule
        desc["lr_examples"] = {
            "step_0": schedule.lr_at(0, sched),
            f"step_{sched.warmup_steps}": schedule.lr_at(sched.warmup_steps, sched),
            f"step_{sched.total_steps}": schedule.lr_at(sched.total_steps, sched),
        }
        print(json.dumps({name: desc}, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_plan_export(args) -> int:
    plans = schedule.builtin_plans()
    plan = plans[f"stage{args.stage}"]
    out_csv = args.out_csv or f"stage{args.stage}.csv"
    out_json = args.out_json or f"stage{args.stage}.json"
    schedule.export_plan_csv(plan, out_csv)
    schedule.export_plan_json(plan, out_json)
    print(f"exported {plan.name} -> {out_csv}, {out_json}")
    return EXIT_OK


def _cmd_align_curate(args) -> int:
    out = _require(args, "out", "--out")
    cfg = _section(align_mod.AlignmentConfig, args)
    examples = align_mod.read_preferences(args.inp)
    kept, report = align_mod.curate_preferences(
        examples, min_rating=cfg.min_rating, max_foreign_ratio=cfg.max_foreign_ratio
    )
    if args.system_messages:
        pool = align_mod.load_system_messages(args.system_messages)
        kept = [align_mod.assign_system_message(ex, pool, seed=_seed(args)) for ex in kept]
    align_mod.write_preferences(out, kept)
    print(json.dumps(report, ensure_ascii=False))
    return EXIT_OK


def _cmd_align_render(args) -> int:
    out = _require(args, "out", "--out")
    examples = align_mod.read_preferences(args.inp)
    if args.system_messages:
        pool = align_mod.load_system_messages(args.system_messages)
        examples = [align_mod.assign_system_message(ex, pool, seed=_seed(args)) for ex in examples]
    n = align_mod.write_rendered(out, examples)
    print(f"rendered {n} examples -> {out}")
    return EXIT_OK


def _cmd_align_orpo_check(args) -> int:
    worst = align_mod.orpo_gradient_error(args.trials, seed=_seed(args))
    ok = worst < 1e-5
    print(f"gradient self-test over {args.trials} instances: max relative error "
          f"{worst:.2e} -> {'OK' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_STAGE


def _cmd_stats(args) -> int:
    vocab = bpe.load_vocab(args.vocab)
    stats = corpus_stats(_read_many(args.inputs), vocab)
    print(stats.formatted())
    out = getattr(args, "out", None)
    if out:
        write_json(out, stats.as_dict())
    return EXIT_OK


def _cmd_synth(args) -> int:
    out = _require(args, "out", "--out")
    config_path = synth.write_demo_corpus(out, n_docs=args.docs, seed=42 if args.seed is None else args.seed)
    print(f"demo corpus + config -> {config_path}")
    return EXIT_OK


def _cmd_run(args) -> int:
    overrides = {k: getattr(args, k) for k in ("seed", "threads")
                 if getattr(args, k, None) is not None}
    if getattr(args, "out", None) is not None:
        overrides["output_dir"] = str(Path(args.out).resolve())
    cfg = PipelineConfig.load(_require(args, "config", "--config"), overrides)
    if args.validate_only:
        issues = validate_config(cfg)
        for issue in issues:
            print(f"{issue.level}: {issue.message}")
        errors = [i for i in issues if i.level == "error"]
        print(f"{len(errors)} error(s), {len(issues) - len(errors)} warning(s)")
        return EXIT_VALIDATION if errors else EXIT_OK
    report = run_pipeline(cfg)
    for stage in report.stages:
        print(f"{stage.name:<10} input={stage.input:<8} kept={stage.kept:<8} "
              f"dropped={stage.dropped}")
    print(f"run report -> {cfg.output_dir / 'run_report.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corpus-forge",
        description="Corpus preparation and LLM-adaptation toolkit",
    )
    parser.add_argument("--config", default=None, help="pipeline config (for run)")
    parser.add_argument("--seed", type=int, default=None,
                        help="global random seed (default 0; run: config value)")
    parser.add_argument("--threads", type=int, default=None,
                        help="thread count (run: config value; currently has no effect)")
    parser.add_argument("--out", default=None, help="output file or directory")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="canonicalize raw JSONL documents")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--dataset", default="")
    p.add_argument("--language", default="")
    p.add_argument("--extraction", choices=[e.value for e in Extraction], default=None)
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_ingest)

    # A flag that sets a config field stays unset unless given: see _section.
    no_default = {"argument_default": argparse.SUPPRESS}
    p = sub.add_parser("filter", help="apply quality filters", **no_default)
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--out")
    p.add_argument("--report", default=None)
    p.add_argument("--min-chars", type=int)
    p.add_argument("--min-words", type=int)
    p.add_argument("--max-word-len", type=int)
    p.add_argument("--bad-word-threshold", type=int)
    p.add_argument("--bad-words", dest="bad_words_path")
    p.add_argument("--url-blacklist", dest="url_blacklist_path")
    p.add_argument("--fluency-threshold", type=float)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("fluency", help="fluency model training and scoring")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    pt = fsub.add_parser("train", **no_default)
    pt.add_argument("--in", dest="inputs", nargs="+", required=True)
    pt.add_argument("--out")
    pt.add_argument("--order", type=int)
    pt.add_argument("--holdout", dest="holdout_fraction", type=float)
    pt.set_defaults(func=_cmd_fluency_train)
    ps = fsub.add_parser("score")
    ps.add_argument("--model", required=True)
    ps.add_argument("--in", dest="inputs", nargs="+", required=True)
    ps.add_argument("--out", default=argparse.SUPPRESS)
    ps.add_argument("--drop-below", type=float, default=None)
    ps.set_defaults(func=_cmd_fluency_score)

    p = sub.add_parser("dedup", help="MinHashLSH near-deduplication")
    dsub = p.add_subparsers(dest="subcommand", required=True)
    pr = dsub.add_parser("run", **no_default)
    pr.add_argument("--in", dest="inputs", nargs="+", required=True,
                    metavar="NAME=PATH")
    pr.add_argument("--stage", choices=["intra", "cross", "both"], default="both")
    pr.add_argument("--out")
    pr.add_argument("--shingle-n", type=int)
    pr.add_argument("--num-perm", type=int)
    pr.add_argument("--threshold", dest="jaccard_threshold", type=float)
    pr.add_argument("--verify", dest="verify_candidates", action="store_true")
    pr.add_argument("--skip-intra", nargs="*", default=None,
                    help="dataset names to exempt from stage 1")
    pr.set_defaults(func=_cmd_dedup_run)

    p = sub.add_parser("parallel", help="bitext filtering and deduplication")
    psub = p.add_subparsers(dest="subcommand", required=True)
    pd = psub.add_parser("dedup")
    pd.add_argument("--in", dest="inp", required=True)
    pd.add_argument("--out", default=argparse.SUPPRESS)
    pd.set_defaults(func=_cmd_parallel_dedup)
    pf = psub.add_parser("filter", **no_default)
    pf.add_argument("--in", dest="inp", required=True)
    pf.add_argument("--out")
    pf.add_argument("--margin-threshold", type=float)
    pf.add_argument("--classifier-threshold", type=float)
    pf.add_argument("--require-scores", action="store_true")
    pf.set_defaults(func=_cmd_parallel_filter)

    p = sub.add_parser("tok", help="BPE vocabulary tools")
    tsub = p.add_subparsers(dest="subcommand", required=True)
    tt = tsub.add_parser("train")
    tt.add_argument("--in", dest="inputs", nargs="+", required=True)
    tt.add_argument("--target", type=int, required=True)
    tt.add_argument("--out", default=argparse.SUPPRESS)
    tt.set_defaults(func=_cmd_tok_train)
    tx = tsub.add_parser("extend")
    tx.add_argument("--base", required=True)
    tx.add_argument("--learned", required=True)
    tx.add_argument("--out", default=argparse.SUPPRESS)
    tx.set_defaults(func=_cmd_tok_extend)
    te = tsub.add_parser("encode")
    te.add_argument("--vocab", required=True)
    te.add_argument("--text", default=None)
    te.add_argument("--in", dest="inputs", nargs="*", default=[])
    te.set_defaults(func=_cmd_tok_encode)
    tf = tsub.add_parser("fertility")
    tf.add_argument("--vocab", required=True)
    tf.add_argument("--in", dest="inputs", nargs="+", required=True)
    tf.set_defaults(func=_cmd_tok_fertility)

    p = sub.add_parser("embed", help="embedding matrix surgery")
    esub = p.add_subparsers(dest="subcommand", required=True)
    ei = esub.add_parser("init")
    ei.add_argument("--base-matrix", required=True)
    ei.add_argument("--base-vocab", required=True)
    ei.add_argument("--ext-vocab", required=True)
    ei.add_argument("--out", default=argparse.SUPPRESS)
    ei.set_defaults(func=_cmd_embed_init)
    ep = esub.add_parser("pad", **no_default)
    ep.add_argument("--in", dest="inp", required=True)
    ep.add_argument("--out")
    ep.add_argument("--multiple", dest="pad_multiple", type=int)
    ep.set_defaults(func=_cmd_embed_pad)
    en = esub.add_parser("info")
    en.add_argument("--in", dest="inp", required=True)
    en.set_defaults(func=_cmd_embed_info)

    p = sub.add_parser("plan", help="training-plan export")
    plsub = p.add_subparsers(dest="subcommand", required=True)
    pls = plsub.add_parser("show")
    pls.set_defaults(func=_cmd_plan_show)
    ple = plsub.add_parser("export")
    ple.add_argument("--stage", type=int, choices=[1, 2], required=True)
    ple.add_argument("--out-csv", default=None)
    ple.add_argument("--out-json", default=None)
    ple.set_defaults(func=_cmd_plan_export)

    p = sub.add_parser("align", help="preference data preparation")
    asub = p.add_subparsers(dest="subcommand", required=True)
    ac = asub.add_parser("curate", **no_default)
    ac.add_argument("--in", dest="inp", required=True)
    ac.add_argument("--out")
    ac.add_argument("--min-rating", type=float)
    ac.add_argument("--max-foreign-ratio", type=float)
    ac.add_argument("--system-messages", default=None)
    ac.set_defaults(func=_cmd_align_curate)
    ar = asub.add_parser("render")
    ar.add_argument("--in", dest="inp", required=True)
    ar.add_argument("--out", default=argparse.SUPPRESS)
    ar.add_argument("--system-messages", default=None)
    ar.set_defaults(func=_cmd_align_render)
    ao = asub.add_parser("orpo-check")
    ao.add_argument("--trials", type=int, default=100)
    ao.set_defaults(func=_cmd_align_orpo_check)

    p = sub.add_parser("stats", help="per-dataset token accounting")
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("synth", help="write a synthetic demo corpus + config")
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.add_argument("--docs", type=int, default=2000)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="run the configured pipeline")
    p.add_argument("--config", default=argparse.SUPPRESS)
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="override the config seed")
    p.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                   help="override the config thread count (currently has no effect)")
    p.add_argument("--validate-only", action="store_true")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except ConfigValidationError as exc:
        for issue in exc.issues:
            print(f"error: {issue.message}", file=sys.stderr)
        return EXIT_VALIDATION
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
