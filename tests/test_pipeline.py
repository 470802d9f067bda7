import importlib.util
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from corpus_forge import bpe, dedup, embeddings, pipeline
from corpus_forge.cli import main
from corpus_forge.documents import Document, Extraction, read_documents, write_documents
from corpus_forge.fluency import read_model, score_documents, train_ngram_lm, write_model
from corpus_forge.pipeline import (
    STAGE_NAMES,
    ConfigValidationError,
    PipelineConfig,
    StageError,
    _greek_datasets,
    _input_path,
    run_pipeline,
    validate_config,
)


def _load(demo_dir):
    return PipelineConfig.load(demo_dir / "config.json")


def _tree(root):
    """Relative path -> bytes of every file under root except run_report.json."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "run_report.json"
    }


def _errors(cfg):
    return [i.message for i in validate_config(cfg) if i.level == "error"]


def _config_file(demo_dir, tmp_path, **sections):
    """The demo config with `sections` merged into its JSON, written beside
    the demo data so its relative paths still resolve."""
    config = json.loads((demo_dir / "config.json").read_text())
    for key, value in sections.items():
        config[key] = {**config[key], **value} if isinstance(value, dict) else value
    path = demo_dir / f"{tmp_path.name}.json"
    path.write_text(json.dumps(config))
    return path


def _load_errors(path):
    """Error messages of loading and then validating the config at `path`."""
    try:
        return _errors(PipelineConfig.load(path))
    except ConfigValidationError as exc:
        return [i.message for i in exc.issues]


def test_demo_config_validates_clean(demo_dir):
    cfg = _load(demo_dir)
    issues = validate_config(cfg)
    assert [i for i in issues if i.level == "error"] == []


def test_banding_invariant_produces_error(demo_dir, tmp_path):
    path = _config_file(demo_dir, tmp_path, dedup={"bands": 16, "rows": 9, "num_perm": 128})
    assert any("16*9" in m for m in _load_errors(path))


def test_banding_overflow_is_reported_once(demo_dir, tmp_path):
    path = _config_file(demo_dir, tmp_path, dedup={"bands": 20, "rows": 13, "num_perm": 128})
    errors = _load_errors(path)
    assert len(errors) == 1 and "20*13" in errors[0]


def test_missing_bad_words_file_is_error(demo_dir, tmp_path):
    missing = demo_dir / "missing.txt"
    path = _config_file(demo_dir, tmp_path, filters={"bad_words_path": str(missing)})
    assert _load_errors(path) == [f"filters.bad_words_path: missing file {missing}"]


def test_empty_dataset_list_is_error(demo_dir):
    cfg = _load(demo_dir)
    cfg.datasets = []
    issues = validate_config(cfg)
    assert any("empty input dataset list" in i.message for i in issues)


def test_unknown_stage_is_error(demo_dir):
    cfg = _load(demo_dir)
    cfg.stages = ["ingest", "teleport"]
    issues = validate_config(cfg)
    assert any("unknown stage" in i.message for i in issues)


def test_run_aborts_on_validation_error(demo_dir, tmp_path):
    cfg = _load(demo_dir)
    cfg.datasets = []
    cfg.output_dir = tmp_path / "never"
    with pytest.raises(ConfigValidationError):
        run_pipeline(cfg)
    assert not (tmp_path / "never").exists()


# One case per config section: (section, a misspelled key, the key meant,
# {key: a value that fails}).
SECTION_CASES = [
    ("filters", "min_char", "min_chars", {"min_chars": -1}),
    ("fluency", "ordr", "order", {"order": 1}),
    ("dedup", "num_perms", "num_perm", {"jaccard_threshold": 1.5}),
    ("parallel", "margin", "margin_threshold", {"order": "sideways"}),
    ("tokenizer", "new_target_tokenz", "new_target_tokens", {"fertility_sample_docs": "5"}),
    ("embedding", "dim", "dims", {"pad_multiple": 0}),
    ("alignment", "min_ratings", "min_rating", {"min_rating": "5"}),
    ("stats", "sample_evry", "sample_every", {"sample_every": 0}),
    ("datasets[0]", "extracton", "extraction", {"extraction": "scan"}),
    ("top level", "thredas", "threads", {"threads": 0}),
]
SECTION_IDS = [case[0] for case in SECTION_CASES]


def _with(demo_dir, section, values):
    """The sections argument of _config_file that merges `values` into `section`."""
    config = json.loads((demo_dir / "config.json").read_text())
    if section == "top level":
        return values
    if section == "datasets[0]":
        return {"datasets": [{**config["datasets"][0], **values}, *config["datasets"][1:]]}
    return {section: values}


@pytest.mark.parametrize("section,typo,meant,_", SECTION_CASES, ids=SECTION_IDS)
def test_misspelled_key_is_one_error(demo_dir, tmp_path, section, typo, meant, _):
    errors = _load_errors(_config_file(demo_dir, tmp_path, **_with(demo_dir, section, {typo: 1})))
    assert len(errors) == 1, errors
    assert errors[0].startswith(f"{section}: unknown key {typo!r}; valid keys: ")
    assert meant in errors[0].split("valid keys: ")[1].split(", ")


@pytest.mark.parametrize("section,_,__,values", SECTION_CASES, ids=SECTION_IDS)
def test_bad_value_fails_before_any_stage(demo_dir, tmp_path, capsys, section, _, __, values):
    path = _config_file(demo_dir, tmp_path, **_with(demo_dir, section, values))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    (key,) = values
    assert f"error: {section}" in err and key in err, err
    assert not out.exists()


def test_head_typos_are_rejected_by_validate_only(demo_dir, tmp_path, capsys):
    path = _config_file(demo_dir, tmp_path, dedup={"num_perms": 64},
                        tokenizer={"new_target_tokenz": 5}, thredas=2)
    assert main(["run", "--config", str(path), "--validate-only"]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 3
    for section, key, valid in (("top level", "thredas", "threads"),
                                ("dedup", "num_perms", "num_perm"),
                                ("tokenizer", "new_target_tokenz", "new_target_tokens")):
        (line,) = [e for e in errors if repr(key) in e]
        assert line.startswith(f"error: {section}: unknown key {key!r}; valid keys: ")
        assert valid in line.split("valid keys: ")[1].split(", ")


@pytest.mark.parametrize("change,expected", [
    ({"datasets": [{"path": "el_web.jsonl"}]}, "datasets[0]: missing key 'name'"),
    ({"filters": None}, "filters: expected object, got null"),
    ({"filters": {"max_word_len": "60"}},
     "filters.max_word_len: expected integer or null, got string '60'"),
    ({"datasets": [{"name": "el_web", "path": "el_web.jsonl", "extracton": "pdf"}]},
     "datasets[0]: unknown key 'extracton'"),
    ({"stages": "dedup"}, "stages: expected array, got string 'dedup'"),
    # Stages write <name>.jsonl, so a name must not leave or hide in their directory.
    *(({"datasets": [{"name": name, "path": "el_web.jsonl"}]},
       f"datasets[0]: dataset name {name!r} is not a plain file name")
      for name in ("", ".", "..", "../escaped", "a/b", "a\0b")),
], ids=["no-name", "null-section", "string-int", "misspelled-dataset-key", "string-stages",
        "empty-name", "dot-name", "dot-dot-name", "escaping-name", "slash-name", "nul-name"])
def test_malformed_config_exits_1_with_one_error_line(demo_dir, tmp_path, capsys, change,
                                                      expected):
    path = _config_file(demo_dir, tmp_path, **change)
    assert main(["run", "--config", str(path), "--validate-only"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err + captured.out
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {expected}"), errors


def test_benchmark_and_synth_configs_load_clean(demo_dir, tmp_path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    paths = [demo_dir / "config.json"]
    for workload in ("pipeline_20k", "boilerplate_dedup", "greek_tokenize"):
        paths.append(gen.generate(workload, 1, tmp_path / workload, n_docs=50)["config"])
    for path in paths:
        assert _errors(PipelineConfig.load(path)) == [], path


def test_traced_benchmark_run_fills_every_layer(demo_dir, tmp_path):
    # perfbench/child.py --trace wraps the functions perfbench/layers.py
    # names; a renamed one, or one its stage no longer calls, reads null.
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_layers", bench / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    config = _config_file(demo_dir, tmp_path, output_dir=str(tmp_path / "out"))
    result = tmp_path / "result.json"
    subprocess.run([sys.executable, str(bench / "child.py"), str(result), str(config), "--trace"],
                   check=True, capture_output=True)
    traced = json.loads(result.read_text())
    assert traced["rc"] == 0 and traced["gone"] == []
    metrics = layers.layer_metrics(traced["layers"], list(STAGE_NAMES), fluency_trains=True)
    assert [m for m, v in metrics.items() if v["value"] is None] == []
    json.dumps(metrics, allow_nan=False)


def test_cli_section_flags_default_to_the_dataclass(tmp_path, capsys):
    from corpus_forge.embeddings import EmbeddingConfig, EmbeddingMatrix, read_matrix
    import numpy as np

    matrix = tmp_path / "m.emb"
    embeddings.write_matrix(EmbeddingMatrix(data=np.ones((3, 2), dtype=np.float32)), matrix)
    assert main(["embed", "pad", "--in", str(matrix), "--out", str(tmp_path / "p.emb")]) == 0
    assert read_matrix(tmp_path / "p.emb").rows == EmbeddingConfig().pad_multiple
    assert main(["embed", "pad", "--in", str(matrix), "--out", str(tmp_path / "q.emb"),
                 "--multiple", "0"]) == 1
    assert "error: embed: pad_multiple must be positive" in capsys.readouterr().err


@pytest.fixture(scope="module")
def demo_run(demo_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = _load(demo_dir)
    cfg.output_dir = out
    report = run_pipeline(cfg)
    return cfg, report, out


def test_every_stage_keeps_documents(demo_run):
    _, report, _ = demo_run
    assert [s.name for s in report.stages] == [
        "ingest", "filter", "fluency", "dedup", "parallel",
        "tokenizer", "embedding", "plan", "alignment", "stats",
    ]
    for stage in report.stages:
        assert stage.kept > 0, f"stage {stage.name} kept nothing"


def test_stage_conservation(demo_run):
    _, report, _ = demo_run
    for stage in report.stages:
        assert stage.input == stage.kept + stage.dropped


def test_stage_outputs_exist(demo_run):
    _, report, out = demo_run
    for stage in report.stages:
        for rel in stage.outputs:
            target = out / rel
            assert target.exists()
            assert not target.name.endswith(".partial")


def test_dedup_writes_cluster_reports_summary_and_survivors(demo_run):
    cfg, _, out = demo_run
    expected = {"clusters_intra.jsonl", "clusters_cross.jsonl", "summary.json"}
    expected |= {f"{ds.name}.jsonl" for ds in cfg.datasets}
    assert {p.name for p in (out / "dedup").iterdir()} == expected


def test_run_report_written(demo_run):
    _, report, out = demo_run
    payload = json.loads((out / "run_report.json").read_text())
    assert payload["seed"] == 42
    assert len(payload["stages"]) == len(report.stages)


def test_filter_drop_report_schema(demo_run):
    _, _, out = demo_run
    lines = (out / "filter" / "drop_report.jsonl").read_text().splitlines()
    assert lines
    for line in lines[:20]:
        record = json.loads(line)
        assert set(record) == {"id", "reasons"}
        assert record["reasons"]


def test_dedup_summary_counts(demo_run):
    _, report, out = demo_run
    summary = json.loads((out / "dedup" / "summary.json").read_text())
    dedup_stage = next(s for s in report.stages if s.name == "dedup")
    assert summary["intra"]["input"] == dedup_stage.input
    assert summary["cross"]["kept"] == dedup_stage.kept
    assert summary["intra"]["removed"] > 0
    assert summary["cross"]["removed"] > 0


def test_stage_failure_leaves_partials(demo_dir, tmp_path):
    # Valid at validation time, deleted before the stage runs.
    doomed = tmp_path / "pairs.jsonl"
    shutil.copy(demo_dir / "parallel.jsonl", doomed)
    cfg = PipelineConfig.load(_config_file(
        demo_dir, tmp_path, parallel={"path": str(doomed)},
        stages=["ingest", "filter", "fluency", "dedup", "parallel"]))
    cfg.output_dir = tmp_path / "broken"
    doomed_unlink = doomed.unlink

    import corpus_forge.pipeline as pl

    original = pl._stage_parallel

    def exploding(cfg_, out):
        doomed_unlink()
        return original(cfg_, out)

    pl._STAGE_FUNCS["parallel"] = exploding
    try:
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "parallel"
    finally:
        pl._STAGE_FUNCS["parallel"] = original
    assert (cfg.output_dir / "dedup" / "summary.json").exists()  # prior stages intact


def test_rerun_stage_from_persisted_inputs(demo_dir, tmp_path):
    # Rerunning the same config into a fresh directory reproduces the files,
    # and a second full run over the same inputs is byte-identical.
    cfg1 = _load(demo_dir)
    cfg1.output_dir = tmp_path / "r1"
    cfg1.stages = ["ingest", "filter"]
    run_pipeline(cfg1)
    cfg2 = _load(demo_dir)
    cfg2.output_dir = tmp_path / "r2"
    cfg2.stages = ["ingest", "filter"]
    run_pipeline(cfg2)
    for rel in ("ingest/el_web.jsonl", "filter/el_web.jsonl", "filter/drop_report.jsonl"):
        assert (tmp_path / "r1" / rel).read_bytes() == (tmp_path / "r2" / rel).read_bytes()


def test_every_stage_reruns_alone(demo_dir, demo_run, tmp_path):
    # Delete one stage's directory from a finished tree and rerun that stage
    # alone: it reads its inputs from disk and restores the tree byte for byte.
    _, _, full = demo_run
    expected = _tree(full)
    tree = tmp_path / "tree"
    shutil.copytree(full, tree)
    cfg = _load(demo_dir)
    cfg.output_dir = tree
    for stage in STAGE_NAMES:
        shutil.rmtree(tree / stage)
        cfg.stages = [stage]
        report = run_pipeline(cfg)
        assert [s.name for s in report.stages] == [stage]
        assert _tree(tree) == expected, f"rerun of {stage} changed the tree"


def test_reruns_validate_only_the_files_their_stages_read(demo_dir, demo_run, tmp_path):
    # The word list and base matrix are gone: a stats or dedup rerun on a
    # finished tree never opens them and restores its directory byte for
    # byte; a filter rerun names the word list it would read.
    _, _, full = demo_run
    expected = _tree(full)
    tree = tmp_path / "tree"
    shutil.copytree(full, tree)
    cfg = PipelineConfig.load(_config_file(
        demo_dir, tmp_path, filters={"bad_words_path": str(tmp_path / "gone.txt")},
        embedding={"base_matrix_path": str(tmp_path / "gone.emb")}))
    cfg.output_dir = tree
    for stage in ("stats", "dedup"):
        shutil.rmtree(tree / stage)
        cfg.stages = [stage]
        assert validate_config(cfg) == []
        run_pipeline(cfg)
        assert _tree(tree) == expected, f"rerun of {stage} changed the tree"
    cfg.stages = ["filter"]
    assert _errors(cfg) == [f"filters.bad_words_path: missing file {tmp_path / 'gone.txt'}"]


def test_embedding_reads_only_the_extended_vocabulary(demo_dir, demo_run, tmp_path):
    _, _, full = demo_run
    tree = tmp_path / "tree"
    shutil.copytree(full, tree)
    (tree / "tokenizer" / "base_vocab.json").unlink()
    shutil.rmtree(tree / "embedding")
    cfg = _load(demo_dir)
    cfg.output_dir = tree
    cfg.stages = ["embedding"]
    assert _errors(cfg) == []
    run_pipeline(cfg)
    assert _tree(tree / "embedding") == _tree(full / "embedding")
    shutil.copy(full / "tokenizer" / "base_vocab.json", tree / "tokenizer" / "extended_vocab.json")
    with pytest.raises(StageError, match="extended_vocab.json: not an extended vocabulary"):
        run_pipeline(cfg)


def test_dedup_survivors_stay_in_their_inputs_file(tmp_path):
    # An earlier stage's file for dataset a holds a record whose `dataset`
    # field names b; dedup keeps it in a's file, where it was read.
    texts = ["ena dyo tria tessera pente exi epta okto ennia deka",
             "completely different words appear here in this one",
             "a third text that shares no shingle with the others"]
    out = tmp_path / "out"
    (out / "ingest").mkdir(parents=True)
    write_documents(out / "ingest" / "a.jsonl", [Document(id="a1", text=texts[0], dataset="b"),
                                                 Document(id="a2", text=texts[1], dataset="a")])
    write_documents(out / "ingest" / "b.jsonl", [Document(id="b1", text=texts[2], dataset="b")])
    config = {"datasets": [{"name": "a", "path": "a.jsonl"}, {"name": "b", "path": "b.jsonl"}],
              "stages": ["dedup"]}
    (tmp_path / "config.json").write_text(json.dumps(config))
    run_pipeline(PipelineConfig.load(tmp_path / "config.json"))
    assert [[(d.id, d.dataset) for d in read_documents(out / "dedup" / f"{name}.jsonl")]
            for name in ("a", "b")] == [[("a1", "b"), ("a2", "a")], [("b1", "b")]]


def test_fluency_trains_up_to_the_document_that_reaches_max_train_chars(
    demo_dir, demo_run, tmp_path
):
    cfg, _, full = demo_run
    train = next(ds for ds in cfg.datasets if ds.name == cfg.fluency.train_dataset)
    docs = list(read_documents(_input_path(cfg, "fluency", train)))
    tree = tmp_path / "tree"
    shutil.copytree(full, tree)
    rerun = _load(demo_dir)
    rerun.output_dir = tree
    rerun.stages = ["fluency"]
    # Reached inside the third document, which is the last one trained on.
    limit = len(docs[0].text) + len(docs[1].text) + 1
    rerun.fluency = replace(rerun.fluency, max_train_chars=limit)
    run_pipeline(rerun)
    models = []
    for n in (2, 3, 4):
        models.append(tmp_path / f"first{n}.nglm")
        write_model(train_ngram_lm(docs[:n], order=rerun.fluency.order,
                                   holdout_fraction=rerun.fluency.holdout_fraction,
                                   seed=rerun.seed), models[-1])
    made = (tree / "fluency" / "model.nglm").read_bytes()
    assert [made == m.read_bytes() for m in models] == [False, True, False]


def test_stages_rerun_after_failed_stage(demo_dir, demo_run, tmp_path, monkeypatch):
    _, _, full = demo_run
    cfg = _load(demo_dir)
    cfg.output_dir = tmp_path / "tree"

    write_cluster_report = dedup.write_cluster_report

    def disk_full(path, report):  # the second report, "cross", fails
        if report.stage == "cross":
            raise OSError("disk full")
        return write_cluster_report(path, report)

    monkeypatch.setattr(dedup, "write_cluster_report", disk_full)
    with pytest.raises(StageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "dedup"
    assert (cfg.output_dir / "dedup" / "clusters_intra.jsonl.partial").exists()
    monkeypatch.undo()
    for stage in STAGE_NAMES[STAGE_NAMES.index("dedup"):]:
        cfg.stages = [stage]
        run_pipeline(cfg)
    assert _tree(cfg.output_dir) == _tree(full)


@pytest.mark.parametrize("tied", [False, True])
def test_embedding_from_base_matrix(demo_dir, demo_run, tmp_path, monkeypatch, tied):
    _, _, full = demo_run
    tree = tmp_path / "tree"
    shutil.copytree(full, tree)
    shutil.rmtree(tree / "embedding")
    from corpus_forge import bpe

    rows = len(bpe.load_vocab(full / "tokenizer" / "base_vocab.json").tokens)
    base = embeddings.synthetic_base_matrix(rows, 16, seed=3)
    embeddings.write_matrix(base, tmp_path / "base.emb")
    cfg = PipelineConfig.load(_config_file(
        demo_dir, tmp_path, embedding={"base_matrix_path": str(tmp_path / "base.emb"),
                                       "tie_lm_head": tied}))
    cfg.output_dir = tree
    cfg.stages = ["embedding"]

    def no_synthetic(*args, **kwargs):
        raise AssertionError("a base matrix is given; none may be synthesized")

    monkeypatch.setattr(embeddings, "synthetic_base_matrix", no_synthetic)
    run_pipeline(cfg)
    stage = tree / "embedding"
    grown = embeddings.read_matrix(stage / "input_embeddings.emb")
    assert (grown.data[:rows] == base.data).all() and grown.rows % 8 == 0
    info = json.loads((stage / "info.json").read_text())
    assert info["tie_lm_head"] is tied
    assert (stage / "lm_head.emb").exists() is not tied
    if not tied:
        head = embeddings.read_matrix(stage / "lm_head.emb")
        assert head.role is embeddings.MatrixRole.LM_HEAD
        assert (head.data == grown.data).all()


def test_rerun_stage_directory_holds_only_new_outputs(demo_dir, demo_run, tmp_path):
    # An untied tree rerun with a tied head: the old lm_head.emb and a stray
    # partial of an earlier failed run are gone once the stage succeeds.
    _, _, full = demo_run
    tree = tmp_path / "tree"
    shutil.copytree(full, tree)
    assert (tree / "embedding" / "lm_head.emb").exists()
    (tree / "embedding" / "lm_head.emb.partial").write_bytes(b"stale")
    cfg = PipelineConfig.load(_config_file(demo_dir, tmp_path, embedding={"tie_lm_head": True}))
    cfg.output_dir = tree
    cfg.stages = ["embedding"]
    run_pipeline(cfg)
    assert sorted(p.name for p in (tree / "embedding").iterdir()) == [
        "info.json", "input_embeddings.emb"]


@pytest.mark.parametrize("key, stage", [
    ("datasets[0].path", "ingest"), ("filters.bad_words_path", "filter"),
    ("filters.url_blacklist_path", "filter"), ("fluency.model_path", "fluency"),
    ("parallel.path", "parallel"), ("tokenizer.base_vocab_path", "tokenizer"),
    ("embedding.base_matrix_path", "embedding"), ("alignment.preferences_path", "alignment"),
    ("alignment.system_messages_path", "alignment"), ("filters.bad_words_path", "ingest"),
])
def test_input_file_in_a_stage_directory_is_error(demo_dir, demo_run, tmp_path, key, stage):
    # A run of that stage would delete the file before or after it is read.
    _, _, full = demo_run
    config = json.loads((demo_dir / "config.json").read_text())
    config["output_dir"] = str(full)
    section, name = key.split(".")
    entry = config["datasets"][0] if section == "datasets[0]" else config.setdefault(section, {})
    entry[name] = str(full / stage / "input.txt")
    path = demo_dir / f"{tmp_path.name}.json"
    path.write_text(json.dumps(config))
    assert any(m.startswith(f"{key}: input file") and f"the {stage} stage" in m
               for m in _load_errors(path))


def test_repeated_ids_with_a_copy_in_each_dataset(tmp_path, capsys):
    # A = {x, y}, y a copy of x; B = {y, w}, w a copy of B's y. Intra keeps
    # A's x and B's y, told apart by ingestion index though both ids are "y".
    one = "ena dyo tria tessera pente exi epta okto ennia deka"
    two = "completely different words appear here in this one"
    a = [Document(id="x", text=one, dataset="a"), Document(id="y", text=one, dataset="a")]
    b = [Document(id="y", text=two, dataset="b"), Document(id="w", text=two, dataset="b")]
    result = dedup.dedup_corpus([("a", a), ("b", b)], dedup.DedupConfig(seed=2))
    expected = [("a", "x"), ("b", "y")]
    survivors = dedup.kept_documents([("a", a), ("b", b)], result.removed_indices())
    assert [(d.dataset, d.id) for d in survivors] == expected
    assert result.reports["intra"].summary() == {"input": 4, "kept": 2, "removed": 2,
                                                 "clusters": 2}

    write_documents(tmp_path / "a.jsonl", a)
    write_documents(tmp_path / "b.jsonl", b)
    config = {"datasets": [{"name": "a", "path": "a.jsonl"}, {"name": "b", "path": "b.jsonl"}],
              "stages": ["ingest", "dedup"]}
    (tmp_path / "config.json").write_text(json.dumps(config))
    run_pipeline(PipelineConfig.load(tmp_path / "config.json"))
    assert [(d.dataset, d.id) for name in ("a", "b")
            for d in read_documents(tmp_path / "out" / "dedup" / f"{name}.jsonl")] == expected

    rc = main(["dedup", "run", "--in", f"a={tmp_path / 'a.jsonl'}", f"b={tmp_path / 'b.jsonl'}",
               "--stage", "intra", "--out", str(tmp_path / "dd")])
    assert rc == 0
    assert [(d.dataset, d.id) for d in read_documents(tmp_path / "dd" / "survivors.jsonl")] \
        == expected
    assert "intra: input=4 removed=2 clusters=2" in capsys.readouterr().out


@pytest.fixture(scope="module")
def tiny_tokenizer_inputs(tmp_path_factory):
    """Two Greek datasets of 4 and 6 distinct documents and an English one,
    ingested; limits of 3, 5 and 8 documents cut inside either file."""
    root = tmp_path_factory.mktemp("tok")
    words = "καλό σπίτι θάλασσα ήλιος βιβλίο δρόμος νερό φως πόλη χώρα".split()
    datasets = []
    for name, lang, n in (("en", "en", 3), ("g1", "el", 4), ("g2", "el", 6)):
        docs = [Document(id=f"{name}{i}",
                         text=" ".join(words[(i + j) % 10] + ("ς" * (i % 3)) for j in range(3 + i))
                         if lang == "el" else f"low lower lowest newer wider {i}")
                for i in range(n)]
        write_documents(root / f"{name}.jsonl", docs)
        datasets.append({"name": name, "path": f"{name}.jsonl", "language": lang})
    (root / "config.json").write_text(json.dumps({"datasets": datasets, "stages": ["ingest"]}))
    run_pipeline(PipelineConfig.load(root / "config.json"))
    return root, datasets


def _take_docs(cfg, datasets, limit):
    """The first `limit` documents (all if None) the tokenizer reads from `datasets`."""
    docs = [doc for ds in datasets for doc in read_documents(_input_path(cfg, "tokenizer", ds))]
    return docs[:limit]


def _tokenizer_oracle(cfg, out):
    """The stage as it was: every limit taken by its own read into a list."""
    t = cfg.tokenizer
    base_ds = [ds for ds in cfg.datasets if ds.name == t.base_dataset]
    base = bpe.train_bpe(_take_docs(cfg, base_ds, t.max_train_docs), t.base_target_tokens)
    greek = _greek_datasets(cfg)
    train = _take_docs(cfg, greek, t.max_train_docs)
    ext = bpe.extend_vocab(base, bpe.train_bpe(train, t.new_target_tokens))
    bpe.save_vocab(base, out / "base_vocab.json")
    bpe.save_vocab(ext, out / "extended_vocab.json")
    sample = _take_docs(cfg, greek, t.fertility_sample_docs)
    (base_tokens, ext_tokens), words = bpe.fertility_counts([base, ext], sample)
    return {
        "sample_docs": len(sample),
        "sample_words": words,
        "base": {"tokens": base_tokens, "fertility": base_tokens / words},
        "extended": {"tokens": ext_tokens, "fertility": ext_tokens / words},
        "base_vocab_size": len(base.tokens),
        "extended_vocab_size": ext.total_size,
    }


@pytest.mark.parametrize("max_train, sample", [
    (None, None), (None, 5), (5, None), (3, 8), (8, 3),
])
def test_tokenizer_reads_its_greek_inputs_once(tiny_tokenizer_inputs, tmp_path, monkeypatch,
                                               max_train, sample):
    root, datasets = tiny_tokenizer_inputs
    tok = {"base_dataset": "en", "base_target_tokens": 10, "new_target_tokens": 25,
           "max_train_docs": max_train, "fertility_sample_docs": sample}
    config = {"datasets": datasets, "stages": ["tokenizer"], "tokenizer": tok}
    (root / f"{tmp_path.name}.json").write_text(json.dumps(config))
    cfg = PipelineConfig.load(root / f"{tmp_path.name}.json")

    reads = []
    real_read = pipeline.read_documents
    monkeypatch.setattr(pipeline, "read_documents",
                        lambda path: reads.append(Path(path).name) or real_read(path))
    run_pipeline(cfg)
    monkeypatch.undo()
    # Every case needs documents of both Greek files; each is read once.
    assert reads == ["en.jsonl", "g1.jsonl", "g2.jsonl"]

    expected = _tokenizer_oracle(cfg, tmp_path)
    out = cfg.output_dir / "tokenizer"
    assert json.loads((out / "fertility.json").read_text()) == expected
    for name in ("base_vocab.json", "extended_vocab.json"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


def test_input_path_rule(demo_dir, demo_run):
    _, _, full = demo_run
    cfg = _load(demo_dir)
    cfg.output_dir = full
    web, pdf = (next(ds for ds in cfg.datasets if ds.name == n) for n in ("el_web", "el_pdf"))
    cfg.stages = ["dedup"]
    # Only the datasets the fluency stage scores are read from it.
    assert _input_path(cfg, "dedup", web) == full / "filter" / "el_web.jsonl"
    assert _input_path(cfg, "dedup", pdf) == full / "fluency" / "el_pdf.jsonl"
    cfg.stages = ["stats"]
    assert _input_path(cfg, "stats", pdf) == full / "dedup" / "el_pdf.jsonl"
    # Files of skipped stages after this run's first stage are stale: dedup
    # reads what this run's ingest writes.
    cfg.stages = ["ingest", "dedup"]
    assert _input_path(cfg, "dedup", pdf) == full / "ingest" / "el_pdf.jsonl"


def test_stale_fluency_file_is_ignored(demo_dir, demo_run, tmp_path):
    _, _, full = demo_run
    tree = tmp_path / "tree"
    shutil.copytree(full, tree)
    (tree / "fluency" / "el_web.jsonl").write_text("not a document\n")  # el_web is unscored
    cfg = _load(demo_dir)
    cfg.output_dir = tree
    cfg.stages = ["dedup"]
    run_pipeline(cfg)
    assert _tree(tree / "dedup") == _tree(full / "dedup")


def test_vocab_stages_need_tokenizer_output(demo_dir, demo_run, tmp_path):
    _, _, full = demo_run
    cfg = _load(demo_dir)
    cfg.stages = ["embedding", "stats"]
    cfg.output_dir = tmp_path / "empty"
    errors = _errors(cfg)
    assert any(m.startswith("embedding stage requires the tokenizer stage or "
                            "extended_vocab.json under ") for m in errors)
    assert any(m.startswith("stats stage requires the tokenizer stage or "
                            "extended_vocab.json under ") for m in errors)
    cfg.output_dir = full
    assert _errors(cfg) == []


def test_document_stage_without_input_is_error(demo_dir, tmp_path):
    cfg = _load(demo_dir)
    cfg.stages = ["dedup"]
    cfg.output_dir = tmp_path / "empty"
    assert any(m.startswith("dedup stage has no input for dataset 'el_web'")
               for m in _errors(cfg))
    with pytest.raises(ConfigValidationError):
        run_pipeline(cfg)
    cfg.stages = ["ingest", "dedup"]
    assert _errors(cfg) == []


# CLI ---------------------------------------------------------------------------


def test_cli_ingest(demo_dir, tmp_path, capsys):
    out = tmp_path / "canonical.jsonl"
    rc = main(["ingest", str(demo_dir / "el_pdf.jsonl"),
               "--dataset", "renamed", "--extraction", "pdf", "--out", str(out)])
    assert rc == 0
    first = json.loads(out.read_text().splitlines()[0])
    assert first["dataset"] == "renamed"
    assert first["extraction"] == "pdf"


def test_cli_validate_only(demo_dir, capsys):
    rc = main(["run", "--config", str(demo_dir / "config.json"), "--validate-only"])
    assert rc == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_cli_validation_exit_code(demo_dir, tmp_path, capsys):
    config = json.loads((demo_dir / "config.json").read_text())
    config["dedup"]["bands"] = 16
    config["dedup"]["rows"] = 9
    bad = tmp_path / "bad_config.json"
    bad.write_text(json.dumps(config))
    # paths in the config are relative to its directory; copy next to data
    bad2 = demo_dir / "bad_config.json"
    bad2.write_text(json.dumps(config))
    rc = main(["run", "--config", str(bad2)])
    assert rc == 1


def test_cli_plan_show(capsys):
    assert main(["plan", "show"]) == 0
    out = capsys.readouterr().out
    assert '"stage1"' in out and '"stage2"' in out


def test_cli_plan_export(tmp_path, capsys):
    csv_path = tmp_path / "s2.csv"
    json_path = tmp_path / "s2.json"
    rc = main(["plan", "export", "--stage", "2",
               "--out-csv", str(csv_path), "--out-json", str(json_path)])
    assert rc == 0
    assert csv_path.exists() and json_path.exists()


def test_cli_tok_and_fertility(tmp_path, demo_dir, capsys):
    vocab_path = tmp_path / "v.json"
    rc = main(["tok", "train", "--in", str(demo_dir / "el_wiki.jsonl"),
               "--target", "100", "--out", str(vocab_path)])
    assert rc == 0
    rc = main(["tok", "fertility", "--vocab", str(vocab_path),
               "--in", str(demo_dir / "el_wiki.jsonl")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fertility=" in out


def test_fertility_of_a_corpus_without_words_is_an_error(tmp_path, demo_dir, capsys):
    vocab = tmp_path / "v.json"
    assert main(["tok", "train", "--in", str(demo_dir / "en_wiki.jsonl"),
                 "--target", "50", "--out", str(vocab)]) == 0
    blank = [Document(id=f"e{i}", text=" \n\t" * i, dataset="g") for i in range(3)]
    write_documents(tmp_path / "g.jsonl", blank)
    capsys.readouterr()
    assert main(["tok", "fertility", "--vocab", str(vocab),
                 "--in", str(tmp_path / "g.jsonl")]) == 1
    assert capsys.readouterr().err == "error: corpus contains no words\n"

    # The tokenizer stage's fertility sample is its Greek documents, here none with a word.
    shutil.copy(demo_dir / "en_wiki.jsonl", tmp_path / "en.jsonl")
    datasets = [{"name": "en", "path": "en.jsonl", "language": "en"},
                {"name": "g", "path": "g.jsonl", "language": "el"}]
    tok = {"base_dataset": "en", "base_target_tokens": 300, "new_target_tokens": 310}
    (tmp_path / "config.json").write_text(json.dumps(
        {"datasets": datasets, "tokenizer": tok, "stages": ["ingest", "tokenizer"]}))
    with pytest.raises(StageError) as err:
        run_pipeline(PipelineConfig.load(tmp_path / "config.json"))
    assert err.value.stage == "tokenizer"
    assert str(err.value.cause) == "corpus contains no words"


def test_cli_tok_encode_roundtrip_text(tmp_path, demo_dir, capsys):
    vocab_path = tmp_path / "v.json"
    main(["tok", "train", "--in", str(demo_dir / "el_wiki.jsonl"),
          "--target", "50", "--out", str(vocab_path)])
    capsys.readouterr()
    rc = main(["tok", "encode", "--vocab", str(vocab_path), "--text", "καλημέρα"])
    assert rc == 0
    ids = [int(x) for x in capsys.readouterr().out.split()]
    assert ids


def test_cli_fluency_roundtrip(tmp_path, demo_dir, capsys):
    model = tmp_path / "m.nglm"
    rc = main(["fluency", "train", "--in", str(demo_dir / "el_wiki.jsonl"),
               "--out", str(model), "--order", "3", "--holdout", "0.1"])
    assert rc == 0
    scored = tmp_path / "scored.jsonl"
    rc = main(["fluency", "score", "--model", str(model),
               "--in", str(demo_dir / "el_pdf.jsonl"), "--out", str(scored)])
    assert rc == 0
    line = json.loads(scored.read_text().splitlines()[0])
    assert "fluency" in line["scores"]

    # `--drop-below` drops exactly what score_documents scores below it, of
    # every extraction kind, not only the fluency_applies_to ones.
    inputs = [demo_dir / "el_pdf.jsonl", demo_dir / "el_web.jsonl"]
    lm = read_model(model)
    expected = {d.id: (d.extraction, d.scores["fluency"])
                for p in inputs for d in score_documents(lm, read_documents(p))}
    kept = tmp_path / "kept.jsonl"
    rc = main(["fluency", "score", "--model", str(model), "--in", *map(str, inputs),
               "--out", str(kept), "--drop-below", "0.5"])
    assert rc == 0
    low = {i for i, (_, score) in expected.items() if score < 0.5}
    assert {e for e, _ in map(expected.get, low)} == {Extraction.PDF, Extraction.WEB}
    survivors = {d.id: d.scores["fluency"] for d in read_documents(kept)}
    assert survivors.keys() == expected.keys() - low
    assert survivors == {i: expected[i][1] for i in survivors}
    assert f"scored {len(expected)} documents, dropped {len(low)}" in capsys.readouterr().out

    # `filter` then drops a PDF document by its precomputed score alone; a
    # web document scored as low is outside fluency_applies_to and stays.
    report = tmp_path / "report.jsonl"
    rc = main(["filter", "--in", str(kept), "--out", str(tmp_path / "filtered.jsonl"),
               "--report", str(report), "--fluency-threshold", "0.8"])
    assert rc == 0
    by_fluency = {r["id"] for r in map(json.loads, report.read_text().splitlines())
                  if "fluency" in r["reasons"]}
    assert by_fluency
    assert by_fluency == {i for i, score in survivors.items()
                          if expected[i][0] is Extraction.PDF and score < 0.8}
    assert any(expected[i][0] is Extraction.WEB and score < 0.8
               for i, score in survivors.items())


def test_cli_parallel_subcommands(tmp_path, demo_dir, capsys):
    filtered = tmp_path / "filtered.jsonl"
    rc = main(["parallel", "filter", "--in", str(demo_dir / "parallel.jsonl"),
               "--out", str(filtered)])
    assert rc == 0
    deduped = tmp_path / "deduped.jsonl"
    rc = main(["parallel", "dedup", "--in", str(filtered), "--out", str(deduped)])
    assert rc == 0


def test_cli_dedup_run(tmp_path, demo_dir, capsys):
    out_dir = tmp_path / "dd"
    rc = main(["dedup", "run",
               "--in", f"web={demo_dir / 'el_web.jsonl'}",
               f"wiki={demo_dir / 'el_wiki.jsonl'}",
               "--stage", "both", "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "survivors.jsonl").exists()


def test_cli_dedup_intra_keeps_repeated_id(tmp_path, capsys):
    # A = {x, y} where y copies x; B = {y} with unique text. B's y survives.
    text = "ena dyo tria tessera pente exi epta okto ennia deka"
    write_documents(tmp_path / "a.jsonl", [Document(id="x", text=text, dataset="a"),
                                          Document(id="y", text=text, dataset="a")])
    write_documents(tmp_path / "b.jsonl", [Document(
        id="y", text="completely different words appear here in this one", dataset="b")])
    out_dir = tmp_path / "dd"
    rc = main(["dedup", "run", "--in", f"a={tmp_path / 'a.jsonl'}", f"b={tmp_path / 'b.jsonl'}",
               "--stage", "intra", "--out", str(out_dir)])
    assert rc == 0
    survivors = [(d.dataset, d.id) for d in read_documents(out_dir / "survivors.jsonl")]
    assert survivors == [("a", "x"), ("b", "y")]
    # Counts are by document, not by distinct id.
    assert "intra: input=3 removed=1 clusters=1" in capsys.readouterr().out


def test_cli_align_and_orpo_check(tmp_path, demo_dir, capsys):
    curated = tmp_path / "curated.jsonl"
    rc = main(["align", "curate", "--in", str(demo_dir / "preferences.jsonl"),
               "--out", str(curated), "--min-rating", "5",
               "--system-messages", str(demo_dir / "system_messages_el.json")])
    assert rc == 0
    rendered = tmp_path / "rendered.jsonl"
    rc = main(["align", "render", "--in", str(curated), "--out", str(rendered)])
    assert rc == 0
    rc = main(["align", "orpo-check", "--trials", "5"])
    assert rc == 0
    assert "OK" in capsys.readouterr().out


def test_cli_embed_workflow(tmp_path, demo_dir, capsys):
    import numpy as np

    from corpus_forge import bpe
    from corpus_forge.embeddings import EmbeddingMatrix, write_matrix

    base_v = tmp_path / "base.json"
    learned_v = tmp_path / "learned.json"
    main(["tok", "train", "--in", str(demo_dir / "en_wiki.jsonl"),
          "--target", "60", "--out", str(base_v)])
    main(["tok", "train", "--in", str(demo_dir / "el_wiki.jsonl"),
          "--target", "60", "--out", str(learned_v)])
    ext_v = tmp_path / "ext.json"
    rc = main(["tok", "extend", "--base", str(base_v), "--learned", str(learned_v),
               "--out", str(ext_v)])
    assert rc == 0

    base_vocab = bpe.load_vocab(base_v)
    matrix_path = tmp_path / "base.emb"
    write_matrix(
        EmbeddingMatrix(
            data=np.zeros((len(base_vocab.tokens), 8), dtype=np.float32)
        ),
        matrix_path,
    )
    grown = tmp_path / "grown.emb"
    rc = main(["embed", "init", "--base-matrix", str(matrix_path),
               "--base-vocab", str(base_v), "--ext-vocab", str(ext_v),
               "--out", str(grown)])
    assert rc == 0
    padded = tmp_path / "padded.emb"
    rc = main(["embed", "pad", "--in", str(grown), "--out", str(padded)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["embed", "info", "--in", str(padded)])
    assert rc == 0
    info = json.loads(capsys.readouterr().out)
    assert info["rows"] % 8 == 0


def test_cli_stats(tmp_path, demo_dir, capsys):
    vocab_path = tmp_path / "v.json"
    main(["tok", "train", "--in", str(demo_dir / "el_wiki.jsonl"),
          "--target", "50", "--out", str(vocab_path)])
    out_json = tmp_path / "stats.json"
    rc = main(["stats", "--in", str(demo_dir / "el_wiki.jsonl"),
               str(demo_dir / "en_wiki.jsonl"),
               "--vocab", str(vocab_path), "--out", str(out_json)])
    assert rc == 0
    payload = json.loads(out_json.read_text())
    assert payload["total_tokens"] > 0
    assert set(payload["per_subcorpus"]) == {"el_wiki", "en_wiki"}


def test_cli_error_exit_code(tmp_path):
    rc = main(["tok", "fertility", "--vocab", str(tmp_path / "missing.json"),
               "--in", str(tmp_path / "missing.jsonl")])
    assert rc == 1
