"""Self-test of the output checks: each must pass a real output tree and
reject a deliberately broken copy of it.

    python3 perfbench/selftest.py

Runs the program once on scaled-down `pipeline_20k` (2000 documents) and
`boilerplate_dedup` (1200 documents) inputs, then breaks copies of the output
tree one way each: a planted duplicate or template member that survives, a
document removed although nothing resembles it, a swapped merge, one changed
byte, and a report whose counts do not add up. Exits 1 if any check accepts
a broken tree or rejects an intact one.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import checks
import gen
import run


def _append(path, record) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def _dedup_input(out, spec) -> dict[str, dict]:
    cfg = spec["config_data"]
    names = [d["name"] for d in cfg["datasets"]]
    inputs = checks.stage_inputs(out, cfg["stages"], "dedup", names)
    return {d["id"]: d for docs in inputs.values() for d in docs}


def _kept(out, ds) -> list[dict]:
    return checks.read_jsonl(out / "dedup" / f"{ds}.jsonl")


def _keep(out, spec, doc_id: str) -> None:
    """Put a removed document back into the output and out of its cluster, so
    that kept and removed still partition the input."""
    _append(out / "dedup" / "el_web.jsonl", _dedup_input(out, spec)[doc_id])
    for stage in ("intra", "cross"):
        path = out / "dedup" / f"clusters_{stage}.jsonl"
        records = []
        for rec in checks.read_jsonl(path):
            rec["cluster"] = [m for m in rec["cluster"] if m != doc_id]
            if len(rec["cluster"]) > 1:
                records.append(rec)
        gen.write_jsonl(path, records)


def surviving_copy(out, spec) -> str:
    label_id = next(i for i, lab in sorted(spec["truth"].items()) if lab["kind"] == "exact_copy")
    _keep(out, spec, label_id)
    return f"exact copy {label_id} kept"


def surviving_member(out, spec) -> str:
    members = sorted(i for i, lab in spec["truth"].items() if lab["kind"] == "template")
    _keep(out, spec, members[-1])
    return f"template member {members[-1]} kept"


def removed_unique(out, spec) -> str:
    """Drop a document nothing resembles and cover it with a made-up cluster,
    so only the exact-Jaccard check can notice."""
    kept = _kept(out, "el_web")
    victim = next(d for d in reversed(kept) if d["id"] not in spec["truth"])
    partner = kept[0]
    gen.write_jsonl(out / "dedup" / "el_web.jsonl", [d for d in kept if d is not victim])
    _append(out / "dedup" / "clusters_intra.jsonl",
            {"stage": "intra", "cluster": [partner["id"], victim["id"]], "kept": partner["id"]})
    return f"unique document {victim['id']} removed"


def lost_document(out, spec) -> str:
    kept = _kept(out, "el_web")
    gen.write_jsonl(out / "dedup" / "el_web.jsonl", kept[1:])
    return f"document {kept[0]['id']} missing from both kept and removed"


def swapped_merge(out, spec) -> str:
    path = out / "tokenizer" / "extended_vocab.json"
    vocab = json.loads(path.read_text(encoding="utf-8"))
    vocab["added_merges"][0], vocab["added_merges"][1] = (
        vocab["added_merges"][1], vocab["added_merges"][0])
    path.write_text(json.dumps(vocab, ensure_ascii=False, indent=0, sort_keys=True) + "\n",
                    encoding="utf-8")
    return "first two added merges swapped"


def changed_byte(out, spec) -> str:
    path = out / "stats" / "corpus_stats.json"
    data = bytearray(path.read_bytes())
    pos = data.index(b'"total_tokens": ') + len(b'"total_tokens": ')
    data[pos] = ord("1") if data[pos] != ord("1") else ord("2")
    path.write_bytes(bytes(data))
    return "one digit of corpus_stats.json total_tokens changed"


def unbalanced_report(out, spec) -> str:
    path = out / "run_report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["stages"][-1]["dropped"] += 1
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return "run_report.json: one more drop than input - kept"


def kept_bait(out, spec) -> str:
    bait = next(i for i, lab in sorted(spec["truth"].items())
                if lab.get("bait") == "bad_words")
    doc = json.loads(next(line for line in (spec["config"].parent / "el_web.jsonl")
                          .read_text(encoding="utf-8").splitlines() if f'"{bait}"' in line))
    _append(out / "filter" / "el_web.jsonl", doc)
    return f"bad-word bait {bait} left in the filter output"


CASES = {
    "pipeline_20k": [surviving_copy, removed_unique, lost_document, swapped_merge,
                     changed_byte, unbalanced_report, kept_bait],
    "boilerplate_dedup": [surviving_member, removed_unique],
}
SIZES = {"pipeline_20k": 2000, "boilerplate_dedup": 1200}


def main() -> int:
    failures = 0
    for workload, cases in CASES.items():
        work = run.ROOT / ".perfbench-work" / f"selftest-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            spec = gen.generate(workload, 1, work, n_docs=SIZES[workload])
            result = run._one_run(work, spec, "run0", time.monotonic() + 600, trace=False)
            pristine, digest = result["out"], result["digest"]
            problems = checks.check_all(pristine, spec["config_data"], spec["truth"])
            print(f"{workload}: intact tree -> {'accepted' if not problems else problems}")
            failures += bool(problems)
            for case in cases:
                broken = work / f"broken-{case.__name__}"
                shutil.copytree(pristine, broken)
                what = case(broken, spec)
                found = checks.check_all(broken, spec["config_data"], spec["truth"])
                if checks.tree_digest(broken) == digest:
                    print(f"  {case.__name__}: the tree digest did not change")
                    failures += 1
                verdict = "rejected" if found else "ACCEPTED (checker missed it)"
                print(f"  {what}: {verdict}" + (f" - {found[0][:110]}" if found else ""))
                failures += not found
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print("all checks reject their broken trees" if not failures else f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
