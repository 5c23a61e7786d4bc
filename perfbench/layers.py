"""What the traced run wraps, and how spans and counts become the
per-layer metrics named in BENCHMARK.json.

``*.self_ms`` is the mean self time per call (span time minus the time of
its child spans), ``*.ms`` the mean inclusive time per call.  A layer that
did no work on a workload reports 0.
"""

from __future__ import annotations

from dbtagger import baselines

# Set-up functions, wrapped while the traced run sets up once.
SETUP_TARGETS = (
    ("dbtagger.corpus:parse_corpus", "corpus.parse_corpus", {}),
    ("dbtagger.embeddings:load_embeddings", "embeddings.load_embeddings", {}),
    ("dbtagger.schema:build_schema_graph", "schema.build_schema_graph", {}),
    ("dbtagger.tagger:load_model", "tagger.load_model", {}),
    (
        "dbtagger.baselines:build_value_index",
        "baselines.build_value_index",
        {"on_result": lambda t, index: t.records["index"].append((len(index), index.estimated_bytes()))},
    ),
)


def _record_args(name):
    return lambda tracer, args, kwargs: tracer.records[name].append((args, kwargs))


def _count_tape(tracer, args, kwargs):
    tracer.counters["numerics.tape_records"] += len(args[0])
    tracer.counters["numerics.backward_calls"] += 1


def _count_hit(tracer, result):
    tracer.counters["baselines.index_hits"] += bool(result)


# Names as callers look them up: training and tagger import backward and
# embed_query by name, so those are rebound in the importing module.
RUN_TARGETS = (
    ("dbtagger.tagger:embed_query", "embeddings.embed_query", {"on_call": _record_args("embed_query")}),
    ("dbtagger.tagger:model_forward", "tagger.model_forward", {}),
    ("dbtagger.tagger:bigru_forward", "tagger.bigru_forward", {}),
    ("dbtagger.tagger:CrfLayer.emissions", "tagger.emissions", {}),
    ("dbtagger.tagger:crf_log_partition", "tagger.crf_log_partition", {}),
    ("dbtagger.tagger:crf_score", "tagger.crf_score", {}),
    ("dbtagger.tagger:viterbi_decode", "tagger.viterbi_decode", {}),
    ("dbtagger.training:backward", "numerics.backward", {"on_call": _count_tape}),
    ("dbtagger.training:adadelta_step", "training.optimizer_step", {}),
    ("dbtagger.training:nadam_step", "training.optimizer_step", {}),
    ("dbtagger.training:token_accuracy", "training.token_accuracy", {}),
    ("dbtagger.translate:mappings_from_tags", "translate.mappings_from_tags", {}),
    ("dbtagger.translate:infer_join_path", "translate.infer_join_path", {}),
    ("dbtagger.translate:render_sql", "translate.render_sql", {}),
    ("dbtagger.schema:SchemaGraph.neighbors", "schema.neighbors_calls", {"count_only": True}),
    ("dbtagger.baselines:tfidf_map", "baselines.tfidf_map", {}),
    ("dbtagger.baselines:InvertedValueIndex.lookup", "baselines.index_lookups",
     {"count_only": True, "on_result": _count_hit}),
    ("dbtagger.baselines:edit_distance_relation_map", "baselines.edit_distance_relation_map", {}),
    ("dbtagger.baselines:embedding_similarity_map", "baselines.embedding_similarity_map", {}),
    ("dbtagger.baselines:scan_map", "baselines.scan_map", {"on_call": _record_args("scan_map")}),
)


def patch(tracer, targets) -> None:
    for target, name, options in targets:
        tracer.patch(target, name, **options)


def _per_call(summary, span, key):
    entry = summary.get(span)
    return 1000.0 * entry[key] / entry["calls"] if entry else 0.0


def _exact_hit_ratio(tracer) -> float:
    tokens = hits = 0
    for (table, words, *_), _ in tracer.records["embed_query"]:
        tokens += len(words)
        hits += sum(1 for w in words if w in table.vectors)
    return hits / tokens if tokens else 0.0


def _scan_rows_examined(tracer) -> float:
    """Rows scan_map reads per call: each column until its row limit of
    matches, computed from the recorded arguments."""
    calls = tracer.records["scan_map"]
    if not calls:
        return 0.0
    normalized: dict[int, list[list[str]]] = {}
    total = 0
    for args, kwargs in calls:
        snapshot, grams = args[0], args[1]
        limit = args[2] if len(args) > 2 else kwargs.get("row_limit", baselines.SCAN_ROW_LIMIT)
        if id(snapshot) not in normalized:
            normalized[id(snapshot)] = [
                [baselines.normalize(v) for v in values] for _, values in snapshot.text_columns()
            ]
        for _, _, phrase in grams:
            needle = baselines.normalize(phrase)
            if not needle:
                continue
            for values in normalized[id(snapshot)]:
                matches = examined = 0
                for value in values:
                    examined += 1
                    if needle in value:
                        matches += 1
                        if matches >= limit:
                            break
                total += examined
    return total / len(calls)


def per_layer_metrics(tracer, requests: int) -> dict[str, tuple[float, str]]:
    """``requests`` is the number of traced ops, the base of per-request counts."""
    s = tracer.summary()
    c = tracer.counters
    index = tracer.records["index"][-1] if tracer.records["index"] else (0, 0)
    return {
        "embeddings.embed_query.self_ms": (_per_call(s, "embeddings.embed_query", "self_s"), "ms"),
        "embeddings.exact_hit_ratio": (_exact_hit_ratio(tracer), "ratio"),
        "tagger.bigru_forward.self_ms": (_per_call(s, "tagger.bigru_forward", "self_s"), "ms"),
        "tagger.heads.self_ms": (_per_call(s, "tagger.model_forward", "self_s"), "ms"),
        "tagger.emissions.self_ms": (_per_call(s, "tagger.emissions", "self_s"), "ms"),
        "tagger.crf_log_partition.self_ms": (_per_call(s, "tagger.crf_log_partition", "self_s"), "ms"),
        "tagger.crf_score.self_ms": (_per_call(s, "tagger.crf_score", "self_s"), "ms"),
        "tagger.viterbi_decode.self_ms": (_per_call(s, "tagger.viterbi_decode", "self_s"), "ms"),
        "tagger.load_model.ms": (_per_call(s, "tagger.load_model", "incl_s"), "ms"),
        "numerics.backward.self_ms": (_per_call(s, "numerics.backward", "self_s"), "ms"),
        "numerics.tape_records_per_query": (
            c["numerics.tape_records"] / c["numerics.backward_calls"] if c["numerics.backward_calls"] else 0.0,
            "count",
        ),
        "training.optimizer_step.self_ms": (_per_call(s, "training.optimizer_step", "self_s"), "ms"),
        "training.token_accuracy.self_ms": (_per_call(s, "training.token_accuracy", "self_s"), "ms"),
        "translate.mappings_from_tags.self_ms": (_per_call(s, "translate.mappings_from_tags", "self_s"), "ms"),
        "translate.infer_join_path.self_ms": (_per_call(s, "translate.infer_join_path", "self_s"), "ms"),
        "translate.render_sql.self_ms": (_per_call(s, "translate.render_sql", "self_s"), "ms"),
        "schema.neighbors_calls": (c["schema.neighbors_calls"] / requests if requests else 0.0, "count"),
        "baselines.build_value_index.self_ms": (_per_call(s, "baselines.build_value_index", "self_s"), "ms"),
        "baselines.index_phrases": (index[0], "count"),
        "baselines.index_estimated_bytes": (index[1], "B"),
        "baselines.tfidf_map.self_ms": (_per_call(s, "baselines.tfidf_map", "self_s"), "ms"),
        "baselines.tfidf_hit_ratio": (
            c["baselines.index_hits"] / c["baselines.index_lookups"] if c["baselines.index_lookups"] else 0.0,
            "ratio",
        ),
        "baselines.edit_distance_relation_map.self_ms": (
            _per_call(s, "baselines.edit_distance_relation_map", "self_s"),
            "ms",
        ),
        "baselines.embedding_similarity_map.self_ms": (
            _per_call(s, "baselines.embedding_similarity_map", "self_s"),
            "ms",
        ),
        "baselines.scan_map.self_ms": (_per_call(s, "baselines.scan_map", "self_s"), "ms"),
        "baselines.scan_rows_examined": (_scan_rows_examined(tracer), "count"),
        "corpus.parse_corpus.ms": (_per_call(s, "corpus.parse_corpus", "incl_s"), "ms"),
        "embeddings.load_embeddings.ms": (_per_call(s, "embeddings.load_embeddings", "incl_s"), "ms"),
        "schema.build_schema_graph.ms": (_per_call(s, "schema.build_schema_graph", "incl_s"), "ms"),
    }
