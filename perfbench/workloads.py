"""The four workloads.  Each builds its inputs from the seed, runs them
through the public functions of ``dbtagger`` and checks every output
against the independent oracles in ``oracles.py``.

Every call into the program goes through a module attribute
(``translate.infer_join_path``, not a name imported here), so the traced
run's rebinding sees it.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import string
import time
from dataclasses import dataclass
from itertools import cycle
from pathlib import Path

from dbtagger import baselines, corpus, embeddings, schema, tagger, training, translate, variants

from oracles import FkGraph, check_join_tree, expected_translation, required_from_tags, sql_tables

HERE = Path(__file__).resolve().parent


def clocks() -> tuple[float, float]:
    """(CPU seconds of this process, wall seconds).

    Metrics are in CPU time: the program runs on one thread here (the
    BLAS workers do no work at these sizes), and on a shared machine the
    wall clock mostly measures the other tenants.  Wall time is kept
    alongside in the detail file.
    """
    return time.process_time(), time.perf_counter()


@dataclass
class Sample:
    ms: float  # CPU time of the op
    wall_ms: float
    kind: str
    op: object
    output: object


@dataclass
class Bundle:
    corpus: corpus.Dataset
    embeddings: embeddings.EmbeddingTable
    schemas: dict
    graphs: dict


def load_bundle(root: Path) -> Bundle:
    """The set-up every workload starts from: the fixture corpus,
    embeddings and schemas, and the join graph of each schema."""
    fixtures = root / "tests" / "fixtures"

    def text(name):
        return (fixtures / name).read_text(encoding="utf-8")

    dataset = corpus.parse_corpus(text("fixture_corpus.tsv"), name="fixture")
    table = embeddings.load_embeddings(text("fixture_embeddings.vec"))
    schemas = {n: schema.load_schema(text(f"{n}.json")) for n in ("imdb_subset", "imdb_full", "yelp_full")}
    graphs = {n: schema.build_schema_graph(s) for n, s in schemas.items()}
    return Bundle(dataset, table, schemas, graphs)


def quantile(values: list[float], pct: int) -> float:
    if pct == 50 or len(values) < 2:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Workload:
    """One seeded input stream, timed op by op.

    ``tail_pct`` is the highest percentile with at least ten samples
    beyond it at ``min_ops`` samples per run.
    """

    name = ""
    tail_pct = 99
    min_ops = 1000
    block = 1  # the input stream's mix repeats every ``block`` ops
    setup_repeats = 5
    warmup = 20
    trace_ops_count = 200

    def setup(self, root: Path, seed: int):
        raise NotImplementedError

    def prepare_checks(self, state) -> None:
        """Build oracle data; not part of set-up time."""

    def stream(self, state):
        return cycle(state.ops)

    def warmup_ops(self, state) -> list:
        """Ops to run untimed first; taken from the end of the pool, so the
        timed stream starts at a block boundary."""
        return state.ops[len(state.ops) - self.warmup :]

    def trace_ops(self, state) -> list:
        return state.ops[: self.trace_ops_count]

    def execute(self, state, op):
        raise NotImplementedError

    def verify(self, state, sample: Sample) -> str | None:
        raise NotImplementedError

    def named_metrics(self, state, samples: list[Sample], elapsed: float) -> dict:
        return {}

    def run(self, state, ops, deadline: float, min_ops: int, tracer=None) -> list[Sample]:
        samples = []
        for op in ops:
            done = len(samples) >= min_ops and len(samples) % self.block == 0
            if done and time.perf_counter() >= deadline:
                break
            if tracer is not None:
                span = tracer.begin_request()
            cpu, wall = clocks()
            try:
                output = self.execute(state, op)
            except Exception as exc:  # the run must go on; verify reports it
                output = ("exception", f"{type(exc).__name__}: {exc}")
            cpu_end, wall_end = clocks()
            if tracer is not None:
                tracer.close(span)
            ms, wall_ms = (cpu_end - cpu) * 1000.0, (wall_end - wall) * 1000.0
            samples.append(Sample(ms, wall_ms, getattr(op, "kind", self.name), op, output))
        return samples


def _exception(sample: Sample) -> str | None:
    out = sample.output
    if isinstance(out, tuple) and len(out) == 2 and out[0] == "exception":
        return out[1]
    return None


# ---------------------------------------------------------------------------
# train


TRAIN_CONFIG = training.TrainConfig(epochs=4, switch_epoch=2)
REFERENCE = HERE / "reference_train_seed13.json"
LOSS_RTOL = 1e-6  # far above float reassociation, far below a changed update


def build_model(bundle: Bundle, vocabs, config: training.TrainConfig):
    return tagger.DBTaggerModel.build(
        bundle.embeddings,
        vocabs,
        hidden=config.hidden,
        weights=config.task_weights(),
        dropout_rate=config.dropout,
        seed=config.seed,
    )


@dataclass
class TrainState:
    bundle: Bundle
    vocabs: dict
    ops: list
    reference: list[float] | None = None


class Train(Workload):
    """Training runs of TRAIN_CONFIG from a freshly seeded model; one op is
    one epoch, validation pass included.

    The config seed stays 13 whatever ``--seed`` is, so that every loss can
    be checked against the recorded seed-13 history.
    """

    name = "train"
    tail_pct = 50  # a 20 s run holds about twenty epochs: no higher percentile qualifies
    min_ops = 1
    setup_repeats = 21  # a set-up takes milliseconds
    warmup = 0

    def setup(self, root, seed):
        bundle = load_bundle(root)
        vocabs = variants.build_vocabs(bundle.corpus, bundle.schemas["imdb_subset"])
        return TrainState(bundle, vocabs, [TRAIN_CONFIG])

    def prepare_checks(self, state):
        state.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["mean_loss"]

    def run(self, state, ops, deadline, min_ops, tracer=None):
        samples = []
        for config in ops:
            if len(samples) >= min_ops and time.perf_counter() >= deadline:
                break
            model = build_model(state.bundle, state.vocabs, config)
            # Each epoch ends when its validation pass returns.
            ends: list[tuple[float, float]] = []
            accuracy = getattr(training, "token_accuracy", None)
            if accuracy is not None:
                def timed_accuracy(*args, **kwargs):
                    result = accuracy(*args, **kwargs)
                    ends.append(clocks())
                    return result

                training.token_accuracy = timed_accuracy
            if tracer is not None:
                span = tracer.begin_request()
            start = clocks()
            try:
                history = training.train(model, state.bundle.corpus, config)
                failure = None
            except Exception as exc:  # the run must go on; verify reports it
                history, failure = [], f"{type(exc).__name__}: {exc}"
            finish = clocks()
            if tracer is not None:
                tracer.close(span)
            if accuracy is not None:
                training.token_accuracy = accuracy
            if len(ends) != len(history):  # no per-epoch clock: split evenly
                share = [(i + 1) / len(history) for i in range(len(history))]
                ends = [tuple(a + (b - a) * f for a, b in zip(start, finish)) for f in share]
            previous = start
            for record, end in zip(history, ends):
                output = (record.phase, record.mean_loss, record.val_accuracy)
                ms, wall_ms = ((e - p) * 1000.0 for e, p in zip(end, previous))
                samples.append(Sample(ms, wall_ms, "epoch", record.epoch, output))
                previous = end
            for epoch in range(len(history) + 1, config.epochs + 1):
                samples.append(Sample(0.0, 0.0, "epoch", epoch, ("exception", failure or "epoch missing")))
        return samples

    def verify(self, state, sample):
        error = _exception(sample)
        if error:
            return error
        phase, loss, _ = sample.output
        epoch = sample.op
        if not math.isfinite(loss):
            return f"epoch {epoch}: non-finite loss {loss}"
        if phase != ("adadelta" if epoch <= TRAIN_CONFIG.switch_epoch else "nadam"):
            return f"epoch {epoch}: phase {phase}"
        ref = state.reference[epoch - 1]
        if abs(loss - ref) > LOSS_RTOL * abs(ref):
            return f"epoch {epoch}: loss {loss!r} differs from the seed-13 reference {ref!r}"
        return None

    def named_metrics(self, state, samples, elapsed):
        return {"epoch_s": (quantile([s.ms for s in samples], 50) / 1000.0, "s")}


# ---------------------------------------------------------------------------
# tag


FIT_CONFIG = training.TrainConfig(epochs=200, switch_epoch=50, seed=13, stop_at_accuracy=1.0)
OOV_RATE = 0.1


@dataclass(frozen=True)
class Question:
    kind: str  # "fixture" | "long"
    tokens: tuple[str, ...]
    gold_schema: tuple[str, ...] | None = None


@dataclass
class TagState:
    bundle: Bundle
    model: tagger.DBTaggerModel
    ops: list
    fk: FkGraph | None = None


def _oov_word(rng: random.Random, table) -> str:
    while True:
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(5, 9)))
        if word not in table.vectors and word.capitalize() not in table.vectors:
            return word


FIXTURE_PER_LONG = 2


def make_questions(bundle: Bundle, rng: random.Random, blocks: int) -> list[Question]:
    """Blocks of FIXTURE_PER_LONG memorized fixture queries and one run of
    2-6 fixture queries with about 10 % of tokens replaced by unseen words.

    With an even mix the median would sit on the gap between the short and
    the long questions and jump from run to run; two short per long one
    puts it inside the short group.
    """
    queries = bundle.corpus.queries
    out: list[Question] = []
    order: list = []
    for _ in range(blocks):
        for _ in range(FIXTURE_PER_LONG):
            if not order:
                order = list(queries)
                rng.shuffle(order)
            query = order.pop()
            out.append(Question("fixture", tuple(query.words), tuple(query.tags(corpus.TagLevel.SCHEMA))))
        parts = [rng.choice(queries) for _ in range(rng.randint(2, 6))]
        words = [
            _oov_word(rng, bundle.embeddings) if rng.random() < OOV_RATE else word
            for part in parts
            for word in part.words
        ]
        out.append(Question("long", tuple(words)))
    return out


class Tag(Workload):
    """Question to SQL skeleton with a model loaded from its saved bytes.

    Set-up fits the model that memorizes the fixture corpus (as the test
    suite's shared model does), so ``setup_s`` includes that fit.
    """

    name = "tag"
    block = FIXTURE_PER_LONG + 1
    warmup = 3 * block
    trace_ops_count = 67 * block
    setup_repeats = 2  # each set-up holds a full fit

    def setup(self, root, seed):
        bundle = load_bundle(root)
        vocabs = variants.build_vocabs(bundle.corpus, bundle.schemas["imdb_subset"])
        fitted = build_model(bundle, vocabs, FIT_CONFIG)
        training.train(fitted, bundle.corpus, FIT_CONFIG)
        model = tagger.load_model(tagger.save_model(fitted))
        return TagState(bundle, model, make_questions(bundle, random.Random(seed), blocks=600))

    def prepare_checks(self, state):
        state.fk = FkGraph(state.bundle.schemas["imdb_full"])

    def execute(self, state, op):
        tagged = tagger.tag_query(state.model, list(op.tokens))
        tags = tuple((t.type_tag, t.schema_tag) for t in tagged.tokens)
        try:
            mappings = translate.mappings_from_tags(tagged)
            path = translate.infer_join_path(state.bundle.graphs["imdb_full"], mappings)
            outcome = translate.render_sql(path, mappings)
        except translate.JoinPathError:
            outcome = "no_path"
        except ValueError:  # MappingSet rejects the tags; checked in verify
            outcome = "refused"
        return tags, outcome

    def verify(self, state, sample):
        error = _exception(sample)
        if error:
            return error
        question, (tags, outcome) = sample.op, sample.output
        if len(tags) != len(question.tokens):
            return f"{len(tags)} tags for {len(question.tokens)} tokens"
        if question.gold_schema is not None and tuple(s for _, s in tags) != question.gold_schema:
            return f"memorized query {' '.join(question.tokens)!r} decodes to other schema tags"
        expected = expected_translation(tags, state.fk)
        if outcome in ("no_path", "refused"):
            return None if outcome == expected else f"{outcome} where the tags call for {expected}"
        if expected != "sql":
            return f"SQL where the tags call for {expected}"
        tables = sql_tables(outcome)
        if tables is None:
            return f"SQL breaks the select-join grammar: {outcome}"
        required = required_from_tags(tags)
        if not required <= set(tables) or len(tables) != state.fk.steiner_nodes(required):
            return f"SQL tables {tables} are not a minimal cover of {sorted(required)}"
        return None

    def named_metrics(self, state, samples, elapsed):
        ms = [s.ms for s in samples]
        refused = sum(1 for s in samples if s.output[1:] == ("refused",))
        return {
            "tag_qps": (len(samples) / elapsed, "1/s"),
            "tag_p50_ms": (quantile(ms, 50), "ms"),
            "tag_p99_ms": (quantile(ms, 99), "ms"),
            "tag_refused_share": (refused / len(samples), "ratio"),
        }


# ---------------------------------------------------------------------------
# join


# Several seeded wirings of each size average out how one wiring's shape
# sets the cost of a search.
WIRINGS = {14: 5, 15: 5, 16: 10}
SYNTHETIC = {f"synth{size}_{w}": size for size, count in WIRINGS.items() for w in range(count)}
ISLAND = 3        # tables in each synthetic graph's disconnected component
EXTRA_EDGES = 3   # FK edges beyond a spanning tree of the main component
# Path requests per block of 100; the other 3 have no path and all sit on
# 16-table graphs, so that the p99 falls inside one cost class.
PATH_MIX = (("imdb_full", 33), ("yelp_full", 16), ("synthetic", 48))
NO_PATH_GRAPHS = tuple(name for name, size in SYNTHETIC.items() if size == 16)
NO_PATH_PER_BLOCK = 3
LITERALS = ("maple grove", "o'hara", "blade runner", "nash", "amber 42")


def synthetic_fk_schema(name: str, n_tables: int, rng: random.Random) -> schema.Schema:
    """A random FK tree plus EXTRA_EDGES over the main tables, and a chain
    of ISLAND tables joined to nothing else."""
    names = [f"{name}_{i:02d}" for i in range(n_tables)]
    main = n_tables - ISLAND
    refs: dict[str, list[str]] = {table: [] for table in names}
    for i in range(1, main):
        refs[names[i]].append(names[rng.randrange(i)])
    added = 0
    while added < EXTRA_EDGES:
        a, b = (names[i] for i in rng.sample(range(main), 2))
        if b not in refs[a] and a not in refs[b]:
            refs[a].append(b)
            added += 1
    for i in range(main + 1, n_tables):
        refs[names[i]].append(names[i - 1])
    tables = []
    for table in names:
        attrs = [
            schema.Attribute("id", is_pk=True, kind="number"),
            schema.Attribute("label"),
            schema.Attribute("note"),
        ]
        attrs += [schema.Attribute(f"{ref}_id", is_fk=True, ref_table=ref, kind="number") for ref in refs[table]]
        tables.append(schema.Table(name=table, kind="entity", attributes=tuple(attrs)))
    return schema.Schema(name=name, tables=tuple(tables))


def _text_attrs(table) -> list[str]:
    return [a.name for a in table.attributes if a.kind == "text" and not a.is_pk and not a.is_fk]


@dataclass(frozen=True)
class JoinRequest:
    graph: str
    required: tuple[str, ...]
    tagged: tagger.TaggedQuery
    kind: str = "join"


def join_request(graph: str, db: schema.Schema, required: list[str], rng: random.Random) -> JoinRequest:
    """Tags naming the required tables, the first table's first text
    attribute, and a value on one required table's text attribute."""
    tokens = [tagger.TaggedToken(text=t, type_tag="TABLE", schema_tag=t) for t in required]
    first = _text_attrs(db.table(required[0]))
    if first:
        tokens.append(tagger.TaggedToken(first[0], "ATTR", f"{required[0]}.{first[0]}"))
    owner = rng.choice(required)
    texts = _text_attrs(db.table(owner))
    if texts:
        attr = f"{owner}.{rng.choice(texts)}"
        tokens += [tagger.TaggedToken(w, "VALUE", attr) for w in rng.choice(LITERALS).split()]
    tagged = tagger.TaggedQuery(tokens=tuple(tokens), value_spans=tagger.merge_value_spans(tokens))
    return JoinRequest(graph, tuple(required), tagged)


@dataclass
class JoinState:
    schemas: dict
    graphs: dict
    ops: list
    fk: dict | None = None


class Join(Workload):
    """Join search and SQL rendering alone, from tags naming 2-4 tables."""

    name = "join"
    block = 100
    setup_repeats = 21  # a set-up takes about 50 ms

    def setup(self, root, seed):
        bundle = load_bundle(root)
        rng = random.Random(seed)
        schemas = {n: bundle.schemas[n] for n in ("imdb_full", "yelp_full")}
        graphs = {n: bundle.graphs[n] for n in ("imdb_full", "yelp_full")}
        for name, size in SYNTHETIC.items():
            schemas[name] = synthetic_fk_schema(name, size, rng)
            graphs[name] = schema.build_schema_graph(schemas[name])
        return JoinState(schemas, graphs, make_join_requests(schemas, rng, blocks=15))

    def prepare_checks(self, state):
        state.fk = {n: FkGraph(s) for n, s in state.schemas.items()}

    def execute(self, state, op):
        mappings = translate.mappings_from_tags(op.tagged)
        try:
            path = translate.infer_join_path(state.graphs[op.graph], mappings)
        except translate.JoinPathError:
            return ("no_path",)
        joins = tuple((old, new) for old, new, _ in path.joins)
        return path.tables, joins, translate.render_sql(path, mappings)

    def verify(self, state, sample):
        error = _exception(sample)
        if error:
            return error
        op, out, fk = sample.op, sample.output, state.fk[sample.op.graph]
        if out == ("no_path",):
            return None if not fk.connected(op.required) else f"no path reported for connected {op.required}"
        tables, joins, sql = out
        problem = check_join_tree(fk, op.required, tables, joins)
        if problem:
            return problem
        if sql_tables(sql) != list(tables):
            return f"SQL does not render the join path: {sql}"
        return None

    def named_metrics(self, state, samples, elapsed):
        ms = [s.ms for s in samples]
        no_path = sum(1 for s in samples if s.output == ("no_path",))
        return {
            "join_p50_ms": (quantile(ms, 50), "ms"),
            "join_p99_ms": (quantile(ms, 99), "ms"),
            "join_no_path_share": (no_path / len(samples), "ratio"),
        }


def make_join_requests(schemas: dict, rng: random.Random, blocks: int) -> list[JoinRequest]:
    fk = {n: FkGraph(s) for n, s in schemas.items()}
    largest = {}
    for name, graph in fk.items():
        groups: dict[int, list[str]] = {}
        for table, comp in zip(graph.nodes, graph.component):
            groups.setdefault(comp, []).append(table)
        largest[name] = max(groups.values(), key=len)
    requests = []
    synthetic = cycle(SYNTHETIC)
    no_path = cycle(NO_PATH_GRAPHS)
    for _ in range(blocks):
        block = []
        for group, count in PATH_MIX:
            for i in range(count):
                name = next(synthetic) if group == "synthetic" else group
                required = rng.sample(largest[name], 2 + i % 3)
                block.append(join_request(name, schemas[name], required, rng))
        for _ in range(NO_PATH_PER_BLOCK):
            name = next(no_path)
            island = [t for t in fk[name].nodes if t not in largest[name]]
            required = [rng.choice(largest[name]), rng.choice(island)]
            block.append(join_request(name, schemas[name], required, rng))
        rng.shuffle(block)
        requests += block
    return requests


# ---------------------------------------------------------------------------
# mappers


SNAPSHOT_ROWS = 10_000
EDIT_MAX = 2
SIM_THRESHOLD = 0.5
READS_PER_SCAN = 10
TEMPLATES = (
    ("find", "the", "movie", None),
    ("which", "people", "play", None),
    ("show", "all", "roles", "of", None),
    ("list", "movies", "featuring", None),
    ("who", "acted", "in", None, "movies"),
    ("what", "is", "the", "title", "of", None),
)


@dataclass(frozen=True)
class MapperRequest:
    kind: str  # "read" | "scan"
    tokens: tuple[str, ...]
    planted: tuple[int, int, str]
    grams: tuple[tuple[int, int, str], ...] = ()


@dataclass
class MappersState:
    bundle: Bundle
    snapshot: schema.ContentSnapshot
    index: baselines.InvertedValueIndex
    candidates: list[tuple[str, str]]
    ops: list
    expected: dict | None = None


def make_mapper_requests(snapshot, rng: random.Random, blocks: int) -> list[MapperRequest]:
    """Questions around one cell value planted from a random text column
    (rows >= 1000, so no other cell holds it as a substring); one request
    in each READS_PER_SCAN + 1 is a scan of the planted phrase and one
    other word."""
    columns = [values for _, values in snapshot.text_columns()]
    requests = []
    for _ in range(blocks):
        block = []
        for position in range(READS_PER_SCAN + 1):
            values = rng.choice(columns)
            phrase = values[rng.randrange(1000, len(values))]
            template = rng.choice(TEMPLATES)
            slot = template.index(None)
            tokens = template[:slot] + tuple(phrase.split()) + template[slot + 1 :]
            planted = (slot, slot + len(phrase.split()), phrase)
            if position < READS_PER_SCAN:
                block.append(MapperRequest("read", tokens, planted))
            else:
                word = rng.choice([i for i in range(len(tokens)) if not slot <= i < planted[1]])
                grams = (planted, (word, word + 1, tokens[word]))
                block.append(MapperRequest("scan", tokens, planted, grams))
        rng.shuffle(block)
        requests += block
    return requests


class Mappers(Workload):
    """Baseline mappers over a 10k-row synthetic snapshot of imdb_subset.

    The value index is built in set-up (the write); reads map every
    question with tf-idf, edit distance and embedding similarity; one
    request in eleven is a row scan.
    """

    name = "mappers"
    tail_pct = 95
    min_ops = 220
    setup_repeats = 9
    block = READS_PER_SCAN + 1
    warmup = 2
    trace_ops_count = 2 * (READS_PER_SCAN + 1)

    def __init__(self):
        self.index_times: list[float] = []

    def setup(self, root, seed):
        bundle = load_bundle(root)
        db = bundle.schemas["imdb_subset"]
        snapshot = schema.synthetic_snapshot(db, SNAPSHOT_ROWS, seed=seed)
        start = time.process_time()
        index = baselines.build_value_index(snapshot, db)
        self.index_times.append(time.process_time() - start)
        candidates = []
        for table in db.tables:
            candidates.append((table.name, table.name))
            candidates += [(a.name, f"{table.name}.{a.name}") for a in table.attributes]
        ops = make_mapper_requests(snapshot, random.Random(seed), blocks=40)
        return MappersState(bundle, snapshot, index, candidates, ops)

    def prepare_checks(self, state):
        """Column a planted phrase must map to: most cells equal to it,
        ties to the smallest column name."""
        cells: dict[str, dict[str, int]] = {}
        for column, values in state.snapshot.text_columns():
            for value in values:
                counts = cells.setdefault(value, {})
                counts[column] = counts.get(column, 0) + 1
        state.expected = {}
        for op in state.ops:
            counts = cells[op.planted[2]]
            state.expected[op.planted[2]] = min(counts, key=lambda c: (-counts[c], c))

    def execute(self, state, op):
        if op.kind == "scan":
            return tuple(baselines.scan_map(state.snapshot, list(op.grams)))
        db = state.bundle.schemas["imdb_subset"]
        tokens = list(op.tokens)
        tfidf = tuple(baselines.tfidf_map(state.index, tokens))
        edits = tuple(
            baselines.edit_distance_relation_map(tok, db, EDIT_MAX, i) for i, tok in enumerate(tokens)
        )
        sims = tuple(
            baselines.embedding_similarity_map(
                state.bundle.embeddings, tok, state.candidates, SIM_THRESHOLD, token_index=i
            )
            for i, tok in enumerate(tokens)
        )
        return tfidf, edits, sims

    def verify(self, state, sample):
        error = _exception(sample)
        if error:
            return error
        op = sample.op
        start, end, phrase = op.planted
        want = state.expected[phrase]
        if op.kind == "scan":
            hit = [r for r in sample.output if (r.start, r.end) == (start, end)]
            if not hit or hit[0].target != want:
                return f"scan maps {phrase!r} to {hit[0].target if hit else None}, tf-idf index to {want}"
            return None
        tfidf, edits, sims = sample.output
        hit = [r for r in tfidf if (r.start, r.end) == (start, end)]
        if not hit or hit[0].target != want:
            return f"tf-idf maps {phrase!r} to {hit[0].target if hit else None}, expected {want}"
        targets = {t for _, t in state.candidates}
        for r in edits:
            if r is not None and (r.score > EDIT_MAX or r.target not in targets):
                return f"edit-distance result {r} out of range"
        for r in sims:
            if r is not None and (r.score < SIM_THRESHOLD or r.target not in targets):
                return f"embedding result {r} below threshold or unknown"
        return None

    def named_metrics(self, state, samples, elapsed):
        reads = [s.ms for s in samples if s.kind == "read"]
        scans = [s.ms for s in samples if s.kind == "scan"]
        return {
            "index_build_s": (statistics.median(self.index_times), "s"),
            "map_p50_ms": (quantile(reads, 50), "ms"),
            "scan_p50_ms": (quantile(scans, 50), "ms"),
        }


WORKLOADS = {w.name: w for w in (Train(), Tag(), Join(), Mappers())}
