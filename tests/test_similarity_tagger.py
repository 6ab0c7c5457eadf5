import numpy as np
import pytest

from tagforge.embedding_store import EmbeddingTable
from tagforge.label_system import build_label_system
from tagforge.similarity_tagger import (
    LabelQueryMatrix,
    TaggerError,
    ThresholdProfile,
    build_label_queries,
    calibrate_thresholds,
    load_label_queries,
    load_threshold_profile,
    prompt_key,
    save_label_queries,
    save_threshold_profile,
    score,
)


def _vocab(tags):
    return build_label_system({t: 10 - i for i, t in enumerate(tags)}, k=len(tags))


def _hits(embedding, queries, profile):
    # the tags write_predictions selects for one embedding, in query order
    return (score(embedding, queries) >= profile.thresholds(queries.tag_ids)).tolist()


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _prompt_table(vocab, templates, vector_fn):
    vectors = {}
    for canonical in vocab.canonicals:
        for t in templates:
            vectors[prompt_key(t, canonical)] = vector_fn(t, canonical)
    return EmbeddingTable.from_vectors(vectors, normalized=True)


def test_single_template_query_equals_prompt():
    vocab = _vocab(["dog"])
    v = _unit([1.0, 2.0, 2.0])
    table = _prompt_table(vocab, ["t1"], lambda t, c: v)
    queries = build_label_queries(vocab, table, ["t1"])
    assert np.allclose(queries.matrix[0], v, atol=1e-15)


def test_identical_prompts_ensemble_to_same_vector():
    vocab = _vocab(["dog"])
    v = _unit([0.0, 3.0, 4.0])
    table = _prompt_table(vocab, ["t1", "t2"], lambda t, c: v)
    queries = build_label_queries(vocab, table, ["t1", "t2"])
    assert np.allclose(queries.matrix[0], v, atol=1e-15)


def test_orthogonal_prompts_closed_form():
    vocab = _vocab(["dog"])
    u = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0, 0.0])
    table = _prompt_table(vocab, ["t1", "t2"], lambda t, c: u if t == "t1" else v)
    queries = build_label_queries(vocab, table, ["t1", "t2"])
    expected = (u + v) / np.linalg.norm(u + v)
    assert np.allclose(queries.matrix[0], expected, atol=1e-15)
    assert abs(np.linalg.norm(queries.matrix[0]) - 1.0) < 1e-12
    assert abs(float(queries.matrix[0] @ u) - 1 / np.sqrt(2)) < 1e-12
    assert abs(float(queries.matrix[0] @ v) - 1 / np.sqrt(2)) < 1e-12


def test_missing_prompt_keys_all_listed():
    vocab = _vocab(["dog", "cat"])
    table = EmbeddingTable.from_vectors(
        {prompt_key("t1", "dog"): _unit([1, 0])}, normalized=True
    )
    with pytest.raises(TaggerError) as exc:
        build_label_queries(vocab, table, ["t1", "t2"])
    message = str(exc.value)
    assert "'t2'/'dog'" in message
    assert "'t1'/'cat'" in message


def test_zero_mean_ensemble_errors():
    vocab = _vocab(["dog"])
    u = np.array([1.0, 0.0])
    table = _prompt_table(vocab, ["t1", "t2"], lambda t, c: u if t == "t1" else -u)
    with pytest.raises(TaggerError, match="zero mean"):
        build_label_queries(vocab, table, ["t1", "t2"])


def test_non_unit_prompt_rejected():
    vocab = _vocab(["dog"])
    vectors = {prompt_key("t1", "dog"): np.array([3.0, 4.0])}
    table = EmbeddingTable.from_vectors(vectors)
    with pytest.raises(TaggerError, match="not unit norm"):
        build_label_queries(vocab, table, ["t1"])


def _random_queries(rng, n_tags=6, dim=8):
    raw = rng.normal(size=(n_tags, dim))
    rows = raw / np.linalg.norm(raw, axis=1)[:, None]
    return LabelQueryMatrix("v0", tuple(range(n_tags)), tuple(f"t{i}" for i in range(n_tags)), rows)


def test_score_exact_and_orthogonal():
    rows = np.eye(3)
    queries = LabelQueryMatrix("v", (0, 1, 2), ("a", "b", "c"), rows)
    scores = score(np.array([1.0, 0.0, 0.0]), queries)
    assert scores[0] == 1.0
    assert scores[1] == 0.0 and scores[2] == 0.0


def test_score_matches_manual_dot_products():
    rng = np.random.default_rng(3)
    queries = _random_queries(rng)
    for _ in range(50):
        v = _unit(rng.normal(size=8))
        got = score(v, queries)
        for i in range(len(queries.tag_ids)):
            manual = sum(float(queries.matrix[i, d]) * float(v[d]) for d in range(8))
            assert abs(float(got[i]) - manual) < 1e-12


def test_score_dimension_mismatch():
    rng = np.random.default_rng(1)
    queries = _random_queries(rng, dim=8)
    with pytest.raises(TaggerError, match="dimension mismatch"):
        score(np.ones(4), queries)


def test_score_linear_in_embedding():
    rng = np.random.default_rng(9)
    queries = _random_queries(rng)
    u, v = rng.normal(size=8), rng.normal(size=8)
    a, b = 0.7, -1.3
    lhs = score(a * u + b * v, queries)
    rhs = a * score(u, queries) + b * score(v, queries)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_thresholds_select_tags():
    rows = np.eye(2)
    queries = LabelQueryMatrix("v", (0, 1), ("a", "b"), rows)
    v = _unit([0.9, 0.1])
    assert _hits(v, queries, ThresholdProfile(1.01)) == [False, False]
    assert _hits(v, queries, ThresholdProfile(-1.0)) == [True, True]

    scores = score(v, queries)
    assert scores[0] > 0.3 > scores[1]
    assert _hits(v, queries, ThresholdProfile(0.3)) == [True, False]
    assert _hits(v, queries, ThresholdProfile(0.3, {1: -1.0})) == [True, True]


def test_argmax_invariant_under_positive_scaling():
    rng = np.random.default_rng(17)
    profile = ThresholdProfile(0.15)
    for _ in range(50):
        queries = _random_queries(rng)
        v = rng.normal(size=8)
        base = _unit(v)
        scaled = _unit(float(rng.uniform(0.01, 100.0)) * v)
        assert np.argmax(score(base, queries)) == np.argmax(score(scaled, queries))
        assert _hits(base, queries, profile) == _hits(scaled, queries, profile)


def test_ensemble_cosine_lower_bound():
    # cosine(query, member) >= min pairwise cosine among the tag's prompts
    rng = np.random.default_rng(23)
    for _ in range(50):
        dim, m = 6, 4
        prompts = rng.normal(size=(m, dim))
        prompts /= np.linalg.norm(prompts, axis=1)[:, None]
        mean = prompts.mean(axis=0)
        if np.linalg.norm(mean) < 1e-9:
            continue
        query = mean / np.linalg.norm(mean)
        pairwise_min = min(
            float(prompts[i] @ prompts[j]) for i in range(m) for j in range(m)
        )
        for i in range(m):
            assert float(query @ prompts[i]) >= pairwise_min - 1e-12


def test_calibrate_perfectly_separated():
    scores_matrix = np.array([[0.9], [0.9], [0.1], [0.1]])
    labels = np.array([[1], [1], [0], [0]])
    profile = calibrate_thresholds(scores_matrix, labels, [7], grid=[0.5])
    assert profile.overrides[7] == 0.5
    assert profile.default_threshold == 0.5


def test_calibrate_all_positive_class_keeps_default():
    scores_matrix = np.array([[0.9, 0.2], [0.8, 0.9], [0.7, 0.1]])
    labels = np.array([[1, 1], [1, 0], [1, 1]])
    profile = calibrate_thresholds(scores_matrix, labels, [0, 1], grid=[0.3, 0.6])
    assert 0 not in profile.overrides  # class 0 has no negatives
    assert 1 in profile.overrides


def test_calibrate_ties_prefer_larger_threshold():
    # both grid values separate perfectly; the larger must win
    scores_matrix = np.array([[0.9], [0.05]])
    labels = np.array([[1], [0]])
    profile = calibrate_thresholds(scores_matrix, labels, [3], grid=[0.2, 0.5])
    assert profile.overrides[3] == 0.5
    assert profile.default_threshold == 0.5


def test_calibrate_matches_exhaustive_search():
    rng = np.random.default_rng(31)
    n, c = 40, 5
    scores_matrix = rng.uniform(-1, 1, size=(n, c))
    labels = (rng.uniform(size=(n, c)) < 0.4).astype(int)
    grid = [-0.5, -0.1, 0.0, 0.2, 0.4, 0.8]
    tag_ids = list(range(c))
    profile = calibrate_thresholds(scores_matrix, labels, tag_ids, grid)

    def f1_of(pred, true):
        tp = int((pred & true).sum())
        fp = int((pred & ~true).sum())
        fn = int((~pred & true).sum())
        return 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0

    true = labels == 1
    for col, tag in enumerate(tag_ids):
        if not (true[:, col].any() and (~true[:, col]).any()):
            assert tag not in profile.overrides
            continue
        best_t, best_f1 = None, -1.0
        for t in sorted(grid):
            f1 = f1_of(scores_matrix[:, col] >= t, true[:, col])
            if f1 >= best_f1:
                best_t, best_f1 = t, f1
        assert profile.overrides[tag] == best_t

    best_default, best_micro = None, -1.0
    for t in sorted(grid):
        micro = f1_of(scores_matrix >= t, true)
        if micro >= best_micro:
            best_default, best_micro = t, micro
    assert profile.default_threshold == best_default


def test_calibrate_empty_grid():
    with pytest.raises(TaggerError, match="grid"):
        calibrate_thresholds(np.zeros((1, 1)), np.ones((1, 1)), [0], grid=[])


def test_queries_save_load_round_trip(tmp_path):
    vocab = _vocab(["cat", "dog"])
    rng = np.random.default_rng(2)
    table = _prompt_table(vocab, ["t1"], lambda t, c: _unit(rng.normal(size=8)))
    queries = build_label_queries(vocab, table, ["t1"])
    path = tmp_path / "queries.emb"
    save_label_queries(queries, path, ["t1"])
    loaded = load_label_queries(path, vocab)
    assert loaded.tag_ids == queries.tag_ids
    assert loaded.canonicals == queries.canonicals
    assert np.array_equal(
        loaded.matrix.astype("<f4"), queries.matrix.astype("<f4")
    )


def test_queries_vocab_version_mismatch(tmp_path):
    vocab = _vocab(["cat", "dog"])
    rng = np.random.default_rng(2)
    table = _prompt_table(vocab, ["t1"], lambda t, c: _unit(rng.normal(size=8)))
    queries = build_label_queries(vocab, table, ["t1"])
    path = tmp_path / "queries.emb"
    save_label_queries(queries, path, ["t1"])
    other = _vocab(["cat", "dog", "bird"])
    with pytest.raises(TaggerError, match="version"):
        load_label_queries(path, other)


def test_threshold_profile_round_trip(tmp_path):
    profile = ThresholdProfile(0.25, {3: 0.5, 1: -0.1})
    path = tmp_path / "thr.tsv"
    save_threshold_profile(profile, path)
    loaded = load_threshold_profile(path)
    assert loaded == profile
    # no thresholds file means the flat default, for tag, eval and the engine alike
    assert load_threshold_profile(None) == ThresholdProfile()


def test_threshold_profile_requires_default(tmp_path):
    path = tmp_path / "thr.tsv"
    path.write_text("3\t0.5\n")
    with pytest.raises(TaggerError, match="default"):
        load_threshold_profile(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("*\t0.2\n0\t0.3\n0\t0.9\n*\t0.5\n", ":3: repeated tag_id 0"),
        ("*\t0.2\n7\t0.3\n07\t0.9\n", ":3: repeated tag_id 7"),
        ("*\t0.2\n0\t0.3\n*\t0.5\n", ":3: repeated '*' default row"),
    ],
    ids=["tag-id", "tag-id-spelled-apart", "default"],
)
def test_threshold_profile_rejects_repeated_rows(tmp_path, text, message):
    path = tmp_path / "thr.tsv"
    path.write_text(text)
    with pytest.raises(TaggerError) as exc:
        load_threshold_profile(path)
    assert str(exc.value) == f"{path}{message}"


def test_threshold_profile_validates_tag_ids():
    profile = ThresholdProfile(0.2, {99: 0.5})
    with pytest.raises(TaggerError, match="99"):
        profile.validate_against([0, 1, 2])
