import hashlib

import numpy as np
import pytest

from tagforge.caption_parser import parse_corpus
from tagforge.label_system import (
    SynonymLexicon,
    VocabularyError,
    build_label_system,
    load_vocabulary,
    map_tag,
    save_vocabulary,
)


def test_single_tag():
    vocab = build_label_system({"dog": 5}, k=1)
    assert len(vocab) == 1
    assert vocab.canonicals[0] == "dog"
    assert vocab.surface_to_id["dog"] == 0


def test_synonym_group_canonical_and_ids():
    vocab = build_label_system(
        {"cat": 9, "kitten": 4, "dog": 7},
        k=3,
        synonyms=SynonymLexicon((("cat", "kitten"),)),
    )
    assert len(vocab) == 3
    assert vocab.num_groups == 2
    assert vocab.surface_to_id["cat"] == vocab.surface_to_id["kitten"]
    group_id = vocab.surface_to_id["cat"]
    assert vocab.canonicals[group_id] == "cat"
    # ids are dense, assigned in canonical lexicographic order: cat < dog
    assert vocab.surface_to_id["cat"] == 0
    assert vocab.surface_to_id["dog"] == 1


def test_canonical_tie_breaks_lexicographically():
    vocab = build_label_system(
        {"puppy": 4, "pup": 4}, k=2, synonyms=SynonymLexicon((("puppy", "pup"),))
    )
    assert vocab.canonicals[0] == "pup"


def test_topk_tie_lexicographic():
    vocab = build_label_system({"b": 2, "a": 2, "c": 1}, k=2)
    assert set(vocab.surface_to_id) == {"a", "b"}


def test_seeds_and_origins():
    vocab = build_label_system({"dog": 3, "cat": 2}, k=2, seeds=[["cat", "unicorn"]])
    by_surface = {s: vocab.groups[tag_id] for s, tag_id in vocab.surface_to_id.items()}
    assert by_surface["dog"].origin == "corpus"
    assert by_surface["cat"].origin == "both"  # in the top-k and seeded
    assert by_surface["unicorn"].origin == "seed"
    assert by_surface["unicorn"].frequency == 0


def test_seed_only_surface_with_corpus_frequency():
    # outside the top-k the surface enters via the seed route, keeping its count
    vocab = build_label_system({"dog": 3, "cat": 2}, k=1, seeds=[["cat"]])
    by_surface = {s: vocab.groups[tag_id] for s, tag_id in vocab.surface_to_id.items()}
    assert by_surface["cat"].origin == "seed"
    assert by_surface["cat"].frequency == 2


def test_excludes_and_restricted_synonym_pairs():
    vocab = build_label_system(
        {"dog": 5, "hound": 4, "cat": 3},
        k=3,
        synonyms=SynonymLexicon((("dog", "hound"), ("cat", "feline"))),
        excludes={"hound"},
    )
    assert "hound" not in vocab.surface_to_id
    # pair with the excluded member silently restricted to the survivor
    assert vocab.surface_to_id["dog"] != vocab.surface_to_id["cat"]


def test_duplicate_seed_surfaces_deduplicated():
    vocab = build_label_system({}, k=0, seeds=[["dog", "dog"], ["dog"]])
    assert len(vocab) == 1


def test_self_pairs_ignored():
    vocab = build_label_system({"dog": 1}, k=1, synonyms=SynonymLexicon((("dog", "dog"),)))
    assert vocab.num_groups == 1


def test_union_find_matches_transitive_closure():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        surfaces = [f"s{i:03d}" for i in range(n)]
        freq = {s: int(rng.integers(1, 100)) for s in surfaces}
        pairs = tuple(
            (surfaces[int(rng.integers(n))], surfaces[int(rng.integers(n))])
            for _ in range(int(rng.integers(0, 2 * n)))
        )
        vocab = build_label_system(freq, k=n, synonyms=SynonymLexicon(pairs))

        adjacency = {s: set() for s in surfaces}
        for a, b in pairs:
            adjacency[a].add(b)
            adjacency[b].add(a)

        def component(start):
            seen = {start}
            frontier = [start]
            while frontier:
                for nxt in adjacency[frontier.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            return frozenset(seen)

        for s in surfaces:
            comp = component(s)
            for t in surfaces:
                assert (vocab.surface_to_id[s] == vocab.surface_to_id[t]) == (t in comp)


def test_adding_pair_never_increases_group_count():
    rng = np.random.default_rng(7)
    surfaces = [f"w{i}" for i in range(30)]
    freq = {s: int(rng.integers(1, 50)) for s in surfaces}
    pairs: list[tuple[str, str]] = []
    previous = None
    for _ in range(40):
        pairs.append((surfaces[int(rng.integers(30))], surfaces[int(rng.integers(30))]))
        vocab = build_label_system(freq, k=30, synonyms=SynonymLexicon(tuple(pairs)))
        if previous is not None:
            assert vocab.num_groups <= previous
        previous = vocab.num_groups


def test_tag_ids_dense():
    rng = np.random.default_rng(3)
    surfaces = [f"w{i}" for i in range(25)]
    freq = {s: int(rng.integers(1, 9)) for s in surfaces}
    pairs = tuple((surfaces[int(rng.integers(25))], surfaces[int(rng.integers(25))]) for _ in range(10))
    vocab = build_label_system(freq, k=25, synonyms=SynonymLexicon(pairs))
    assert sorted(set(vocab.surface_to_id.values())) == list(range(vocab.num_groups))
    for tag_id, group in enumerate(vocab.groups):
        assert all(vocab.surface_to_id[s] == tag_id for s in group.members)


def test_file_round_trip_and_determinism(tmp_path):
    vocab = build_label_system(
        {"cat": 9, "kitten": 4, "dog": 7, "puppy": 2},
        k=4,
        seeds=[["wolf"]],
        synonyms=SynonymLexicon((("cat", "kitten"), ("dog", "puppy"))),
    )
    p1, p2 = tmp_path / "v1.tsv", tmp_path / "v2.tsv"
    save_vocabulary(vocab, p1)
    save_vocabulary(vocab, p2)
    assert p1.read_bytes() == p2.read_bytes()

    loaded = load_vocabulary(p1)
    assert loaded.version == vocab.version
    assert loaded.groups == vocab.groups
    assert loaded.canonicals == vocab.canonicals
    assert loaded.surface_to_id == vocab.surface_to_id


def test_save_vocabulary_writes_these_bytes(tmp_path):
    # dog and hound tie at 5 (canonical dog) and bird beats kitty for the
    # fifth place; hound-dog-pup-puppy is a chain; bird is a seed inside the
    # top-k, owl one outside it and unicorn one the corpus lacks; kitty, an
    # excluded synonym of cat, leaves cat alone
    vocab = build_label_system(
        {"dog": 5, "hound": 5, "cat": 4, "pup": 3, "kitty": 2, "bird": 2, "owl": 1, "fish": 1},
        k=5,
        seeds=[["bird", "owl"], ["puppy", "unicorn"]],
        synonyms=SynonymLexicon(
            (("hound", "dog"), ("dog", "pup"), ("pup", "puppy"), ("cat", "kitty"))
        ),
        excludes={"kitty"},
    )
    path = tmp_path / "vocab.tsv"
    save_vocabulary(vocab, path)
    assert path.read_bytes() == (
        b"#tagforge-vocab v1\n"
        b"#version=e6905796aa94\n"
        b"0\tbird\tbird\t2\tboth\n"
        b"1\tcat\tcat\t4\tcorpus\n"
        b"2\tdog\tdog|hound|pup|puppy\t13\tboth\n"
        b"3\towl\towl\t1\tseed\n"
        b"4\tunicorn\tunicorn\t0\tseed\n"
    )


def test_load_returns_the_rows_that_were_saved(tmp_path):
    rng = np.random.default_rng(11)
    for trial in range(80):
        n = int(rng.integers(1, 30))
        surfaces = [f"s{i:02d}" for i in range(n)]
        freq = {s: int(rng.integers(0, 6)) for s in surfaces if rng.random() < 0.8}
        seeds = [[s for s in surfaces + ["new"] if rng.random() < 0.15] for _ in range(2)]
        pairs = tuple(
            (surfaces[int(rng.integers(n))], surfaces[int(rng.integers(n))])
            for _ in range(int(rng.integers(0, n)))
        )
        excludes = {s for s in surfaces if rng.random() < 0.1}
        vocab = build_label_system(
            freq, int(rng.integers(0, n + 2)), seeds, SynonymLexicon(pairs), excludes
        )
        path = tmp_path / f"vocab{trial}.tsv"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded.groups == vocab.groups
        assert (loaded.version, loaded.surface_to_id) == (vocab.version, vocab.surface_to_id)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("not a vocab\n")
    with pytest.raises(VocabularyError):
        load_vocabulary(path)


@pytest.mark.parametrize(
    "rows, message",
    [
        (["0\tdog\tdog\t3\tcorpus", "1\tcat\tcat|dog\t2\tcorpus"], "duplicate surface 'dog'"),
        (["0\tdog\tdog\t3\tcorpus", "0\tpup\tpup\t2\tcorpus"], "tag_id 0 has two canonicals"),
        (["0\tdog\tdog\t3\tcorpus", "2\tcat\tcat\t2\tcorpus"], "tag_ids are not dense"),
    ],
    ids=["duplicate-surface", "two-canonicals", "not-dense"],
)
def test_load_names_the_file_in_structure_errors(tmp_path, rows, message):
    # a group without a canonical cannot be written: every row names its canonical
    path = tmp_path / "vocab.tsv"
    path.write_text("\n".join(["#tagforge-vocab v1", "#version=v", *rows]) + "\n")
    with pytest.raises(VocabularyError) as exc:
        load_vocabulary(path)
    assert str(exc.value).startswith(f"{path}: {message}")


def test_load_refuses_a_version_line_that_does_not_match_its_rows(tmp_path):
    vocab = build_label_system({"dog": 3, "cat": 2, "owl": 1}, 3)
    path = tmp_path / "vocab.tsv"
    save_vocabulary(vocab, path)
    header, version, cat, dog, owl = path.read_text().splitlines()
    assert (cat[:2], dog[:2]) == ("0\t", "1\t")
    # swap the tag ids of cat and dog: the rows change, the stated version does not
    cat, dog = "1" + cat[1:], "0" + dog[1:]
    path.write_text("\n".join([header, version, cat, dog, owl]) + "\n")
    rows_version = hashlib.sha256("\n".join([dog, cat, owl]).encode()).hexdigest()[:12]
    with pytest.raises(VocabularyError) as exc:
        load_vocabulary(path)
    assert str(exc.value) == (
        f"{path}: #version={vocab.version} does not match its rows ({rows_version})"
    )
    # the same rows under their own version load, with dog as tag id 0
    path.write_text("\n".join([header, f"#version={rows_version}", cat, dog, owl]) + "\n")
    assert load_vocabulary(path).canonicals == ("dog", "cat", "owl")


def test_map_tag(lexicons):
    vocab = build_label_system(
        {"cat": 9, "kitten": 4, "dog": 7}, k=3, synonyms=SynonymLexicon((("cat", "kitten"),))
    )
    assert map_tag("Dogs", vocab, lexicons) == vocab.surface_to_id["dog"]
    assert map_tag("unicycle", vocab, lexicons) is None
    assert map_tag("kitten", vocab, lexicons) == vocab.surface_to_id["cat"]
    assert map_tag("KITTENS", vocab, lexicons) == vocab.surface_to_id["cat"]


def test_map_tag_maps_every_parsed_surface_to_its_own_entry(lexicons):
    # "rose" and "seed" are lemmas the parser emits that lemmatize further
    # ("rise", "se"); a plural of every lexicon word reaches more such surfaces
    captions = ["two red roses", "a bag of seeds"]
    captions += [f"{word}s" for word in sorted(lexicons.pos_lexicon)]
    corpus = parse_corpus(
        [{"image_id": f"img{i}", "caption": caption} for i, caption in enumerate(captions)],
        lexicons,
    )
    assert {"rose", "seed"} <= set(corpus.frequencies)
    vocab = build_label_system(corpus.frequencies, k=len(corpus.frequencies))
    for surface in corpus.frequencies:
        assert map_tag(surface, vocab, lexicons) == vocab.surface_to_id[surface], surface


def test_map_tag_multiword(lexicons):
    vocab = build_label_system({"traffic light": 5}, k=1)
    assert map_tag("Traffic Lights", vocab, lexicons) == 0
