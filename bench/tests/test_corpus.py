import random

from corpus import CorpusSpec, _clean_line, add_noise, generate, rawify
from fraktur_bench.codec import default_codec
from fraktur_bench.normalize import default_rules, normalize_text
from workloads import ENGINES, VOTE_ENGINES

CODEC = default_codec().characters


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_same_seed_gives_byte_identical_trees(tmp_path):
    for spec in (
        CorpusSpec("eval", ("N", "O"), 2, 4, (30, 90), ENGINES),
        CorpusSpec("vote", ("N",), 2, 4, (30, 90), VOTE_ENGINES, conf_sidecars=True),
        CorpusSpec("prep", ("N", "S"), 2, 4, (30, 90)),
    ):
        first = _tree(generate(spec, 7, tmp_path / spec.layout / "a", CODEC).root)
        again = _tree(generate(spec, 7, tmp_path / spec.layout / "b", CODEC).root)
        other = _tree(generate(spec, 8, tmp_path / spec.layout / "c", CODEC).root)
        assert first and first == again
        assert first.keys() == other.keys() and first != other


def test_rawified_ground_truth_normalizes_to_the_clean_text():
    rng = random.Random(3)
    rules = default_rules()
    members = frozenset(CODEC)
    for _ in range(300):
        clean = _clean_line(rng, rng.randint(30, 400), members)
        assert set(clean) <= members
        assert normalize_text(clean, rules) == clean
        assert normalize_text(rawify(rng, clean, 0.5), rules) == clean


def test_noise_counts_its_edits():
    rng = random.Random(5)
    alphabet = tuple(c for c in CODEC if c != " ")
    for noise in VOTE_ENGINES:
        pred = add_noise(rng, "a" * 200, noise, alphabet, with_conf=True)
        assert abs(len(pred.text) - 200) <= pred.edits
        assert len(pred.confidences) == len(pred.text)
        assert all(0.0 <= v <= 1.0 for v in pred.confidences)


def test_stats_match_the_written_tree(tmp_path):
    spec = CorpusSpec("prep", ("N", "O"), 2, 3, (30, 60))
    corpus = generate(spec, 1, tmp_path / "c", CODEC)
    files = _tree(corpus.root)
    assert corpus.stats["lines"] == 12
    assert corpus.stats["files"] == len(files) == 2 * 12 + 1
    assert corpus.stats["bytes"] == sum(len(b) for b in files.values())
    assert corpus.stats["gt_chars"] == sum(len(r.clean) for r in corpus.lines)
