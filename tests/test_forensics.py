"""Email forensics: tokenization, keyword scoring, classifiers, model serde."""

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import oracle_layers
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_engine_differential import BODIES

from sentinel import forensics
from sentinel.forensics import (HOLDOUT_FRACTION, MIN_WORDS,
                                SENSITIVE_KEYWORDS, URGENT_KEYWORDS,
                                VOCAB_CAP, ModelFormatError,
                                MultinomialClassifier, TrainingError,
                                _hits, _row, _scan, _stratified_split,
                                build_vocabulary, count_matrix,
                                generate_leak_body,
                                generate_synthetic_corpus,
                                keyword_phishing_score,
                                load_model, save_model, train_classifier)
from sentinel.rng import substream


# -- tokenization and keyword hits ------------------------------------------

def test_count_keyword_hits_words_and_phrases():
    text = "Reset your password now. The passwords stay safe. wire  transfer due."
    assert _hits(_scan(text), ["password"]) == 1  # not "passwords"
    assert _hits(_scan(text), ["wire transfer"]) == 1  # whitespace folded
    assert _hits(_scan(text), ["password", "wire transfer"]) == 2
    assert _hits(_scan(""), ["password"]) == 0


def test_keyword_phishing_score_formula():
    # custom body with known hit counts against the bundled lists
    body = "the confidential report is urgent"
    s = _hits(_scan(body), SENSITIVE_KEYWORDS)
    u = _hits(_scan(body), URGENT_KEYWORDS)
    assert keyword_phishing_score(body) == pytest.approx(min(1.0, 0.18 * s + 0.22 * u))
    assert keyword_phishing_score("plain schedule update") == 0.0


def _frozen_counts(texts):
    """count_matrix rows built with the frozen tokenizer and keyword counter,
    over a vocabulary of every token the texts hold plus one absent term."""
    docs = [[t for s in oracle_layers.tokenize(x) for t in s] for x in texts]
    vocab = {t: i for i, t in enumerate(sorted(
        {t for doc in docs for t in doc} | {"absent"}))}
    rows = np.zeros((len(texts), len(vocab) + 2))
    for row, text, doc in zip(rows, texts, docs):
        for t in doc:
            row[vocab[t]] += 1.0
        row[-2] = oracle_layers.count_keyword_hits(
            text, oracle_layers.SENSITIVE_KEYWORDS)
        row[-1] = oracle_layers.count_keyword_hits(
            text, oracle_layers.URGENT_KEYWORDS)
    return vocab, rows


def test_count_matrix_matches_frozen_counts():
    rng = substream(5, "count-matrix")
    texts = list(BODIES) + [text for text, _ in generate_synthetic_corpus(
        5, 10, 10)] + [generate_leak_body(rng, dense) for dense in (0, 1)]
    vocab, expected = _frozen_counts(texts)
    assert np.array_equal(
        count_matrix([_row(_scan(t)) for t in texts], vocab), expected)


_KEYWORD_WORDS = SENSITIVE_KEYWORDS + URGENT_KEYWORDS + ("budget", "it's")


@given(parts=st.lists(st.tuples(
    st.sampled_from(_KEYWORD_WORDS).flatmap(lambda w: st.sampled_from(
        [w, w.upper(), w.replace(" ", "  "), w.replace(" ", "\n"),
         w.replace(" ", "-"), w + "'s", w + "s", "x" + w, w + " " + w])),
    st.sampled_from(["", " ", "\t", "\n ", ".", ". ", ", ", "!", "'"])),
    max_size=30))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_count_matrix_matches_frozen_counts_on_keyword_edges(parts):
    # Repeated and overlapping phrases ("trade secret" holds "secret"),
    # keywords glued to their neighbours, and punctuation at token edges.
    text = "".join(word + sep for word, sep in parts)
    vocab, expected = _frozen_counts([text])
    assert np.array_equal(count_matrix([_row(_scan(text))], vocab), expected)


def test_build_vocabulary_ranking_and_cap():
    docs = [["a", "b"], ["a", "c"], ["a", "b"], ["d"]]
    # df: a=3, b=2, c=1, d=1; cap 3 keeps a, b, then c by alphabet
    vocab = build_vocabulary(docs, cap=3)
    assert set(vocab) == {"a", "b", "c"}
    assert list(vocab.values()) == [0, 1, 2]  # indices follow sorted terms


# -- naive Bayes against a brute-force oracle -------------------------------

def brute_force_posterior(train_counts, y, query, alpha):
    """Direct multinomial Bayes computation on raw count vectors."""
    post = []
    for c in (0, 1):
        rows = train_counts[y == c]
        prior = len(rows) / len(y)
        totals = rows.sum(axis=0) + alpha
        theta = totals / totals.sum()
        log_lik = float(np.sum(query * np.log(theta)))
        post.append(math.log(prior) + log_lik)
    m = max(post)
    exps = [math.exp(p - m) for p in post]
    return exps[1] / sum(exps)


def test_multinomial_matches_brute_force_bayes():
    rng = substream(5, "nb-oracle")
    for _ in range(30):
        n_docs = rng.randint(4, 5)
        n_terms = rng.randint(3, 6)
        counts = np.array([[rng.randint(0, 4) for _ in range(n_terms)]
                           for _ in range(n_docs)], dtype=float)
        y = np.array([0, 1] + [rng.randint(0, 1) for _ in range(n_docs - 2)])
        clf = MultinomialClassifier(alpha=1.0).fit(counts, y)
        for row in counts:
            expected = brute_force_posterior(counts, y, row, alpha=1.0)
            assert clf.predict_proba(row[None, :])[0] == pytest.approx(expected)


# -- training, selection, serde ---------------------------------------------

def test_train_classifier_validation():
    with pytest.raises(TrainingError, match="empty"):
        train_classifier([])
    with pytest.raises(TrainingError, match="minimum"):
        train_classifier([("short text", "ham"), ("also short", "spam")])
    long_ham = ("word " * 40, "ham")
    with pytest.raises(TrainingError, match="both spam and ham"):
        train_classifier([long_ham, long_ham])


class _CountingPattern:
    """Stands in for ``forensics._TOKEN`` and counts its ``findall`` calls."""

    def __init__(self, pattern):
        self.pattern, self.findall_calls = pattern, 0

    def findall(self, text):
        self.findall_calls += 1
        return self.pattern.findall(text)


def test_training_tokenises_each_document_once(monkeypatch):
    corpus = generate_synthetic_corpus(4242, 1700, 300)
    token = _CountingPattern(forensics._TOKEN)
    monkeypatch.setattr(forensics, "_TOKEN", token)
    train_classifier(corpus)
    assert token.findall_calls == len(corpus) == 2000


# Words of exactly one token each (apostrophes, digits, mixed case, single
# keywords and the halves of "wire transfer" and "click here"), and the gaps
# between them: whitespace, punctuation, and runs of sentence ends that leave
# empty sentences.
_ONE_TOKEN_WORDS = ("budget", "Review", "It's", "o'clock", "'", "Q3", "2024",
                    "URGENT", "password", "Confidential", "secret", "wire",
                    "transfer", "click", "here")
_GAPS = (" ", "  ", "\n", "\t ", ", ", " - ", ".", ". ", "... ", "?! ", "!",
         " . . ", "!?. ")


@st.composite
def _document(draw, lengths):
    n = draw(lengths)
    words = draw(st.lists(st.sampled_from(_ONE_TOKEN_WORDS),
                          min_size=n, max_size=n))
    gaps = draw(st.lists(st.sampled_from(_GAPS), min_size=n + 1,
                         max_size=n + 1))
    return gaps[0] + "".join(w + g for w, g in zip(words, gaps[1:]))


_KEPT = st.integers(MIN_WORDS + 1, MIN_WORDS + 12)
_ANY_LENGTH = st.sampled_from([MIN_WORDS, MIN_WORDS + 1]) | st.integers(
    1, MIN_WORDS + 12)


@st.composite
def _training_corpus(draw):
    """Two documents of each class that pass the word minimum, then up to
    four of any length, shuffled."""
    docs = []
    for label in ("ham", "spam"):
        texts = draw(st.lists(_document(_KEPT), min_size=2, max_size=2)) + \
            draw(st.lists(_document(_ANY_LENGTH), max_size=4))
        docs += [(text, label) for text in texts]
    return draw(st.permutations(docs))


def _frozen_training_reference(corpus, seed):
    """The vocabulary, count rows and style baseline floats of training,
    rebuilt from the frozen sentence tokenizer."""
    sentences = [oracle_layers.tokenize(text) for text, _ in corpus]
    kept = [i for i, s in enumerate(sentences) if sum(map(len, s)) > MIN_WORDS]
    labels = [int(corpus[i][1] == "spam") for i in kept]
    train_idx, _ = _stratified_split(labels, HOLDOUT_FRACTION, seed)
    docs = [[t for s in sentences[i] for t in s] for i in kept]
    terms = sorted({t for j in train_idx for t in docs[j]})
    assert len(terms) <= VOCAB_CAP   # so no term is ranked out
    vocab = {t: i for i, t in enumerate(terms)}
    rows = np.zeros((len(kept), len(vocab) + 2))
    for row, i, doc in zip(rows, kept, docs):
        for t in doc:
            if t in vocab:
                row[vocab[t]] += 1.0
        row[-2] = oracle_layers.count_keyword_hits(
            corpus[i][0], oracle_layers.SENSITIVE_KEYWORDS)
        row[-1] = oracle_layers.count_keyword_hits(
            corpus[i][0], oracle_layers.URGENT_KEYWORDS)
    ham = [sentences[kept[j]] for j in train_idx if labels[j] == 0]
    per_doc_len = [np.mean([len(s) for s in doc]) for doc in ham]
    per_doc_rich = [len({t for s in doc for t in s}) / sum(map(len, doc))
                    for doc in ham]
    baseline = (float(np.mean(per_doc_len)), float(np.mean(per_doc_rich)),
                max(1.0, float(np.std(per_doc_len))),
                max(0.02, float(np.std(per_doc_rich))))
    return vocab, rows, baseline


@given(corpus=_training_corpus())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_training_matches_the_frozen_tokenizer(corpus):
    vocab, rows, baseline = _frozen_training_reference(corpus, seed=7)
    built = []

    def spy(*args):
        built.append(count_matrix(*args))
        return built[-1]

    with mock.patch.object(forensics, "count_matrix", spy):
        model = train_classifier(corpus, seed=7)
    assert model.vocabulary == vocab
    assert len(built) == 1 and np.array_equal(built[0], rows)
    assert [x.hex() for x in dataclasses.astuple(model.baseline)] == \
        [x.hex() for x in baseline]


def test_train_and_round_trip_model():
    corpus = generate_synthetic_corpus(seed=21, n_ham=120, n_spam=40)
    model = train_classifier(corpus, seed=21)
    assert model.selected_family in model.families
    assert model.accuracies[model.selected_family] >= 0.9
    clone = load_model(save_model(model))
    for body, _ in corpus[:10]:
        assert clone.phishing_prob(body) == pytest.approx(model.phishing_prob(body))
    assert clone.selected_family == model.selected_family


# A valid model document small enough to mutate, and bodies that hit its
# vocabulary, both keyword lists, and nothing at all.
_MODEL_DOC = save_model(train_classifier(
    generate_synthetic_corpus(seed=5, n_ham=100, n_spam=30)))
_BODIES = ("urgent notice: verify your password and wire transfer now.",
           "Quarterly budget review draft for the project team.", "")
_HOSTILE = st.sampled_from([None, True, "x", "linear", -1, 0, 1.5, 10**400,
                            float("nan"), float("inf"), [], [1.0], {},
                            {"a": 1}])


@st.composite
def _mutated_model(draw):
    """The model document with one value replaced, deleted or appended to,
    at a path picked from the root down."""
    doc = json.loads(_MODEL_DOC)
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and (
            parent is None or draw(st.booleans())):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = parent[key]
    if parent is None:
        return json.dumps(draw(_HOSTILE)).encode()
    action = draw(st.sampled_from(["replace", "delete", "append"]))
    if action == "replace":
        parent[key] = draw(_HOSTILE)
    elif action == "delete":
        del parent[key]
    elif isinstance(node, list):
        node.append(draw(_HOSTILE))
    elif isinstance(node, dict):
        node[draw(st.sampled_from(["a", "linear", "idf"]))] = draw(_HOSTILE)
    return json.dumps(doc).encode()


@given(payload=_mutated_model())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_mutated_model_is_rejected_or_scores_in_unit_interval(payload):
    try:
        model = load_model(payload)
    except ModelFormatError:
        return
    for body in _BODIES:
        p = model.phishing_prob(body)
        assert isinstance(p, float) and 0.0 <= p <= 1.0


def test_load_model_rejects_bad_payloads():
    with pytest.raises(ModelFormatError, match="corrupt"):
        load_model(b"{nope")
    with pytest.raises(ModelFormatError, match="version"):
        load_model(b'{"format_version": 99}')
    with pytest.raises(ModelFormatError, match="incomplete"):
        load_model(b'{"format_version": 1, "vocabulary": {}}')


# -- leak bodies ------------------------------------------------------------

def test_leak_bodies_separate_on_keyword_heuristic():
    rng = substream(77, "leak-sep")
    for _ in range(200):
        sparse = keyword_phishing_score(generate_leak_body(rng, dense=False))
        dense = keyword_phishing_score(generate_leak_body(rng, dense=True))
        assert sparse < 0.7
        assert dense >= 0.7


def test_trained_model_catches_sparse_leaks():
    corpus = generate_synthetic_corpus(seed=21, n_ham=400, n_spam=100)
    model = train_classifier(corpus, seed=21)
    rng = substream(78, "leak-model")
    flagged = sum(model.phishing_prob(generate_leak_body(rng)) >= 0.7
                  for _ in range(100))
    assert flagged >= 90
