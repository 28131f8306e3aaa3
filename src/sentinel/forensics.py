"""Email forensics: keyword phishing scores, the offline-trained phishing
classifier that backs the pretrained-model variant, and the synthetic
email bodies the simulator sends.

Each email body gets one phishing probability: from the keyword heuristic,
or from the trained classifier in the pretrained-model variant. Training
runs on a labeled spam/ham corpus; a synthetic corpus generator is included
so the whole pipeline works without any external data. The saved model also
carries a corpus-level writing-style baseline estimated from the ham portion.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import asdict, dataclass
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from .rng import Xoshiro256StarStar, substream

MODEL_FORMAT_VERSION = 1
FAMILIES = ("multinomial", "linear")   # declaration order breaks accuracy ties
# Training settings.
VOCAB_CAP = 8000
HOLDOUT_FRACTION = 0.15
MIN_WORDS = 30          # drop shorter messages before training
NB_ALPHA = 1.0          # multinomial additive smoothing
MAX_CORPUS_DOCS = 10_000   # documents a synthetic corpus may hold


class TrainingError(ValueError):
    """Raised when a corpus cannot support classifier training."""


class ModelFormatError(ValueError):
    """Raised when a serialized model payload is corrupt or unsupported."""


def _load_keywords(name: str) -> tuple[str, ...]:
    text = resources.files("sentinel.data").joinpath(name).read_text("utf-8")
    return tuple(
        line.strip().lower()
        for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    )


URGENT_KEYWORDS = _load_keywords("keywords_urgent.txt")
SENSITIVE_KEYWORDS = _load_keywords("keywords_sensitive.txt")


# ---------------------------------------------------------------------------
# Tokenization and style statistics

_SENTENCE_SPLIT = re.compile(r"[.!?]+")
_TOKEN = re.compile(r"[a-z0-9']+")


def tokenize(text: str) -> list[list[str]]:
    """Rule-based sentence/token splitting, lowercased.

    Sentences split on ``.!?`` runs; tokens are maximal runs of
    lowercase alphanumerics (plus apostrophe). Empty text gives ``[]``.
    """
    sentences = []
    for raw in _SENTENCE_SPLIT.split(text.lower()):
        tokens = _TOKEN.findall(raw)
        if tokens:
            sentences.append(tokens)
    return sentences


def sentence_lengths(sentences: list[list[str]]) -> list[int]:
    return [len(s) for s in sentences]


def lexical_richness(sentences: list[list[str]]) -> float:
    """Type-token ratio over the whole text; 0.0 for empty text."""
    tokens = [t for s in sentences for t in s]
    if not tokens:
        return 0.0
    return len(set(tokens)) / len(tokens)


def _flat_tokens(text: str) -> list[str]:
    """tokenize()'s tokens in order, without the sentences: no token holds
    a sentence break, so one scan of the lowercased text finds them all."""
    return _TOKEN.findall(text.lower())


def _scan(text: str) -> tuple[Counter, str]:
    """Token counts and whitespace-normalized lowercase text, from one
    tokenisation: all that keyword matching reads."""
    lower = text.lower()
    return Counter(_TOKEN.findall(lower)), " ".join(lower.split())


def _hits(scan: tuple[Counter, str], keywords: Sequence[str]) -> int:
    """Occurrences of the keywords: single words on token boundaries,
    phrases as substrings of the whitespace-normalized text."""
    tokens, low = scan
    return sum([low.count(kw) if " " in kw else tokens.get(kw, 0)
                for kw in keywords])


# ---------------------------------------------------------------------------
# Style baseline

@dataclass(frozen=True)
class StyleBaseline:
    """Corpus-level writing-style reference statistics."""
    mean_sentence_length: float = 14.60
    lexical_richness: float = 0.633
    sentence_length_sd: float = 6.0
    richness_sd: float = 0.12

    def __post_init__(self):
        if self.mean_sentence_length <= 0:
            raise ValueError("mean sentence length must be > 0")
        if not 0.0 < self.lexical_richness <= 1.0:
            raise ValueError("lexical richness must be in (0, 1]")


# ---------------------------------------------------------------------------
# Vocabulary and features

def build_vocabulary(token_docs: Sequence[list[str]], cap: int) -> dict[str, int]:
    """Top-``cap`` terms by document frequency (ties broken alphabetically)."""
    df: dict[str, int] = {}
    for tokens in token_docs:
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    ranked = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))[:cap]
    return {term: i for i, term in enumerate(sorted(t for t, _ in ranked))}


def count_matrix(texts: Sequence[str], vocab: dict[str, int]) -> np.ndarray:
    """Raw term counts over the vocabulary plus two appended keyword features
    (sensitive-hit count, urgency-hit count)."""
    X = np.zeros((len(texts), len(vocab) + 2))
    for i, text in enumerate(texts):
        scan = _scan(text)
        for t, n in scan[0].items():
            j = vocab.get(t)
            if j is not None:
                X[i, j] += n
        X[i, len(vocab)] = _hits(scan, SENSITIVE_KEYWORDS)
        X[i, len(vocab) + 1] = _hits(scan, URGENT_KEYWORDS)
    return X


def tfidf_matrix(counts: np.ndarray, idf: np.ndarray) -> np.ndarray:
    """tf-idf with smoothed idf and row L2 normalization; the two trailing
    keyword columns pass through idf like any other term."""
    X = counts * idf
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return X / norms


def fit_idf(counts: np.ndarray) -> np.ndarray:
    n = counts.shape[0]
    df = (counts > 0).sum(axis=0)
    return np.log((1.0 + n) / (1.0 + df)) + 1.0


# ---------------------------------------------------------------------------
# Classifier families

class MultinomialClassifier:
    """Multinomial likelihood with additive smoothing over term counts."""

    def __init__(self, alpha: float = NB_ALPHA):
        self.alpha = alpha
        self.class_log_prior: Optional[np.ndarray] = None
        self.feature_log_prob: Optional[np.ndarray] = None

    def fit(self, counts: np.ndarray, y: np.ndarray) -> "MultinomialClassifier":
        classes = np.array([0, 1])
        self.class_log_prior = np.log(
            np.array([(y == c).sum() for c in classes]) / len(y)
        )
        log_prob = []
        for c in classes:
            totals = counts[y == c].sum(axis=0) + self.alpha
            log_prob.append(np.log(totals / totals.sum()))
        self.feature_log_prob = np.vstack(log_prob)
        return self

    def predict_proba(self, counts: np.ndarray) -> np.ndarray:
        """P(spam | doc) for each row."""
        joint = counts @ self.feature_log_prob.T + self.class_log_prior
        joint -= joint.max(axis=1, keepdims=True)
        post = np.exp(joint)
        return post[:, 1] / post.sum(axis=1)

    def params(self) -> dict:
        return {
            "alpha": self.alpha,
            "class_log_prior": self.class_log_prior.tolist(),
            "feature_log_prob": self.feature_log_prob.tolist(),
        }

    @classmethod
    def from_params(cls, p: dict) -> "MultinomialClassifier":
        clf = cls(alpha=p["alpha"])
        clf.class_log_prior = np.array(p["class_log_prior"])
        clf.feature_log_prob = np.array(p["feature_log_prob"])
        return clf


class LogisticClassifier:
    """L2-regularized logistic regression, full-batch gradient descent."""

    def __init__(self, lr: float = 1.0, l2: float = 1e-4, epochs: int = 200):
        self.lr = lr
        self.l2 = l2
        self.epochs = epochs
        self.weights: Optional[np.ndarray] = None  # last entry is the bias

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticClassifier":
        Xb = np.hstack([X, np.ones((X.shape[0], 1))])
        w = np.zeros(Xb.shape[1])
        n = len(y)
        for _ in range(self.epochs):
            p = 1.0 / (1.0 + np.exp(-(Xb @ w)))
            grad = Xb.T @ (p - y) / n + self.l2 * w
            w -= self.lr * grad
        self.weights = w
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        Xb = np.hstack([X, np.ones((X.shape[0], 1))])
        return 1.0 / (1.0 + np.exp(-(Xb @ self.weights)))

    def params(self) -> dict:
        return {"lr": self.lr, "l2": self.l2, "epochs": self.epochs,
                "weights": self.weights.tolist()}

    @classmethod
    def from_params(cls, p: dict) -> "LogisticClassifier":
        clf = cls(lr=p["lr"], l2=p["l2"], epochs=p["epochs"])
        clf.weights = np.array(p["weights"])
        return clf


# ---------------------------------------------------------------------------
# Training and the pretrained model artifact

@dataclass
class PretrainedModel:
    vocabulary: dict[str, int]
    idf: np.ndarray
    families: dict[str, dict]          # family name -> serializable params
    accuracies: dict[str, float]       # family name -> hold-out accuracy
    selected_family: str
    baseline: StyleBaseline

    def __post_init__(self):
        self._clfs = {
            "multinomial": MultinomialClassifier.from_params(self.families["multinomial"]),
            "linear": LogisticClassifier.from_params(self.families["linear"]),
        }

    def phishing_prob(self, body: str) -> float:
        counts = count_matrix([body], self.vocabulary)
        if self.selected_family == "multinomial":
            p = self._clfs["multinomial"].predict_proba(counts)[0]
        else:
            p = self._clfs["linear"].predict_proba(tfidf_matrix(counts, self.idf))[0]
        return float(p)


def _stratified_split(
    labels: Sequence[int], holdout_fraction: float, seed: int
) -> tuple[list[int], list[int]]:
    train_idx, test_idx = [], []
    rng = substream(seed, "holdout-split")
    for cls in (0, 1):
        idx = [i for i, y in enumerate(labels) if y == cls]
        rng.shuffle(idx)
        n_test = max(1, round(len(idx) * holdout_fraction))
        test_idx.extend(idx[:n_test])
        train_idx.extend(idx[n_test:])
    return sorted(train_idx), sorted(test_idx)


def train_classifier(
    corpus: Sequence[tuple[str, str]], seed: int = 7
) -> PretrainedModel:
    """Train both classifier families on a labeled (text, "spam"|"ham") corpus
    and select the one with the better hold-out accuracy; ``seed`` picks the
    hold-out split.

    The style baseline is estimated from the ham portion.
    """
    if not corpus:
        raise TrainingError("empty corpus")
    kept = [(t, l) for t, l in corpus if len(_flat_tokens(t)) > MIN_WORDS]
    if not kept:
        raise TrainingError(f"no messages above the {MIN_WORDS}-word minimum")
    labels = [1 if l == "spam" else 0 for _, l in kept]
    if len(set(labels)) < 2:
        raise TrainingError("corpus must contain both spam and ham")

    texts = [t for t, _ in kept]
    y = np.array(labels)
    train_idx, test_idx = _stratified_split(labels, HOLDOUT_FRACTION, seed)
    if len({labels[i] for i in train_idx}) < 2:
        raise TrainingError("each class needs a training document after the "
                            "hold-out split takes one or more of each")

    vocab = build_vocabulary([_flat_tokens(texts[i]) for i in train_idx], VOCAB_CAP)
    counts = count_matrix(texts, vocab)
    idf = fit_idf(counts[train_idx])
    tfidf = tfidf_matrix(counts, idf)

    nb = MultinomialClassifier().fit(counts[train_idx], y[train_idx])
    lin = LogisticClassifier().fit(tfidf[train_idx], y[train_idx])

    acc = {
        "multinomial": float(np.mean((nb.predict_proba(counts[test_idx]) >= 0.5) == y[test_idx])),
        "linear": float(np.mean((lin.predict_proba(tfidf[test_idx]) >= 0.5) == y[test_idx])),
    }
    selected = max(FAMILIES, key=lambda f: acc[f])

    ham_sentences = [tokenize(texts[i]) for i in train_idx if y[i] == 0]
    per_doc_len = [np.mean(sentence_lengths(s)) for s in ham_sentences if s]
    per_doc_rich = [lexical_richness(s) for s in ham_sentences if s]
    baseline = StyleBaseline(
        mean_sentence_length=float(np.mean(per_doc_len)),
        lexical_richness=float(np.mean(per_doc_rich)),
        sentence_length_sd=max(1.0, float(np.std(per_doc_len))),
        richness_sd=max(0.02, float(np.std(per_doc_rich))),
    )
    return PretrainedModel(
        vocabulary=vocab,
        idf=idf,
        families={"multinomial": nb.params(), "linear": lin.params()},
        accuracies=acc,
        selected_family=selected,
        baseline=baseline,
    )


def save_model(model: PretrainedModel) -> bytes:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "vocabulary": model.vocabulary,
        "idf": model.idf.tolist(),
        "families": model.families,
        "accuracies": model.accuracies,
        "selected_family": model.selected_family,
        "baseline": asdict(model.baseline),
    }
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def load_model(payload: bytes) -> PretrainedModel:
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ModelFormatError(f"corrupt model payload: {exc}") from exc
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {version!r} "
            f"(this build reads version {MODEL_FORMAT_VERSION})"
        )
    try:
        model = PretrainedModel(
            vocabulary=doc["vocabulary"],
            idf=np.array(doc["idf"]),
            families=doc["families"],
            accuracies=doc["accuracies"],
            selected_family=doc["selected_family"],
            baseline=StyleBaseline(**doc["baseline"]),
        )
    except KeyError as exc:
        raise ModelFormatError(f"incomplete model payload: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model payload: {exc}") from exc
    # Everything phishing_prob reads: a vocabulary that maps terms onto
    # columns, the family it names, and finite parameters of the shapes that
    # vocabulary plus the two keyword columns gives.
    vocab = model.vocabulary
    if not (isinstance(vocab, dict) and all(
            type(j) is int and 0 <= j < len(vocab) for j in vocab.values())):
        raise ModelFormatError(
            "malformed model payload: vocabulary must map each term to a "
            "column 0..n-1")
    n = len(vocab) + 2
    if model.selected_family not in FAMILIES:
        raise ModelFormatError(
            f"malformed model payload: unknown selected_family "
            f"{model.selected_family!r}")
    nb, lin = model._clfs["multinomial"], model._clfs["linear"]
    for name, array, shape in (
            ("idf", model.idf, (n,)),
            ("class_log_prior", nb.class_log_prior, (2,)),
            ("feature_log_prob", nb.feature_log_prob, (2, n)),
            ("weights", lin.weights, (n + 1,))):
        if not (array.shape == shape and array.dtype.kind in "fi"
                and np.isfinite(array).all()):
            raise ModelFormatError(
                f"malformed model payload: {name} must hold {shape} finite "
                f"numbers for {n - 2} vocabulary terms")
    return model


# ---------------------------------------------------------------------------
# Keyword heuristic

def keyword_phishing_score(body: str) -> float:
    """Keyword-only phishing heuristic used when no pretrained model is loaded."""
    scan = _scan(body)
    s, u = _hits(scan, SENSITIVE_KEYWORDS), _hits(scan, URGENT_KEYWORDS)
    return min(1.0, 0.18 * s + 0.22 * u)


# ---------------------------------------------------------------------------
# Synthetic corpus and body generation

# Neutral corporate vocabulary. Deliberately avoids every word that appears
# in (or could concatenate into) the urgency/sensitive keyword lists, so
# generated benign text scores zero keyword hits.
BENIGN_WORDS = (
    "the project team meeting schedule update review draft report quarterly "
    "budget planning session agenda minutes summary feedback revision client "
    "vendor invoice timeline milestone deliverable status progress weekly "
    "monthly office staffing roster training workshop presentation slides "
    "document folder archive backup server deployment release version testing "
    "quality metrics dashboard analysis results findings proposal contract "
    "renewal process workflow approval request form template checklist policy "
    "guideline standard procedure onboarding equipment maintenance upgrade "
    "migration integration platform module feature enhancement issue ticket "
    "resolution support customer partner regional branch department division"
).split()

_SPAM_TEMPLATES = (
    "urgent notice your account has been suspended and requires validation . "
    "click here immediately to restore access before your password expires . "
    "failure to act now will result in a penalty and permanent loss of data . "
    "this is the final notice from the security desk so respond right away .",
    "please verify your payroll details immediately as the salary system flagged "
    "an overdue confirmation . click here and enter your credentials to confirm now . "
    "this request expires today and the penalty for delay is account suspension . "
    "treat this as confidential and do not share it with the team .",
    "attached invoice is overdue and requires a wire transfer immediately . "
    "confirm now using the secure link and verify your billing password today . "
    "act now to avoid a late penalty as this is the last warning we can send . "
    "the finance desk marked this confidential and urgent for processing .",
    "congratulations you were selected for an exclusive reward but it expires soon . "
    "click here right away and verify your identity with your password to claim it . "
    "this offer is urgent and the link will be suspended after the final notice . "
    "respond asap and keep the details secret until the transfer completes .",
    "the compliance desk flagged classified customer records in your mailbox . "
    "verify your access immediately or the account will be suspended today . "
    "download the attachment and confirm now before the audit penalty applies . "
    "this medical records review is urgent so act now and reply asap .",
)

_LEAK_SENTENCES = (
    "the confidential records are attached for review",
    "keep this secret and delete after reading",
    "patient files from the archive are included",
    "payroll extracts are in the attachment",
    "these proprietary documents stay between us",
    "the classified summary covers the board discussions",
    "customer records from the latest pull are enclosed",
    "credentials for the shared drive are below",
)

_LEAK_URGENT_SENTENCES = (
    "send payment immediately once you confirm receipt",
    "act now because the transfer window expires tonight",
    "this is urgent so respond asap",
)


def compose_body(
    rng: Xoshiro256StarStar, mean_len: float, sd: float, n_sentences: int,
) -> str:
    """Template-free benign prose from ``BENIGN_WORDS``: sentences of seeded
    length around mean_len."""
    sentences = []
    for _ in range(n_sentences):
        length = max(3, int(round(mean_len + sd * rng.gauss())))
        words = rng.choices(BENIGN_WORDS, length)
        sentences.append(" ".join(words).capitalize() + ".")
    return " ".join(sentences)


def generate_leak_body(rng: Xoshiro256StarStar, dense: bool = False) -> str:
    """Suspicious email body with sensitive-keyword content; ``dense`` bodies
    add urgency phrasing and an extra sensitive sentence, which pushes them
    over the keyword-heuristic threshold. Sparse bodies stay below it and are
    only caught by a trained classifier."""
    picks = rng.choices(_LEAK_SENTENCES, rng.randint(2, 3))
    if dense:
        picks.append(rng.choice(_LEAK_URGENT_SENTENCES))
        picks.append(rng.choice(_LEAK_SENTENCES))
    filler = compose_body(rng, 10.0, 2.0, 1)
    sentences = [p.capitalize() + "." for p in picks]
    return filler + " " + " ".join(sentences)


def generate_synthetic_corpus(
    seed: int, n_ham: int, n_spam: int
) -> list[tuple[str, str]]:
    """Deterministic labeled corpus: business-prose ham around the default
    style baseline, and template-derived spam with urgency/credential content."""
    if n_ham < 1 or n_spam < 1 or n_ham + n_spam > MAX_CORPUS_DOCS:
        raise ValueError(f"a synthetic corpus needs at least one document "
                         f"per class and at most {MAX_CORPUS_DOCS} in all, "
                         f"got n_ham={n_ham}, n_spam={n_spam}")
    rng = substream(seed, "synthetic-corpus")
    base = StyleBaseline()
    corpus: list[tuple[str, str]] = []
    for _ in range(n_ham):
        n_sent = rng.randint(3, 6)
        body = compose_body(rng, base.mean_sentence_length, 3.5, n_sent)
        corpus.append((body, "ham"))
    for _ in range(n_spam):
        template = rng.choice(_SPAM_TEMPLATES)
        # splice in benign filler so spam docs vary and stay over the length filter
        body = template + " " + compose_body(rng, 11.0, 2.5, rng.randint(1, 2))
        corpus.append((body, "spam"))
    return corpus
