"""IP2Vec: word2vec-style embeddings of header-field values (Ring et
al. 2017), used by NetShare for ports and protocols (Insight 2).

As in Word2Vec, each five-tuple indexes a "sentence" whose words are
its field values; skip-gram with negative sampling learns a vector per
word, and generated vectors are decoded by nearest-neighbour search
over the dictionary.

Privacy nuance reproduced from the paper: the dictionary is training-
data-dependent, so NetShare trains IP2Vec on *public* data (a CAIDA
Chicago trace), embedding only ports and protocols (whose vocabulary a
public trace covers almost completely), while IPs use bit encoding.
The E-WGAN-GP baseline instead embeds *every* field on the private
data, which Table 2 flags as not privacy-safe.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["IP2Vec", "five_tuple_sentences", "token"]


def token(kind: str, value) -> str:
    """Namespace a field value, e.g. token('dp', 80) -> 'dp:80'."""
    return f"{kind}:{int(value)}"


def five_tuple_sentences(trace, include_ips: bool = False) -> List[List[str]]:
    """One sentence per record: its five-tuple's words.

    Ports are namespaced by direction and protocol gets its own kind, so
    'dp:53' and 'sp:53' are distinct words (as in the original IP2Vec).
    """
    sentences = []
    for i in range(len(trace)):
        words = [
            token("sp", trace.src_port[i]),
            token("dp", trace.dst_port[i]),
            token("pr", trace.protocol[i]),
        ]
        if include_ips:
            words = [
                token("sa", trace.src_ip[i]),
                token("da", trace.dst_ip[i]),
            ] + words
        sentences.append(words)
    return sentences


class IP2Vec:
    """Skip-gram with negative sampling over header-value sentences."""

    def __init__(self, dim: int = 12, negative: int = 5, epochs: int = 3,
                 lr: float = 0.05, seed: int = 0):
        if dim < 1:
            raise ValueError("embedding dimension must be positive")
        if negative < 1:
            raise ValueError("need at least one negative sample")
        self.dim = dim
        self.negative = negative
        self.epochs = epochs
        self.lr = lr
        self.seed = seed
        self.vocab: Dict[str, int] = {}
        self.inverse_vocab: List[str] = []
        self.vectors: Optional[np.ndarray] = None       # input embeddings
        self._context: Optional[np.ndarray] = None      # output embeddings

    # ------------------------------------------------------------------
    def fit(self, sentences: Sequence[Sequence[str]]) -> "IP2Vec":
        """Train embeddings on token sentences."""
        if not sentences:
            raise ValueError("no sentences to train on")
        rng = np.random.default_rng(self.seed)
        self.vocab = {}
        counts: List[int] = []
        pairs: List[Tuple[int, int]] = []
        for sentence in sentences:
            ids = []
            for word in sentence:
                idx = self.vocab.get(word)
                if idx is None:
                    idx = len(self.vocab)
                    self.vocab[word] = idx
                    counts.append(0)
                counts[idx] += 1
                ids.append(idx)
            # Full-sentence context window (sentences are 3-5 words).
            for i, center in enumerate(ids):
                for j, context in enumerate(ids):
                    if i != j:
                        pairs.append((center, context))
        self.inverse_vocab = [None] * len(self.vocab)
        for word, idx in self.vocab.items():
            self.inverse_vocab[idx] = word
        self.counts = np.array(counts, dtype=np.int64)

        v = len(self.vocab)
        self.vectors = rng.normal(0.0, 0.5 / self.dim, size=(v, self.dim))
        self._context = np.zeros((v, self.dim))

        # Unigram^(3/4) negative-sampling distribution, as in word2vec.
        freq = np.array(counts, dtype=np.float64) ** 0.75
        neg_probs = freq / freq.sum()

        pair_arr = np.array(pairs, dtype=np.int64)
        for _ in range(self.epochs):
            order = rng.permutation(len(pair_arr))
            for idx in order:
                center, context = pair_arr[idx]
                negatives = rng.choice(v, size=self.negative, p=neg_probs)
                self._sgd_step(center, context, negatives)
        return self

    def _sgd_step(self, center: int, context: int, negatives: np.ndarray):
        v_c = self.vectors[center]
        targets = np.concatenate([[context], negatives])
        labels = np.zeros(len(targets))
        labels[0] = 1.0
        outs = self._context[targets]            # (k, dim)
        scores = outs @ v_c                      # (k,)
        preds = 1.0 / (1.0 + np.exp(-np.clip(scores, -30, 30)))
        errors = (preds - labels)[:, None]       # (k, 1)
        grad_center = (errors * outs).sum(axis=0)
        self._context[targets] -= self.lr * errors * v_c[None, :]
        self.vectors[center] -= self.lr * grad_center

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Fitted state as arrays + JSON-able values (for .npz saves)."""
        self._check_fitted()
        return {
            "dim": self.dim,
            "negative": self.negative,
            "epochs": self.epochs,
            "lr": self.lr,
            "seed": self.seed,
            "vocab": list(self.inverse_vocab),   # words in index order
            "vectors": self.vectors.copy(),
            "context": self._context.copy(),
            "counts": self.counts.copy(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "IP2Vec":
        """Rebuild a fitted IP2Vec from :meth:`state_dict` output."""
        model = cls(dim=int(state["dim"]), negative=int(state["negative"]),
                    epochs=int(state["epochs"]), lr=float(state["lr"]),
                    seed=int(state["seed"]))
        words = [str(w) for w in state["vocab"]]
        model.vocab = {word: i for i, word in enumerate(words)}
        model.inverse_vocab = words
        model.vectors = np.asarray(state["vectors"], dtype=np.float64)
        model._context = np.asarray(state["context"], dtype=np.float64)
        model.counts = np.asarray(state["counts"], dtype=np.int64)
        return model

    # ------------------------------------------------------------------
    def _check_fitted(self):
        if self.vectors is None:
            raise RuntimeError("IP2Vec is not fitted; call fit() first")

    def __contains__(self, word: str) -> bool:
        return word in self.vocab

    def vector(self, word: str) -> np.ndarray:
        self._check_fitted()
        idx = self.vocab.get(word)
        if idx is None:
            raise KeyError(f"word {word!r} not in the IP2Vec dictionary")
        return self.vectors[idx]

    def _kind_values(self, kind: str):
        """Sorted (values, vocab indices) of one namespace, cached."""
        cache = getattr(self, "_kind_cache", None)
        if cache is None:
            cache = {}
            self._kind_cache = cache
        if kind not in cache:
            pairs = sorted(
                (int(w.split(":", 1)[1]), i)
                for w, i in self.vocab.items() if w.startswith(kind + ":")
            )
            values = np.array([p[0] for p in pairs], dtype=np.int64)
            indices = np.array([p[1] for p in pairs], dtype=np.int64)
            cache[kind] = (values, indices)
        return cache[kind]

    def encode_many(self, words: Iterable[str],
                    default_kind: Optional[str] = None) -> np.ndarray:
        """Stack vectors for words.

        A word missing from the (public) dictionary is represented by
        the *numerically nearest* known value of its kind — e.g. an
        unseen private port 4444 borrows the vector of the closest
        public port.  This mirrors how a fixed public dictionary can
        still cover rare private values (Insight 2) while keeping the
        round trip within the value's histogram neighbourhood.
        """
        self._check_fitted()
        rows = []
        for word in words:
            idx = self.vocab.get(word)
            if idx is not None:
                rows.append(self.vectors[idx])
                continue
            kind, _, raw = word.partition(":")
            values, indices = self._kind_values(kind)
            if len(values) == 0:
                rows.append(np.zeros(self.dim))
                continue
            target = int(raw)
            pos = np.searchsorted(values, target)
            candidates = [p for p in (pos - 1, pos) if 0 <= p < len(values)]
            nearest = min(candidates, key=lambda p: abs(int(values[p]) - target))
            rows.append(self.vectors[indices[nearest]])
        return np.array(rows)

    def decode_many(self, vectors: np.ndarray, kind: str) -> List[str]:
        """Nearest-neighbour decode restricted to one namespace."""
        self._check_fitted()
        candidates = [
            (w, i) for w, i in self.vocab.items() if w.startswith(kind + ":")
        ]
        if not candidates:
            raise KeyError(f"no words of kind {kind!r} in the dictionary")
        words = [w for w, _ in candidates]
        matrix = self.vectors[[i for _, i in candidates]]  # (k, dim)
        vectors = np.asarray(vectors, dtype=np.float64)
        # Squared euclidean nearest neighbour.
        d2 = (
            (vectors**2).sum(axis=1)[:, None]
            - 2.0 * vectors @ matrix.T
            + (matrix**2).sum(axis=1)[None, :]
        )
        nearest = d2.argmin(axis=1)
        return [words[i] for i in nearest]

    def decode_values(self, vectors: np.ndarray, kind: str) -> np.ndarray:
        """Decode to integer field values (strips the namespace)."""
        words = self.decode_many(vectors, kind)
        return np.array([int(w.split(":", 1)[1]) for w in words], dtype=np.int64)

    def vocabulary_of_kind(self, kind: str) -> List[int]:
        """All known values of one namespace, sorted."""
        return sorted(
            int(w.split(":", 1)[1]) for w in self.vocab if w.startswith(kind + ":")
        )

    def anchor_set(self, kind: str, max_anchors: int = 48,
                   seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """Anchor vectors plus their public-data frequencies.

        Returns up to ``max_anchors`` dictionary vectors of one
        namespace: the most frequent tokens (the heavy service-port
        modes) plus a random sample of the rest (the ephemeral cloud).
        They are the fixed anchor set of the GAN's metadata head.  The
        frequencies serve as a categorical prior for the GAN's
        anchor head: the generator starts from the public token
        distribution (an Insight-4-style use of public data) and the
        adversarial training shifts it toward the private one.
        """
        self._check_fitted()
        members = [(w, i) for w, i in self.vocab.items()
                   if w.startswith(kind + ":")]
        if not members:
            raise KeyError(f"no words of kind {kind!r} in the dictionary")
        indices = np.array([i for _, i in members])
        freq = self.counts[indices]
        order = np.argsort(-freq)
        if len(indices) <= max_anchors:
            chosen = indices[order]
        else:
            n_top = max_anchors // 2
            top = indices[order[:n_top]]
            rest = indices[order[n_top:]]
            rng = np.random.default_rng(seed)
            sampled = rng.choice(rest, size=max_anchors - n_top, replace=False)
            # Sampled tail anchors each *represent* many unsampled
            # tokens; spread the unsampled mass across them.
            chosen = np.concatenate([top, sampled])
        counts = self.counts[chosen].astype(np.float64)
        if len(indices) > max_anchors:
            n_top = max_anchors // 2
            total_tail = float(self.counts[indices].sum()
                               - self.counts[indices[order[:n_top]]].sum())
            counts[n_top:] = total_tail / (max_anchors - n_top)
        return self.vectors[chosen].copy(), counts
