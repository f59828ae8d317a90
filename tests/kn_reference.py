"""Brute-force modified Kneser-Ney reference used to cross-check the engine.

Deliberately naive and structured nothing like the package: string keys,
raw windows re-extracted at every order, per-query linear scans, and
probabilities interpolated by direct recursion instead of a stored
back-off representation. Slow, but each line maps straight onto the
definitions it implements.
"""

from collections import Counter
from math import log10

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"


class KNReference:
    def __init__(self, lines, order, boundaries, fallback=None):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.boundaries = boundaries
        seqs = []
        for line in lines:
            toks = line.split()
            if not toks:
                continue
            seqs.append([BOS, *toks, EOS] if boundaries else toks)
        if not seqs:
            raise ValueError("empty corpus")

        # Raw occurrence counts at every order 1..N, skipping windows that
        # are nothing but <s>.
        raw = {k: Counter() for k in range(1, order + 1)}
        for seq in seqs:
            for k in range(1, order + 1):
                for i in range(len(seq) - k + 1):
                    g = tuple(seq[i : i + k])
                    if all(t == BOS for t in g):
                        continue
                    raw[k][g] += 1

        vocab = {UNK}
        for seq in seqs:
            vocab.update(seq)
        self.vocab = vocab

        # Adjusted counts: top order raw; below, a gram's count is the
        # number of distinct single-token left extensions present in the
        # adjusted table one order up, except <s>-initial grams, which keep
        # raw counts (nothing can precede <s>). Grams with zero extensions
        # are not stored at all, e.g. grams seen only line-initially in an
        # unpadded corpus.
        self.counts = {order: dict(raw[order])}
        for k in range(order - 1, 0, -1):
            above = self.counts[k + 1]
            adj = {}
            for g in raw[k]:
                if g[0] == BOS:
                    adj[g] = raw[k][g]
                else:
                    preds = sum(1 for v in vocab if (v, *g) in above)
                    if preds:
                        adj[g] = preds
            self.counts[k] = adj
        self.event_vocab = sorted(vocab - {BOS})
        self.mass = sum(self.counts[1].values())
        self.discounts = {
            k: self._discounts(self.counts[k].values(), fallback)
            for k in range(1, order + 1)
        }

    @staticmethod
    def _discounts(values, fallback):
        n = Counter()
        for c in values:
            if c <= 4:
                n[c] += 1
        n1, n2, n3, n4 = n[1], n[2], n[3], n[4]

        def fall_back():
            if fallback is None:
                raise ValueError("degenerate count-of-counts")
            return (fallback, fallback, fallback)

        if n1 == 0 or n2 == 0 or n3 == 0:
            return fall_back()
        y = n1 / (n1 + 2 * n2)
        ds = (1 - 2 * y * n2 / n1, 2 - 3 * y * n3 / n2, 3 - 4 * y * n4 / n3)
        # Strictly positive: a 0 discount would leave a bucket-homogeneous
        # context with no held-out mass at all.
        if not (0 < ds[0] <= 1 and 0 < ds[1] <= 2 and 0 < ds[2] <= 3):
            return fall_back()
        return ds

    def _bucket(self, k, c):
        d = self.discounts[k]
        return d[0] if c == 1 else d[1] if c == 2 else d[2]

    def _p(self, ctx, w):
        """Interpolated p(w | ctx) with ctx already truncated and mapped."""
        k = len(ctx) + 1
        if k == 1:
            d1, d2, d3 = self.discounts[1]
            held_out = 0.0
            for cc in self.counts[1].values():
                held_out += d1 if cc == 1 else d2 if cc == 2 else d3
            gamma = held_out / self.mass
            c = self.counts[1].get((w,), 0)
            pseudo = max(c - self._bucket(1, c), 0.0) / self.mass if c else 0.0
            v = len(self.vocab) - (1 if BOS in self.vocab else 0)
            return pseudo + gamma / v
        tab = self.counts[k]
        tot = 0
        n = Counter()
        for g, cc in tab.items():
            if g[:-1] == ctx:
                tot += cc
                n[min(cc, 3)] += 1
        if tot == 0:
            return self._p(ctx[1:], w)
        d1, d2, d3 = self.discounts[k]
        gamma = (d1 * n[1] + d2 * n[2] + d3 * n[3]) / tot
        c = tab.get((*ctx, w), 0)
        pseudo = max(c - self._bucket(k, c), 0.0) / tot if c else 0.0
        return pseudo + gamma * self._p(ctx[1:], w)

    def map_token(self, t):
        """A token of text: itself if in the vocabulary, else <unk>. <s>
        and </s> name the padding, so in text they read as <unk> too."""
        return t if t in self.vocab and t not in (BOS, EOS) else UNK

    def prob(self, context, word):
        ctx = tuple(context)[-(self.order - 1) :] if self.order > 1 else ()
        return self._p(ctx, word)

    def score_word(self, context, word):
        # A <s> opening the context and a </s> as the word are the padding
        # score_sequence puts there; anywhere else they are text.
        ctx = [self.map_token(t) for t in context]
        if ctx and context[0] == BOS and BOS in self.vocab:
            ctx[0] = BOS
        w = EOS if word == EOS and EOS in self.vocab else self.map_token(word)
        return log10(self.prob(ctx, w))

    def score_sequence(self, tokens):
        toks = [self.map_token(t) for t in tokens]
        if self.boundaries:
            seq = [BOS, *toks, EOS]
            start = 1
        else:
            seq = toks
            start = 0
        total = 0.0
        for i in range(start, len(seq)):
            ctx = tuple(seq[max(0, i - self.order + 1) : i])
            total += log10(self._p(ctx, seq[i]))
        return total
