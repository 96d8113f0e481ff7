"""Independent reference implementations used as test oracles.

Everything here is written as direct, literal computation (loops, explicit
formulas) and must stay independent of the library code paths it checks.
"""
import math
import warnings

import numpy as np

from xlalign.errors import FormatError


def unit(v):
    n = np.linalg.norm(v)
    return v / n if n else v


def csls_bruteforce(x, z, k, query_indices=None):
    """Direct evaluation of the CSLS formula over all pairs.

    Returns (argmax list, score matrix) for the selected queries.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    nx, nz = x.shape[0], z.shape[0]
    cos = np.empty((nx, nz))
    for i in range(nx):
        for j in range(nz):
            cos[i, j] = float(np.dot(unit(x[i]), unit(z[j])))
    r_t = np.array([np.mean(sorted(cos[i])[-k:]) for i in range(nx)])
    r_s = np.array([np.mean(sorted(cos[:, j])[-k:]) for j in range(nz)])
    queries = range(nx) if query_indices is None else query_indices
    scores = np.array([[2.0 * cos[i, j] - r_t[i] - r_s[j] for j in range(nz)]
                       for i in queries])
    best = []
    for row in scores:
        best_j = 0
        for j in range(1, nz):
            if row[j] > row[best_j]:
                best_j = j
        best.append(best_j)
    return best, scores


def dropout_argmax_literal(sim, keep_prob, rng):
    """Row argmax after dropping each score with probability 1 - keep_prob:
    the literal b x m random mask, dropped scores set to -inf."""
    kept = rng.random(sim.shape) < keep_prob
    return np.where(kept, sim, -np.inf).argmax(axis=1)


def ranked_literal(row):
    """Indices of ``row`` best first; equal scores in index order."""
    return sorted(range(len(row)), key=lambda j: (-row[j], j))


def init_bruteforce(x, z, cutoff):
    """Similarity-distribution seed dictionary, literally: the full Gram
    matrix of each side's first ``cutoff`` rows, every row sorted and scaled
    to unit length, nearest neighbor by loops in both directions, union."""
    def sorted_unit_rows(m):
        m = np.asarray(m, dtype=np.float64)[:cutoff]
        gram = m @ m.T
        return [unit(np.sort(row)) for row in gram]

    mx, mz = sorted_unit_rows(x), sorted_unit_rows(z)
    sim = [[float(np.dot(mx[i], mz[j])) for j in range(cutoff)] for i in range(cutoff)]
    pairs = set()
    for i in range(cutoff):
        best_j = 0
        for j in range(1, cutoff):
            if sim[i][j] > sim[i][best_j]:
                best_j = j
        pairs.add((i, best_j))
    for j in range(cutoff):
        best_i = 0
        for i in range(1, cutoff):
            if sim[i][j] > sim[best_i][j]:
                best_i = i
        pairs.add((best_i, j))
    return sorted(pairs)


def iternorm_literal(x, max_iters, tol):
    """Literal alternation: unit-normalize rows, then subtract column mean."""
    x = np.array(x, dtype=np.float64)
    for it in range(1, max_iters + 1):
        y = np.array([row / np.linalg.norm(row) for row in x])
        x = y - y.mean(axis=0)
        dev = max(abs(np.linalg.norm(row) - 1.0) for row in x)
        center = np.linalg.norm(x.mean(axis=0))
        if max(dev, center) < tol:
            break
    return x, it


def refine_literal(x, z, pairs, norm_iters, tol=1e-6):
    """Per side, I plus the least-norm least-squares solution of
    X_D M = (Z_D - X_D) / 2 on the gathered pair rows (``np.linalg.lstsq``),
    applied to every row; then re-normalize each space."""
    x = np.array(x, dtype=np.float64)
    z = np.array(z, dtype=np.float64)
    xd = np.array([x[i] for i, _ in pairs]).reshape(-1, x.shape[1])
    zd = np.array([z[j] for _, j in pairs]).reshape(-1, z.shape[1])
    eye = np.eye(x.shape[1])
    x = x @ (eye + np.linalg.lstsq(xd, (zd - xd) / 2.0, rcond=None)[0])
    z = z @ (eye + np.linalg.lstsq(zd, (xd - zd) / 2.0, rcond=None)[0])
    if norm_iters:
        x, _ = iternorm_literal(x, norm_iters, tol)
        z, _ = iternorm_literal(z, norm_iters, tol)
    return x, z


def load_embeddings_literal(path, max_vocab=None):
    """A text embedding file parsed one line at a time with ``float()``:
    the words and float64 matrix of ``load_embeddings``, its duplicate
    warning, and its FormatError message and line for a malformed file.
    Reading stops at the header's row count or at ``max_vocab`` words."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        try:
            n, d = (int(t) for t in header)
        except ValueError:
            raise FormatError(f"{path}: header must be two integers 'n d'", line=1) from None
        if n < 0 or d < 1:
            raise FormatError(f"{path}: invalid header counts n={n} d={d}", line=1)
        limit = n if max_vocab is None else min(n, max_vocab)
        words, rows, duplicates = [], [], 0
        read = 0
        while len(words) < limit and read < n:
            line = fh.readline()
            if line == "":
                raise FormatError(f"{path}: file ends after {read} rows, header declared {n}")
            read += 1
            tokens = line.split()
            if len(tokens) != d + 1:
                raise FormatError(
                    f"{path}: expected a word and {d} values, got {len(tokens)} tokens",
                    line=read + 1)
            try:
                values = [float(t) for t in tokens[1:]]
            except ValueError:
                raise FormatError(f"{path}: unparseable number", line=read + 1) from None
            if not all(math.isfinite(v) for v in values):
                raise FormatError(f"{path}: non-finite value", line=read + 1)
            if tokens[0] in words:
                duplicates += 1
            else:
                words.append(tokens[0])
                rows.append(values)
    if duplicates:
        warnings.warn(f"{path}: dropped {duplicates} duplicate word(s), first occurrence kept")
    return words, np.array(rows, dtype=np.float64).reshape(len(rows), d)


def topk_hits(score_row, gold_targets, k):
    """Whether any gold target ranks in the top k (lowest index wins ties)."""
    ranked = sorted(range(len(score_row)), key=lambda j: (-score_row[j], j))
    return any(j in gold_targets for j in ranked[:k])


def random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))
