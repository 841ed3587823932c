"""PCA projection of a pretrained embedding table onto the model width.

The pretrained table (e.g. a 768-wide export) is read from a TSV file; PCA is
fitted on the vectors of tokens shared with the model's source vocabulary, and
unmatched tokens get seeded Gaussian rows scaled to the matched rows' norm.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Vocab


class PcaError(Exception):
    pass


class BadDim(PcaError):
    pass


class NoOverlap(PcaError):
    pass


@dataclass
class PretrainedEmbeddings:
    """Token -> vector table. Vector widths are checked where the vectors are
    used, by `init_vocab_embeddings`."""

    vectors: Mapping[str, np.ndarray]
    width: int


class _TsvRows(Mapping):
    """Token -> float64 vector over the unparsed rows of an embedding TSV.
    A row is converted each time it is looked up."""

    def __init__(self, path: str, lines: dict[str, str]):
        self._path = path
        self._lines = lines

    def __getitem__(self, token: str) -> np.ndarray:
        try:
            return np.array([float(v) for v in self._lines[token].split("\t")[1:]])
        except ValueError:
            raise PcaError(f"{self._path}: row for {token!r} has a non-numeric "
                           "value") from None

    def __contains__(self, token) -> bool:
        return token in self._lines

    def __iter__(self):
        return iter(self._lines)

    def __len__(self) -> int:
        return len(self._lines)


def load_embeddings_tsv(path: str | Path) -> PretrainedEmbeddings:
    """TSV format: first line "D=<width>", then token<TAB>v1<TAB>...<TAB>vD.

    The header and each row's width (its tab count) are checked here; blank
    lines are skipped, and a repeated token keeps its last row, in the place
    of its first. Values are converted to float64 only when a row is looked
    up, so a row the vocabulary never uses is never converted, and a
    non-numeric value in it is never reported.
    """
    lines: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().strip()
        try:
            width = int(head[2:]) if head.startswith("D=") else 0
        except ValueError:
            width = 0
        if width < 1:
            raise PcaError(f"{path}: first line must be D=<positive width>, "
                           f"got {head!r}")
        for line in fh:
            if line == "\n":
                continue
            if line.count("\t") != width:
                token = line.rstrip("\n").split("\t", 1)[0]
                raise PcaError(f"{path}: row for {token!r} has wrong width")
            lines[line[:line.index("\t")]] = line
    return PretrainedEmbeddings(_TsvRows(str(path), lines), width)


def pca_project(matrix: np.ndarray, d: int):
    """Project rows onto the top-d principal directions.

    Returns (projected M x d, components D x d, explained_variance length d).
    Components are orthonormal, ordered by decreasing singular value, with
    each column's largest-magnitude entry made positive. Rank-deficient
    inputs are allowed: trailing components come from the SVD's orthonormal
    completion and their variance is reported as 0. The SVD is reduced
    unless d > M, where only the full one completes the basis.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise BadDim(f"expected a matrix, got shape {matrix.shape}")
    m, width = matrix.shape
    if m < 2:
        raise BadDim("need at least 2 rows to fit PCA")
    if not 1 <= d <= width:
        raise BadDim(f"d={d} outside [1, {width}]")
    mean = matrix.mean(axis=0)
    centered = matrix - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=d > m)
    components = vt[:d].T.copy()
    flip = np.sign(components[np.abs(components).argmax(axis=0),
                              np.arange(d)])
    flip[flip == 0] = 1.0
    components *= flip
    variance = np.zeros(d)
    k = min(d, svals.shape[0])
    variance[:k] = svals[:k] ** 2 / (m - 1)
    projected = centered @ components
    return projected, components, variance


def init_vocab_embeddings(
    vocab: Vocab, pretrained: PretrainedEmbeddings, d: int, seed: int
) -> np.ndarray:
    """Source embedding matrix: PCA-projected rows for tokens found in the
    pretrained table, norm-matched Gaussian rows for everything else. Only
    the found tokens' vectors are read, and each must have the table's
    width."""
    if d > pretrained.width:
        raise BadDim(f"d={d} exceeds pretrained width {pretrained.width}")
    matched = [(i, tok) for i, tok in enumerate(vocab.src_itos)
               if tok in pretrained.vectors]
    if len(matched) < 2:
        raise NoOverlap(
            f"only {len(matched)} vocabulary tokens found in the pretrained table"
        )
    rows = [pretrained.vectors[tok] for _, tok in matched]
    for (_, tok), row in zip(matched, rows):
        if row.shape != (pretrained.width,):
            raise BadDim(f"vector for {tok!r} has width {row.shape}")
    stack = np.stack(rows)
    projected, _, _ = pca_project(stack, d)
    out = np.zeros((vocab.src_size, d))
    for row, (i, _) in zip(projected, matched):
        out[i] = row
    target_norm = float(np.linalg.norm(projected, axis=1).mean())
    rng = np.random.default_rng(seed)
    matched_ids = {i for i, _ in matched}
    for i in range(vocab.src_size):
        if i in matched_ids:
            continue
        row = rng.standard_normal(d)
        norm = float(np.linalg.norm(row)) or 1.0
        out[i] = row * (target_norm / norm)
    return out
