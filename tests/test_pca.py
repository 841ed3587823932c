import numpy as np
import pytest

from mmtm import dataset, pca_init
from mmtm.pca_init import BadDim, NoOverlap, PcaError, PretrainedEmbeddings
from conftest import write_embeddings_tsv


def brute_force_pca(matrix, d):
    """Independent oracle: eigendecomposition of the sample covariance."""
    centered = matrix - matrix.mean(axis=0)
    cov = centered.T @ centered / (matrix.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    return evals[order][:d], evecs[:, order][:, :d]


def full_svd_pca(matrix, d):
    """The full-SVD projection: `pca_project` before it used the reduced SVD."""
    centered = matrix - matrix.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=True)
    components = vt[:d].T.copy()
    flip = np.sign(components[np.abs(components).argmax(axis=0), np.arange(d)])
    flip[flip == 0] = 1.0
    components *= flip
    variance = np.zeros(d)
    k = min(d, svals.shape[0])
    variance[:k] = svals[:k] ** 2 / (matrix.shape[0] - 1)
    return centered @ components, components, variance


def reference_load(path):
    """The eager loader: every value of every row converted with float()."""
    vectors = {}
    with open(path, encoding="utf-8") as fh:
        width = int(fh.readline().strip()[2:])
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            assert len(parts) == width + 1
            vectors[parts[0]] = np.array([float(v) for v in parts[1:]])
    return width, vectors


class TestPcaProject:
    def test_variance_on_first_axis(self):
        matrix = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [-2.0, 0.0]])
        projected, components, variance = pca_init.pca_project(matrix, 1)
        np.testing.assert_allclose(components[:, 0], [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(projected[:, 0], [1, -1, 2, -2], atol=1e-12)
        np.testing.assert_allclose(variance[0], np.var(matrix[:, 0], ddof=1))

    def test_full_d_reconstruction(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(7, 4))
        projected, components, _ = pca_init.pca_project(matrix, 4)
        recon = projected @ components.T + matrix.mean(axis=0)
        np.testing.assert_allclose(recon, matrix, atol=1e-8)

    def test_matches_covariance_eigen_oracle(self):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(10, 5))
        _, components, variance = pca_init.pca_project(matrix, 2)
        evals, evecs = brute_force_pca(matrix, 2)
        np.testing.assert_allclose(variance, evals, atol=1e-8)
        for j in range(2):
            cos = abs(components[:, j] @ evecs[:, j])
            assert cos > 1 - 1e-8

    def test_variance_non_increasing(self):
        rng = np.random.default_rng(6)
        _, _, variance = pca_init.pca_project(rng.normal(size=(20, 8)), 8)
        assert all(a >= b - 1e-12 for a, b in zip(variance, variance[1:]))

    def test_components_orthonormal(self):
        rng = np.random.default_rng(7)
        _, components, _ = pca_init.pca_project(rng.normal(size=(12, 6)), 4)
        np.testing.assert_allclose(components.T @ components, np.eye(4),
                                   atol=1e-8)

    def test_sign_convention(self):
        rng = np.random.default_rng(8)
        _, components, _ = pca_init.pca_project(rng.normal(size=(9, 5)), 3)
        for j in range(3):
            col = components[:, j]
            assert col[np.abs(col).argmax()] > 0

    def test_rank_deficient_trailing_variance_zero(self):
        # 3 rows span at most a 2-d centered subspace
        rng = np.random.default_rng(9)
        matrix = rng.normal(size=(3, 5))
        _, components, variance = pca_init.pca_project(matrix, 4)
        assert variance[2] == pytest.approx(0.0, abs=1e-20)
        assert variance[3] == 0.0
        np.testing.assert_allclose(components.T @ components, np.eye(4),
                                   atol=1e-8)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(10)
        matrix = rng.normal(size=(8, 4))
        perm = rng.permutation(8)
        a, _, _ = pca_init.pca_project(matrix, 3)
        b, _, _ = pca_init.pca_project(matrix[perm], 3)
        np.testing.assert_allclose(a[perm], b, atol=1e-10)

    def test_bad_dims(self):
        rng = np.random.default_rng(11)
        with pytest.raises(BadDim):
            pca_init.pca_project(rng.normal(size=(5, 3)), 4)
        with pytest.raises(BadDim):
            pca_init.pca_project(rng.normal(size=(1, 3)), 1)


class TestReducedSvdParity:
    """With d <= M rows, `pca_project` takes the reduced SVD; it must give
    the full SVD's rows, components and variances. (d > M, the full path, is
    `test_rank_deficient_trailing_variance_zero`.)"""

    @pytest.mark.parametrize("case", ["m_gt_d", "m_eq_d", "duplicate_rows"])
    def test_matches_full_svd(self, case):
        rng = np.random.default_rng(31)
        matrix, d = {
            "m_gt_d": (rng.normal(size=(141, 96)), 16),
            "m_eq_d": (rng.normal(size=(12, 40)), 12),
            # rank 3 after centering, so components 4-10 span the null space
            "duplicate_rows": (np.concatenate([rng.normal(size=(4, 30))] * 3), 10),
        }[case]
        assert d <= matrix.shape[0]
        got = pca_init.pca_project(matrix, d)
        want = full_svd_pca(matrix, d)
        for name, a, b in zip(("projected", "components", "variance"), got, want):
            assert a.shape == b.shape, name
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)


class TestInitVocabEmbeddings:
    def _pretrained(self, tokens, width=6, seed=0):
        rng = np.random.default_rng(seed)
        return PretrainedEmbeddings(
            {t: rng.normal(size=width) for t in tokens}, width)

    def test_fully_covered_vocab_has_no_random_rows(self):
        vocab = dataset.Vocab(["cat", "dog", "fish"], ["+"])
        pre = self._pretrained(["cat", "dog", "fish", "<pad>", "<bos>", "<eos>",
                                "<unk>"])
        out = pca_init.init_vocab_embeddings(vocab, pre, 2, seed=1)
        matched = np.stack([pre.vectors[t] for t in vocab.src_itos])
        projected, _, _ = pca_init.pca_project(matched, 2)
        np.testing.assert_allclose(out, projected, atol=1e-12)

    def test_no_overlap(self):
        vocab = dataset.Vocab(["number0", "number1"], ["+"])
        pre = self._pretrained(["cat", "dog"])
        with pytest.raises(NoOverlap):
            pca_init.init_vocab_embeddings(vocab, pre, 2, seed=1)

    def test_random_rows_norm_matched(self):
        words = [f"w{i}" for i in range(40)]
        unmatched = [f"u{i}" for i in range(1000)]
        vocab = dataset.Vocab(words + unmatched, ["+"])
        pre = self._pretrained(words, width=8, seed=3)
        out = pca_init.init_vocab_embeddings(vocab, pre, 4, seed=2)
        matched_rows = np.stack([out[vocab.src_stoi[w]] for w in words])
        random_rows = np.stack([out[vocab.src_stoi[u]] for u in unmatched])
        m = np.linalg.norm(matched_rows, axis=1).mean()
        r = np.linalg.norm(random_rows, axis=1).mean()
        assert abs(r - m) / m < 0.1

    def test_wrong_width_vector_rejected_where_used(self):
        vocab = dataset.Vocab(["cat", "dog"], ["+"])
        pre = PretrainedEmbeddings({"cat": np.zeros(6), "dog": np.zeros(5),
                                    "eel": np.zeros(6)}, 6)
        with pytest.raises(BadDim, match="'dog'"):
            pca_init.init_vocab_embeddings(vocab, pre, 2, seed=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected_where_used(self, value):
        vocab = dataset.Vocab(["cat", "dog"], ["+"])
        pre = self._pretrained(["cat", "dog", "eel"])
        pre.vectors["eel"][0] = value  # not in the vocabulary: never read
        assert np.isfinite(pca_init.init_vocab_embeddings(vocab, pre, 2, seed=0)).all()
        pre.vectors["dog"][3] = value
        with pytest.raises(PcaError, match="'dog' has a non-finite value"):
            pca_init.init_vocab_embeddings(vocab, pre, 2, seed=0)

    def test_d_exceeds_width(self):
        vocab = dataset.Vocab(["cat", "dog"], ["+"])
        with pytest.raises(BadDim):
            pca_init.init_vocab_embeddings(vocab, self._pretrained(["cat", "dog"]),
                                           7, seed=0)


class TestTsvRoundTrip:
    def test_write_then_load(self, tmp_path):
        pre = PretrainedEmbeddings(
            {"cat": np.array([1.0, 2.0]), "dog": np.array([-0.5, 0.25])}, 2)
        path = tmp_path / "emb.tsv"
        write_embeddings_tsv(path, pre)
        loaded = pca_init.load_embeddings_tsv(path)
        assert loaded.width == 2
        np.testing.assert_array_equal(loaded.vectors["dog"], pre.vectors["dog"])


def _write(path, text, newline="\n"):
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    return path


class TestLazyTsvLoad:
    TABLE = ("D=3\n"
             "cat\t1.0\t-2.5e-3\t0.1\n"
             "\n"
             "dog\t-0.0\t1e308\t  7 \n"
             "cat\t0.30000000000000004\t1_000\t-inf\n"
             "\n"
             "eel\t2.2250738585072014e-308\t5e-324\t.5\n")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_matches_eager_loader_bit_for_bit(self, tmp_path, newline):
        path = _write(tmp_path / "emb.tsv", self.TABLE, newline)
        width, want = reference_load(path)
        loaded = pca_init.load_embeddings_tsv(path)
        assert loaded.width == width == 3
        assert list(loaded.vectors) == list(want) == ["cat", "dog", "eel"]
        for token, vec in want.items():
            assert token in loaded.vectors
            got = loaded.vectors[token]
            assert got.dtype == np.float64
            assert got.tobytes() == vec.tobytes()

    def test_pca_input_matches_eager_table(self, tmp_path):
        rng = np.random.default_rng(4)
        tokens = [f"w{i}" for i in range(30)]
        text = "D=12\n" + "".join(
            t + "\t" + "\t".join(f"{v:.6f}" for v in rng.normal(size=12)) + "\n"
            for t in tokens)
        path = _write(tmp_path / "emb.tsv", text)
        vocab = dataset.Vocab(tokens[::2] + ["missing"], ["+"])
        width, vectors = reference_load(path)
        want = pca_init.init_vocab_embeddings(
            vocab, PretrainedEmbeddings(vectors, width), 5, seed=3)
        got = pca_init.init_vocab_embeddings(
            vocab, pca_init.load_embeddings_tsv(path), 5, seed=3)
        assert got.tobytes() == want.tobytes()

    def test_wrong_width_row_rejected_at_load(self, tmp_path):
        path = _write(tmp_path / "emb.tsv",
                      "D=2\ncat\t1.0\t2.0\nzebra\t1.0\t2.0\t3.0\n")
        with pytest.raises(PcaError, match="'zebra' has wrong width"):
            pca_init.load_embeddings_tsv(path)

    @pytest.mark.parametrize("head", ["D=x", "D=0", "D=-3", "D=", "768", ""])
    def test_bad_header_rejected(self, tmp_path, head):
        path = _write(tmp_path / "emb.tsv", head + "\ncat\t1.0\n")
        with pytest.raises(PcaError, match="first line must be"):
            pca_init.load_embeddings_tsv(path)

    def test_unused_row_never_converted(self, tmp_path):
        path = _write(tmp_path / "emb.tsv",
                      "D=2\ncat\t1.0\t2.0\ndog\t-1.0\t0.5\nzebra\tabc\t1.0\n")
        pre = pca_init.load_embeddings_tsv(path)
        vocab = dataset.Vocab(["cat", "dog"], ["+"])
        out = pca_init.init_vocab_embeddings(vocab, pre, 1, seed=0)
        assert np.isfinite(out).all()
        with pytest.raises(PcaError, match="'zebra' has a non-numeric value"):
            pca_init.init_vocab_embeddings(
                dataset.Vocab(["cat", "zebra"], ["+"]), pre, 1, seed=0)
