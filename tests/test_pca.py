import numpy as np
import pytest

from multisrc.errors import DataError
from multisrc.pca import PcaRow, pca_project, pca_rows
from multisrc.schema import to_tsv


def jacobi_eigh(matrix, sweeps=100, tol=1e-14):
    """Independent eigensolver: cyclic Jacobi rotations on a symmetric matrix."""
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) < tol:
                    continue
                theta = (a[q, q] - a[p, p]) / (2 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1)) if theta != 0 else 1.0
                c = 1.0 / np.sqrt(t * t + 1)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
        if off < tol:
            break
    return np.diag(a).copy(), v


def oracle_pca(matrix, n_components=2):
    matrix = np.asarray(matrix, dtype=np.float64)
    centered = matrix - matrix.mean(axis=0)
    cov = centered.T @ centered / (matrix.shape[0] - 1)
    values, vectors = jacobi_eigh(cov)
    order = np.argsort(values)[::-1][:n_components]
    comps = vectors[:, order].T
    for i in range(comps.shape[0]):
        anchor = np.argmax(np.abs(comps[i]))
        if comps[i, anchor] < 0:
            comps[i] = -comps[i]
    return centered @ comps.T, comps, values[order]


def test_identical_rows_project_to_origin():
    matrix = np.tile([1.5, -2.0, 3.0], (4, 1))
    coords, _, values = pca_project(matrix)
    assert np.allclose(coords, 0.0)
    assert np.allclose(values, 0.0)


def test_two_distinct_rows_lie_on_first_axis_symmetrically():
    matrix = np.array([[1.0, 2.0, 5.0], [3.0, 0.0, 1.0]])
    coords, comps, _ = pca_project(matrix)
    assert np.allclose(coords[:, 1], 0.0, atol=1e-12)
    assert coords[0, 0] == pytest.approx(-coords[1, 0])
    assert abs(coords[0, 0]) == pytest.approx(np.linalg.norm(matrix[0] - matrix.mean(0)))


def test_matches_jacobi_oracle_within_1e6():
    rng = np.random.default_rng(17)
    for trial in range(25):
        rows = rng.integers(2, 9)
        dim = rng.integers(2, 7)
        matrix = rng.normal(size=(rows, dim)) * rng.uniform(0.5, 3.0)
        coords, comps, values = pca_project(matrix)
        o_coords, o_comps, o_values = oracle_pca(matrix)
        assert np.abs(coords - o_coords).max() < 1e-6
        assert np.abs(values - o_values).max() < 1e-6


def test_components_orthonormal_within_1e10():
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(6, 5))
    _, comps, _ = pca_project(matrix)
    gram = comps @ comps.T
    assert np.abs(gram - np.eye(2)).max() < 1e-10


def test_reconstruction_from_top_k_matches_oracle():
    rng = np.random.default_rng(8)
    matrix = rng.normal(size=(7, 4))
    coords, comps, _ = pca_project(matrix, n_components=4)
    centered = matrix - matrix.mean(axis=0)
    assert np.abs(coords @ comps - centered).max() < 1e-6


def test_sign_convention_largest_magnitude_entry_positive():
    rng = np.random.default_rng(5)
    for _ in range(10):
        matrix = rng.normal(size=(5, 3))
        _, comps, _ = pca_project(matrix)
        for row in comps:
            assert row[np.argmax(np.abs(row))] > 0


def test_input_validation():
    with pytest.raises(DataError, match="2 rows"):
        pca_project(np.zeros((1, 3)))
    with pytest.raises(DataError, match="dimension"):
        pca_project(np.zeros((3, 1)))


def test_tsv_rendering_deterministic():
    matrix = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, -1.0]])
    coords, _, _ = pca_project(matrix)
    rows = pca_rows(["a", "b", "c"], matrix)
    assert [(r.source_id, r.pc1, r.pc2) for r in rows] == [
        (m, float(c[0]), float(c[1])) for m, c in zip("abc", coords)]
    out1 = to_tsv(PcaRow, rows)
    assert out1 == to_tsv(PcaRow, pca_rows(["a", "b", "c"], matrix))
    assert out1.startswith("source_id\tpc1\tpc2\n")
    assert out1.splitlines()[1] == f"a\t{coords[0, 0]:.12g}\t{coords[0, 1]:.12g}"
    assert len(out1.strip().split("\n")) == 4


def test_a_two_row_table_has_no_second_component():
    # two rows centre to rank 1: the second component spans no variance, so
    # its coordinates are exactly zero, not rounding noise
    rows = pca_rows(["a", "b"], np.array([[1.0, 2.0, 5.0], [3.0, 0.0, 1.0]]))
    assert [r.pc2 for r in rows] == [0.0, 0.0]
    assert to_tsv(PcaRow, rows).splitlines()[1].endswith("\t0")


def test_tables_differing_only_by_rounding_give_identical_rows():
    # one ulp in two entries moved pc2's noise from -2e-18 to -1.3e-16
    # before the rank cut; pc1 does not move at all
    a = np.array([[0.3, -1.2, 0.7, 2.1], [-0.4, 0.9, 1.3, -0.6]])
    b = a.copy()
    b[0, 0] = np.nextafter(b[0, 0], 1.0)
    b[1, 2] = np.nextafter(b[1, 2], 0.0)
    assert pca_rows(["x", "y"], a) == pca_rows(["x", "y"], b)
