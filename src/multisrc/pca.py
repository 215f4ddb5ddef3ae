"""PCA export of dataset-embedding tables (2-D coordinates per source)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


def pca_project(matrix: np.ndarray, n_components: int = 2):
    """Project rows onto the top principal components.

    Mean-centers, eigendecomposes the sample covariance, orders components
    by descending eigenvalue, and fixes signs so each component's
    largest-magnitude entry is positive.  Returns (coordinates,
    components, eigenvalues) with components as rows.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise DataError("PCA needs at least 2 rows")
    if matrix.shape[1] < n_components:
        raise DataError(f"PCA needs dimension >= {n_components}, got {matrix.shape[1]}")
    centered = matrix - matrix.mean(axis=0)
    cov = centered.T @ centered / (matrix.shape[0] - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1][:n_components]
    components = eigenvectors[:, order].T
    values = eigenvalues[order]
    for i in range(components.shape[0]):
        anchor = np.argmax(np.abs(components[i]))
        if components[i, anchor] < 0:
            components[i] = -components[i]
    coordinates = centered @ components.T
    return coordinates, components, values


@dataclass
class PcaRow:
    source_id: str
    pc1: float
    pc2: float


def pca_rows(members: list[str], matrix: np.ndarray) -> list[PcaRow]:
    """One row per source: its 2-D projection of the embedding table `matrix`."""
    coordinates, _, _ = pca_project(matrix)
    return [PcaRow(member, float(row[0]), float(row[1])) for member, row in zip(members, coordinates)]
