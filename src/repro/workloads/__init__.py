"""Workload generators: synthetic sweeps, DNN FC layers, .mtx corpus."""

from .dnn import FC_LAYERS, FIG9_ORDER, FCLayer, get_layer
from .mtx_corpus import (
    CORPUS_NAMES,
    generate_corpus_matrix,
    load_corpus,
    load_corpus_matrix,
    write_corpus,
)
from .synthetic import (
    banded_csr,
    power_law_csr,
    random_csr,
    random_dense_matrix,
    random_dense_vector,
    random_sparse_vector,
)

__all__ = [
    "FC_LAYERS",
    "FIG9_ORDER",
    "FCLayer",
    "get_layer",
    "CORPUS_NAMES",
    "generate_corpus_matrix",
    "load_corpus",
    "load_corpus_matrix",
    "write_corpus",
    "banded_csr",
    "power_law_csr",
    "random_csr",
    "random_dense_matrix",
    "random_dense_vector",
    "random_sparse_vector",
]
