"""docqa-forge: build, balance, and score document-structure VQA datasets."""

from .generator import GenConfig, generate_corpus
from .graphs import build_graphs
from .ingest import parse_document, preprocess_document
from .programs import compile_program, execute, scope_for
from .templates import enumerate_bindings, instantiate, load_templates

__version__ = "0.1.0"
