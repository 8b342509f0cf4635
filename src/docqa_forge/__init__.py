"""docqa-forge: build, balance, and score document-structure VQA datasets."""

from .balance import BalanceConfig, balance, balance_answers, balance_parameters, balance_report
from .dataset import compute_stats, read_dataset, split_corpus, write_dataset
from .evaluate import breakdown, evaluate, score_task_ab, score_task_c
from .generator import GenConfig, QARecord, generate_corpus, generate_document, generate_page
from .geometry import BoundingBox, SpatialRelation, spatial_relation
from .graphs import (
    GraphBundle,
    LogicalGraph,
    SpatialGraph,
    build_graphs,
    build_logical_graph,
    build_spatial_graph,
)
from .ingest import (
    assign_reading_order,
    associate_captions,
    build_mention_index,
    parse_document,
    preprocess_document,
    serialize_document,
    validate_for_generation,
)
from .model import Document, DocElement, ElementCategory, Page, TaskId
from .programs import AnswerValue, FunctionalProgram, compile_program, execute, scope_for
from .templates import (
    QuestionTemplate,
    QuestionType,
    TemplateRegistry,
    enumerate_bindings,
    instantiate,
    load_templates,
)

__version__ = "0.1.0"
