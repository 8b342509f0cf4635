"""Exception hierarchy shared across the pipeline, and the parameter range check.

Every error raised by this package derives from ForgeError so callers
(and the CLI) can fence off pipeline failures from genuine bugs.
"""

import math


class ForgeError(Exception):
    """Base class for all pipeline errors."""


class BadParameter(ForgeError, ValueError):
    """A config field, flag or FORGE_THREADS value is out of range (CLI exit 2)."""


def check_range(name: str, value, low: float, high: float = math.inf, kind=float) -> None:
    """Raise BadParameter unless value is a finite number in [low, high] (an
    int if kind is int; never a bool)."""
    if (isinstance(value, bool) or not isinstance(value, (int, kind))
            or not low <= value <= high or value == math.inf):
        what = "an integer" if kind is int else "a finite number"
        bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise BadParameter(f"{name} must be {what} {bounds}, got {value!r}")


# --- document ingestion ---------------------------------------------------

class MalformedInput(ForgeError):
    """Annotation JSON does not conform to the input schema."""


class InvalidBBox(ForgeError):
    """Degenerate or out-of-range bounding box."""


class DuplicateId(ForgeError):
    """Two elements in one document, or two documents in one corpus, share an id."""


# --- relational graphs ----------------------------------------------------

class CyclicParentInput(ForgeError):
    """Explicit parent_id fields form a cycle."""


class DanglingParent(ForgeError):
    """parent_id references an element that does not exist."""


class UnknownElement(ForgeError):
    """Graph query names an element that is not on the graph."""


# --- templates and programs -----------------------------------------------

class IncompleteBinding(ForgeError):
    """Binding is missing a slot the template requires."""


class TypeMismatch(ForgeError):
    """Program steps do not compose, or a binding value has the wrong kind."""


class AnchorNotFound(ForgeError):
    """LocateByText matched no (or no unique) element in scope."""


class OverflowAnswer(ForgeError):
    """A final count exceeded the fixed answer space; the question is dropped."""


# --- dataset io -----------------------------------------------------------

class BadRatios(BadParameter):
    """Split ratios are not three finite numbers > 0 summing to one."""


class IoFailure(ForgeError):
    """File could not be read or written."""


class SchemaViolation(ForgeError):
    """Serialized dataset content is corrupt or has the wrong shape."""


# --- evaluation -----------------------------------------------------------

class UnknownQid(ForgeError):
    """Prediction references a qid absent from the gold set (strict mode)."""


class MissingPrediction(ForgeError):
    """A gold qid has no prediction (strict mode)."""


class KindMismatch(ForgeError):
    """Predicted answer kind is illegal for the task being scored."""


# --- cli ------------------------------------------------------------------

class UnknownDocument(ForgeError):
    """Requested doc_id is not in the corpus."""


class UnknownPage(ForgeError):
    """Requested page index is not in the document."""
