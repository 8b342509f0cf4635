"""Exception hierarchy shared across the pipeline.

Every error raised by this package derives from ForgeError so callers
(and the CLI) can fence off pipeline failures from genuine bugs.
"""


class ForgeError(Exception):
    """Base class for all pipeline errors."""


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

class BadRatios(ForgeError):
    """Split ratios are not three positive numbers summing to one."""


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
