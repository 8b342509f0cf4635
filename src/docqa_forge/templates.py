"""The built-in question pattern registry, binding enumeration, and rendering.

66 patterns ship with the package: 36 for Task A (22 existence + 14 counting),
15 for Task B (10 structural understanding + 5 object recognition), and 15 for
Task C (5 child relation + 10 parent relation). Pattern strings are stored
verbatim; surface morphology (pluralization, a/an, quoting, relation phrasing)
is applied at render time per slot, from tables each template builds once.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

from .errors import IncompleteBinding, TypeMismatch
from .geometry import REGION_NAMES, in_region
from .graphs import GraphBundle
from .hashing import stable_int
from .model import QUESTION_LABELS, Document, ElementCategory, Page, TaskId

# Phrasal surfaces for [R] slots; the first entry is the canonical phrase.
RELATION_PHRASES: dict[str, tuple[str, ...]] = {
    "top": ("above", "upper", "on the top of"),
    "bottom": ("below", "under", "on the bottom of"),
    "left": ("on the left of", "to the left of"),
    "right": ("on the right of", "to the right of"),
    "top-left": ("on the top-left of",),
    "top-right": ("on the top-right of",),
    "bottom-left": ("on the bottom-left of",),
    "bottom-right": ("on the bottom-right of",),
}

# Closed-vocabulary slot kinds and the values each may take. Every other kind
# is filled with text taken from the document.
SLOT_VALUES: dict[str, tuple] = {
    "label": QUESTION_LABELS,
    "position": REGION_NAMES,
    "relation": REGION_NAMES,
    "num": (1, 2, 3, 4, 5),
    "turn": ("first", "last"),
}


class QuestionType(str, Enum):
    EXISTENCE = "existence"
    COUNTING = "counting"
    STRUCTURAL_UNDERSTANDING = "structural_understanding"
    OBJECT_RECOGNITION = "object_recognition"
    PARENT_RELATION = "parent_relation"
    CHILD_RELATION = "child_relation"

    @property
    def task(self) -> TaskId:
        return _QTYPE_TASK[self]


_QTYPE_TASK = {
    QuestionType.EXISTENCE: TaskId.A,
    QuestionType.COUNTING: TaskId.A,
    QuestionType.STRUCTURAL_UNDERSTANDING: TaskId.B,
    QuestionType.OBJECT_RECOGNITION: TaskId.B,
    QuestionType.PARENT_RELATION: TaskId.C,
    QuestionType.CHILD_RELATION: TaskId.C,
}


@dataclass(frozen=True)
class SlotSpec:
    """How one slot enumerates and renders.

    kind decides the value pool; plural/quoted/article/bare decide the
    surface. A bare relation renders as its region name, not as a phrase.
    """

    name: str
    kind: str
    plural: bool = False
    quoted: bool = False
    article: bool = False
    bare: bool = False


@dataclass(frozen=True)
class QuestionTemplate:
    template_id: str
    task: TaskId
    qtype: QuestionType
    group: str
    pattern: str
    slots: tuple[SlotSpec, ...]

    @cached_property
    def pieces(self) -> tuple[tuple[str, ...], tuple[SlotSpec, ...]]:
        """The pattern split at its slot tokens: n + 1 literals around n slots,
        the slots in the order their tokens appear."""
        parts = re.split(r"\[(\w+)\]", self.pattern)
        slots = {s.name: s for s in self.slots}
        return tuple(parts[0::2]), tuple(slots[name] for name in parts[1::2])

    @cached_property
    def _render_steps(self) -> tuple[str, tuple[tuple[SlotSpec, dict | None, str], ...]]:
        """The first literal, then (slot, value -> surfaces or None, next literal) per slot."""
        literals, slots = self.pieces
        return literals[0], tuple(
            (slot, {value: _renderings(slot, value) for value in SLOT_VALUES[slot.kind]}
             if slot.kind in SLOT_VALUES else None, literal)
            for slot, literal in zip(slots, literals[1:]))


@dataclass(frozen=True)
class QuestionString:
    text: str
    template_id: str


def canonical_binding(binding: dict) -> str:
    return ";".join(f"{k}={binding[k]}" for k in sorted(binding))


# ---------------------------------------------------------------------------
# Registry data
# ---------------------------------------------------------------------------

_E = lambda kind, **kw: SlotSpec("E", kind, **kw)  # noqa: E731
_E1 = lambda **kw: SlotSpec("E1", "label", **kw)  # noqa: E731
_E2 = SlotSpec("E2", "page_title_anchor", quoted=True)
_R = SlotSpec("R", "relation")
_RW = SlotSpec("R", "relation", bare=True)
_POS = SlotSpec("pos", "position")
_NUM = SlotSpec("num", "num")
_TURN = SlotSpec("turn", "turn")

# Each template group's question type: a group fixes its templates' task,
# question type, slots and program (see programs.GROUP_PROGRAMS).
_GROUP_QTYPES: dict[str, QuestionType] = {
    **dict.fromkeys(("exist_pos", "exist_pos_neg", "exist_rel", "exist_rel_neg",
                     "exist_bare", "exist_title"), QuestionType.EXISTENCE),
    **dict.fromkeys(("count_rel", "count_verify", "count_bare"), QuestionType.COUNTING),
    **dict.fromkeys(("b_turn", "b_pos"), QuestionType.STRUCTURAL_UNDERSTANDING),
    "b_objrec": QuestionType.OBJECT_RECOGNITION,
    "c_child": QuestionType.CHILD_RELATION,
    **dict.fromkeys(("c_parent_float", "c_parent_cite"), QuestionType.PARENT_RELATION),
}

# (template_id, group, pattern, slots)
_ROWS: tuple[tuple[str, str, str, tuple[SlotSpec, ...]], ...] = (
    # --- Task A: existence -------------------------------------------------
    ("A01", "exist_pos", "Is there any [E] on the [pos] of this page?", (_E("label"), _POS)),
    ("A02", "exist_pos", "Can you find any [E] on the [pos] of this page?", (_E("label"), _POS)),
    ("A03", "exist_pos", "On the [pos] of this page, is there a [E]?", (_E("label"), _POS)),
    ("A04", "exist_pos_neg", "Is it correct that there is no [E] at the [pos]?",
     (_E("label"), _POS)),
    ("A05", "exist_pos", "When you check the [pos] of this page, can you find any [E]?",
     (_E("label"), _POS)),
    ("A06", "exist_rel", "Are there any [E1] are [R] the [E2]?", (_E1(plural=True), _R, _E2)),
    ("A07", "exist_rel", "Can you find any [E1] [R] the [E2]?", (_E1(), _R, _E2)),
    ("A08", "exist_rel", "Is there a [E1] found [R] the [E2]?", (_E1(), _R, _E2)),
    ("A09", "exist_rel_neg", "Is it correct that there is no [E1] [R] the [E2]?", (_E1(), _R, _E2)),
    ("A10", "exist_rel", "Confirm if there are any [E1] [R] the [E2]?",
     (_E1(plural=True), _R, _E2)),
    ("A11", "exist_rel", "When you check the page, is there any [E1] [R] the [E2]?",
     (_E1(), _R, _E2)),
    ("A12", "exist_bare", "Is there any [E]?", (_E("label"),)),
    ("A13", "exist_bare", "Are there any [E] on this page?", (_E("label", plural=True),)),
    ("A14", "exist_bare", "Is there a [E] in this page?", (_E("label"),)),
    ("A15", "exist_bare", "Can you find a [E] on this page?", (_E("label"),)),
    ("A16", "exist_bare", "When you check this page, can you find any [E]?", (_E("label"),)),
    ("A17", "exist_title", "Is there a [E] on this page?", (_E("doc_title_text", quoted=True),)),
    ("A18", "exist_title", "Can you find a [E] on this page?",
     (_E("doc_title_text", quoted=True),)),
    ("A19", "exist_title", "Does this page include a [E]?", (_E("doc_title_text", quoted=True),)),
    ("A20", "exist_title", "Can [E] be found on this page?", (_E("doc_title_text", quoted=True),)),
    ("A21", "exist_title", "When you check this page, can you find [E]?",
     (_E("doc_title_text", quoted=True),)),
    ("A22", "exist_title", "Confirm if there is [E] on this page.",
     (_E("doc_title_text", quoted=True, article=True),)),
    # --- Task A: counting ---------------------------------------------------
    ("A23", "count_rel", "How many [E1] are [R] the [E2]?", (_E1(plural=True), _R, _E2)),
    ("A24", "count_rel", "What is the number of [E1] [R] the [E2]?", (_E1(plural=True), _R, _E2)),
    ("A25", "count_rel", "How many [E1] can you find on the [R] of [E2]?",
     (_E1(plural=True), _RW, _E2)),
    ("A26", "count_rel", "Count the number of [E1] on the [R] of [E2].",
     (_E1(plural=True), _RW, _E2)),
    ("A27", "count_rel", "When you check this page, how many [E1] can you find on the [R] of [E2]?",
     (_E1(plural=True), _RW, _E2)),
    ("A28", "count_verify", "Can you find [num] [E](s) on the page?", (_NUM, _E("label"))),
    ("A29", "count_verify", "Does this page include [num] [E](s)", (_NUM, _E("label"))),
    ("A30", "count_verify", "Confirm if there are [num] [E](s) on this page.", (_NUM, _E("label"))),
    ("A31", "count_verify", "Are there [num] [E](s) on this page?", (_NUM, _E("label"))),
    ("A32", "count_verify", "Is there only [num] [E](s) on this page?", (_NUM, _E("label"))),
    ("A33", "count_bare", "How many [E]s on this page?", (_E("label"),)),
    ("A34", "count_bare", "When you check this page, how many [E]s are on this page?",
     (_E("label"),)),
    ("A35", "count_bare", "What is the number of [E]s on this page?", (_E("label"),)),
    ("A36", "count_bare", "How many [E]s can be found on this page?", (_E("label"),)),
    # --- Task B: structural understanding -----------------------------------
    ("B01", "b_turn", "What is the [turn] section in this page?", (_TURN,)),
    ("B02", "b_turn", "Can you describe the [turn] section of this page?", (_TURN,)),
    ("B03", "b_turn", "What does the [turn] section include in this page?", (_TURN,)),
    ("B04", "b_turn", "What is the main contents of the [turn] section in this page?", (_TURN,)),
    ("B05", "b_turn",
     "When you check the [turn] section of this page, what information can you get?", (_TURN,)),
    ("B06", "b_pos", "What is the [pos] section about?", (_POS,)),
    ("B07", "b_pos", "What is the [pos] of the page about?", (_POS,)),
    ("B08", "b_pos", "What is the topic of [pos] section?", (_POS,)),
    ("B09", "b_pos", "Can you describe the main topic of the [pos] section?", (_POS,)),
    ("B10", "b_pos", "When you check the [pos] of this page, what information can you get?",
     (_POS,)),
    # --- Task B: object recognition ------------------------------------------
    ("B11", "b_objrec", "What is the [E] on the [pos] of the page?", (_E("label"), _POS)),
    ("B12", "b_objrec", "What is the [pos] [E] about?", (_E("label"), _POS)),
    ("B13", "b_objrec", "Can you describe the [E] on the [pos] of the page?", (_E("label"), _POS)),
    ("B14", "b_objrec", "What information does the [pos] [E] contain?", (_E("label"), _POS)),
    ("B15", "b_objrec", "When you check the [pos] [E], what information can you get?",
     (_E("label"), _POS)),
    # --- Task C: child relation ----------------------------------------------
    ("C01", "c_child", "What does the [E] include?", (_E("doc_title_anchor"),)),
    ("C02", "c_child", "What is the [E] about?", (_E("doc_title_anchor"),)),
    ("C03", "c_child", "What subsections are in the [E]?", (_E("doc_title_anchor"),)),
    ("C04", "c_child", "What subsections can be found in the [E]?", (_E("doc_title_anchor"),)),
    ("C05", "c_child", "When you check the [E], which subsections are included?",
     (_E("doc_title_anchor"),)),
    # --- Task C: parent relation ----------------------------------------------
    ("C06", "c_parent_float", "Which section does describe the [E] ?", (_E("float_label"),)),
    ("C07", "c_parent_float", "Which section does include the description of the [E]?",
     (_E("float_label"),)),
    ("C08", "c_parent_float", "Name out the section that include the [E].", (_E("float_label"),)),
    ("C09", "c_parent_float", "Where can you find the [E]?", (_E("float_label"),)),
    ("C10", "c_parent_float",
     "When you search for the description of [E], which sections do you need to check?",
     (_E("float_label"),)),
    ("C11", "c_parent_cite", "Which section does include the [E]?", (_E("cite_key", quoted=True),)),
    ("C12", "c_parent_cite", "Which section does cite the [E]?", (_E("cite_key", quoted=True),)),
    ("C13", "c_parent_cite", "Where is the [E] cited in the document?",
     (_E("cite_key", quoted=True),)),
    ("C14", "c_parent_cite", "Where can [E] be found in the document?",
     (_E("cite_key", quoted=True),)),
    ("C15", "c_parent_cite",
     "When you search for the citation of [E], which sections can you find it?",
     (_E("cite_key", quoted=True),)),
)


class TemplateRegistry:
    def __init__(self, templates: tuple[QuestionTemplate, ...]):
        self.templates = templates
        self._by_id = {t.template_id: t for t in templates}

    def __len__(self) -> int:
        return len(self.templates)

    def __iter__(self):
        return iter(self.templates)

    def by_id(self, template_id: str) -> QuestionTemplate:
        return self._by_id[template_id]

    def for_task(self, task: TaskId) -> tuple[QuestionTemplate, ...]:
        return tuple(t for t in self.templates if t.task == task)

    def dump(self) -> list[dict]:
        return [
            {"template_id": t.template_id, "task": t.task.value,
             "qtype": t.qtype.value, "pattern": t.pattern}
            for t in sorted(self.templates, key=lambda t: t.template_id)
        ]


@lru_cache(maxsize=1)
def load_templates() -> TemplateRegistry:
    templates = tuple(
        QuestionTemplate(template_id=tid, task=_GROUP_QTYPES[group].task,
                         qtype=_GROUP_QTYPES[group], group=group, pattern=pattern, slots=slots)
        for tid, group, pattern, slots in _ROWS
    )
    return TemplateRegistry(templates)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_VOWELS = "aeiouAEIOU"


def _renderings(slot: SlotSpec, value) -> tuple[str, ...]:
    """Surfaces a closed-vocabulary value may render as; only relations have synonyms."""
    if slot.kind == "relation" and not slot.bare:
        return RELATION_PHRASES[value]
    return (f"{value}s" if slot.plural else str(value),)


def validate_binding(tpl: QuestionTemplate, binding: dict) -> None:
    """Raise IncompleteBinding / TypeMismatch unless the binding fits the template."""
    for slot in tpl.slots:
        if slot.name not in binding:
            raise IncompleteBinding(f"binding for {tpl.template_id} is missing [{slot.name}]")
        value = binding[slot.name]
        if slot.kind in SLOT_VALUES:
            # exactly str or int: True == 1 and 1.0 == 1, but they render otherwise
            ok = type(value) in (str, int) and value in SLOT_VALUES[slot.kind]
        else:
            ok = isinstance(value, str) and bool(value)
        if not ok:
            raise TypeMismatch(f"slot [{slot.name}] cannot take value {value!r}")


def instantiate(tpl: QuestionTemplate, binding: dict, seed: int, *,
                validated: bool = False, key: str | None = None) -> QuestionString:
    """Render the pattern with the binding; deterministic in (tpl, binding, seed).

    validated=True skips validate_binding for a binding the caller has
    already checked (the generator's compile_program does); key is the
    binding's canonical_binding, if the caller already has it.
    """
    if not validated:
        validate_binding(tpl, binding)
    if key is None:
        key = canonical_binding(binding)
    head, steps = tpl._render_steps
    parts = [head]
    for slot, surfaces, literal in steps:
        value = binding[slot.name]
        if surfaces is not None:
            options = surfaces[value]
            if len(options) == 1:
                text = options[0]
            else:
                text = options[stable_int(seed, tpl.template_id, key, slot.name) % len(options)]
        else:
            text = f"'{value}'" if slot.quoted else str(value)
            if slot.article:
                text = f"{'an' if str(value)[:1] in _VOWELS else 'a'} {text}"
        parts.append(text)
        parts.append(literal)
    return QuestionString("".join(parts), tpl.template_id)


# ---------------------------------------------------------------------------
# Binding enumeration
# ---------------------------------------------------------------------------

def _quotable_titles(elements) -> dict[str, list[str]]:
    """Title text -> ids of the titles carrying it, for texts a question can quote."""
    ids: dict[str, list[str]] = {}
    for el in elements:
        if el.category == ElementCategory.TITLE and el.text and "'" not in el.text:
            ids.setdefault(el.text, []).append(el.id)
    return ids


_FLOAT_KEY = re.compile(r"^(Table|Figure) \d+$")


def _region_members(page: Page, category: ElementCategory, region: str) -> int:
    return sum(el.category == category and in_region(el.bbox, region) for el in page.elements)


def enumerate_bindings(tpl: QuestionTemplate, doc: Document,
                       page: Page | None = None,
                       graphs: GraphBundle | None = None) -> list[dict]:
    """All bindings whose referenced anchors exist (and are unique) in scope.

    Existence templates deliberately keep bindings with negative answers;
    referent-style templates (anchored titles, Task B region picks, Task C
    anchors) honor the unique-referent contract and skip ambiguous values.
    """
    if tpl.task in (TaskId.A, TaskId.B) and page is None:
        raise TypeMismatch(f"{tpl.template_id} needs a page scope")
    if tpl.task == TaskId.C and page is not None:
        raise TypeMismatch(f"{tpl.template_id} is document-scoped")

    pools: list[tuple[str, list]] = []
    for slot in tpl.slots:
        if slot.kind in SLOT_VALUES:
            values: list = list(SLOT_VALUES[slot.kind])
        elif slot.kind == "page_title_anchor":
            titles = _quotable_titles(page.elements)
            values = sorted(t for t, ids in titles.items() if len(ids) == 1)
        elif slot.kind == "doc_title_text":
            values = sorted(_quotable_titles(doc.elements()))
        elif slot.kind == "doc_title_anchor":
            titles = _quotable_titles(doc.elements())
            values = sorted(t for t, ids in titles.items() if len(ids) == 1)
            if graphs is not None:
                values = [t for t in values if _has_child_title(doc, graphs, titles[t][0])]
        elif slot.kind == "float_label":
            values = sorted(k for k in doc.mention_index if _FLOAT_KEY.match(k))
        elif slot.kind == "cite_key":
            values = sorted(k for k in doc.mention_index if k in doc.references)
        else:
            raise TypeMismatch(f"unknown slot kind {slot.kind!r}")
        pools.append((slot.name, values))

    names = [name for name, _ in pools]
    out = []
    for combo in itertools.product(*(vals for _, vals in pools)):
        binding = dict(zip(names, combo))
        if tpl.group in ("b_pos", "b_objrec"):  # b_pos picks a title
            category = ElementCategory(binding.get("E", "title"))
            if _region_members(page, category, binding["pos"]) > 1:
                continue
        out.append(binding)
    out.sort(key=canonical_binding)
    return out


def _has_child_title(doc: Document, graphs: GraphBundle, element_id: str) -> bool:
    return any(
        doc.by_id[child].category == ElementCategory.TITLE
        for child in graphs.logical.children(element_id)
    )
