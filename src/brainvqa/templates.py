"""Question-answer template bank: file format, validation, and rendering.

Bank files are UTF-8 text.  A block starts with a ``[kind task,...]`` header
(kinds: multitask, partial_oos, full_oos) followed by one or more ``Q:``/``A:``
line pairs.  Placeholders are single-brace names; everything inside curly
braces must survive paraphrasing, so validation rejects any template whose
braces do not line up with its declared task set.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

from .errors import BankError, TemplateError
from .morphology import NOT_AVAILABLE
from .regions import region_list_text

TASKS = ("volume", "region", "shape", "spread")
TASK_PLACEHOLDER = {"volume": "volume", "region": "regions", "shape": "shape", "spread": "spread"}
KINDS = ("multitask", "partial_oos", "full_oos")

UNSPECIFIED = "Unspecified"

_PLACEHOLDER_RE = re.compile(r"\{([^{}]*)\}")
_HEADER_RE = re.compile(r"^\[(\w+)(?:\s+([\w,\s]+))?\]$")


@dataclass(frozen=True)
class Template:
    id: str
    kind: str
    task_set: frozenset[str]
    question: str
    answer: str


@dataclass
class TemplateBank:
    multitask: list[Template]
    partial_oos: list[Template]
    full_oos: list[Template]
    provenance: str = ""


def _placeholders(text: str) -> set[str]:
    return set(_PLACEHOLDER_RE.findall(text))


def validate_template(tpl: Template) -> None:
    if tpl.kind not in KINDS:
        raise TemplateError(f"{tpl.id}: unknown kind {tpl.kind!r}")
    if tpl.kind == "full_oos":
        if tpl.task_set:
            raise TemplateError(f"{tpl.id}: full_oos templates carry no tasks")
    elif not tpl.task_set:
        raise TemplateError(f"{tpl.id}: empty task set")
    unknown = tpl.task_set - set(TASKS)
    if unknown:
        raise TemplateError(f"{tpl.id}: unknown tasks {sorted(unknown)}")

    q_ph = _placeholders(tpl.question)
    a_ph = _placeholders(tpl.answer)
    if "label" not in q_ph:
        raise TemplateError(f"{tpl.id}: question must contain {{label}}")
    if not q_ph <= {"label"}:
        raise TemplateError(f"{tpl.id}: question may only use {{label}}, got {sorted(q_ph)}")
    implied = {TASK_PLACEHOLDER[t] for t in tpl.task_set}
    if not implied <= a_ph:
        raise TemplateError(f"{tpl.id}: answer is missing placeholders {sorted(implied - a_ph)}")
    extra = a_ph - implied - {"label"}
    if extra:
        raise TemplateError(f"{tpl.id}: answer has unexpected placeholders {sorted(extra)}")
    # Mirrors the quality gate applied to externally generated paraphrases.
    for text in (tpl.question, tpl.answer):
        if "{" in _PLACEHOLDER_RE.sub("", text) or "}" in _PLACEHOLDER_RE.sub("", text):
            raise TemplateError(f"{tpl.id}: unbalanced braces")
        if not text.isascii():
            raise TemplateError(f"{tpl.id}: non-English (non-ASCII) text")


def parse_bank(text: str, provenance: str = "") -> TemplateBank:
    """Parse and validate a bank; raises :class:`BankError` on bad structure."""
    groups: dict[str, list[Template]] = {k: [] for k in KINDS}
    kind: str | None = None
    task_set: frozenset[str] = frozenset()
    question: str | None = None
    counter: dict[tuple, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        header = _HEADER_RE.match(line)
        if header:
            if question is not None:
                raise BankError(f"line {lineno}: header after unanswered Q:")
            kind = header.group(1)
            if kind not in KINDS:
                raise BankError(f"line {lineno}: unknown kind {kind!r}")
            tasks = header.group(2)
            task_set = frozenset(t.strip() for t in tasks.split(",")) if tasks else frozenset()
            continue
        if line.startswith("Q:"):
            if kind is None:
                raise BankError(f"line {lineno}: Q: before any [kind] header")
            if question is not None:
                raise BankError(f"line {lineno}: two Q: lines in a row")
            question = line[2:].strip()
            continue
        if line.startswith("A:"):
            if question is None:
                raise BankError(f"line {lineno}: A: without a preceding Q:")
            key = (kind, tuple(sorted(task_set)))
            n = counter.get(key, 0)
            counter[key] = n + 1
            suffix = "+".join(t for t in TASKS if t in task_set) or "none"
            tpl = Template(
                id=f"{kind}-{suffix}-{n}",
                kind=kind,
                task_set=task_set,
                question=question,
                answer=line[2:].strip(),
            )
            try:
                validate_template(tpl)
            except TemplateError as exc:
                raise BankError(f"line {lineno}: {exc}") from exc
            groups[kind].append(tpl)
            question = None
            continue
        raise BankError(f"line {lineno}: expected header, Q:, or A:, got {line!r}")
    if question is not None:
        raise BankError("bank ends with an unanswered Q:")

    bank = TemplateBank(
        multitask=groups["multitask"],
        partial_oos=groups["partial_oos"],
        full_oos=groups["full_oos"],
        provenance=provenance,
    )
    validate_bank(bank)
    return bank


def validate_bank(bank: TemplateBank) -> None:
    """Coverage and capacity checks for the without-replacement protocol."""
    subsets = {tpl.task_set for tpl in bank.multitask}
    expected = 2 ** len(TASKS) - 1
    if len(subsets) != expected:
        missing = expected - len(subsets)
        raise BankError(
            f"multitask templates must cover all {expected} nonempty task subsets; "
            f"{missing} subsets have none"
        )
    if len(bank.multitask) < 4:
        raise BankError("need at least 4 multitask templates to sample without replacement")
    if not bank.partial_oos:
        raise BankError("bank has no partial_oos templates")
    if not bank.full_oos:
        raise BankError("bank has no full_oos templates")


def load_bank(path) -> TemplateBank:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise BankError(f"bank {path} is not UTF-8 text: {exc}") from None
    return parse_bank(text, provenance=str(path))


def default_bank() -> TemplateBank:
    text = resources.files("brainvqa.data").joinpath("default_bank.txt").read_text("utf-8")
    return parse_bank(text, provenance="builtin default bank")


def render(template: Template, values: dict[str, str]) -> tuple[str, str]:
    """Substitute placeholders; the result never contains a brace.

    ``values`` maps placeholder names to final strings (task values already
    stringified, N/A included).
    """

    def substitute(text: str) -> str:
        def repl(match: re.Match) -> str:
            name = match.group(1)
            if name not in values:
                raise TemplateError(f"{template.id}: unresolvable placeholder {{{name}}}")
            return values[name]

        out = _PLACEHOLDER_RE.sub(repl, text)
        if "{" in out or "}" in out:
            raise TemplateError(f"{template.id}: braces survived rendering")
        return out

    return substitute(template.question), substitute(template.answer)


def descriptor_values(desc) -> dict[str, str]:
    """Placeholder values for one (study, label) descriptor."""
    return {
        "label": desc.label_name,
        "volume": desc.volume.bin if desc.volume is not None else NOT_AVAILABLE,
        "regions": region_list_text(desc.regions.regions if desc.regions is not None else None),
        "shape": desc.shape if desc.shape is not None else NOT_AVAILABLE,
        "spread": desc.spread.category if desc.spread is not None else NOT_AVAILABLE,
    }
